"""Seeded inputs for the benchmark workloads, with their expected answers.

A workload is the command line handed to `mvgamma.cli.main`, the script it
runs (if any), and the expected outcome of every command in the report.  The
seed changes which values are drawn, never how much work there is: command
counts, size bands and the band mix of copy indices are fixed, and values are
drawn stratified inside their bands.

* `sweep` -- `check-all --max-size 16 --window 4`, the acceptance scale.  Hot
  caches, dominated by quotients and star morphisms; the seed is unused.
* `digits` -- good sequences and subgroup membership at copy indices
  10^2..10^3.5 over six small product groups.  Pair arithmetic, canonical
  entries and MB-sized reports; no quotient is ever taken.
* `carriers` -- fifteen three- and four-factor chain products with carriers
  16..216, about half given as raw tables.  Large tables seen once: Smith
  reduction, axiom checks and quotients with cold caches.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import prod

import oracle

WORKLOADS = ("sweep", "digits", "carriers")

# The report's config block for `run` without flags.
_RUN_CONFIG = {"max_size": 12, "window": 4}


@dataclass(frozen=True)
class Expected:
    """One command of the report as it must read."""

    command: str
    line: int
    target: str
    detail: dict


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # cli arguments; SCRIPT stands for the script path
    script: str | None
    config: dict
    expected: tuple[Expected, ...]


SCRIPT = "<script>"


def build(name: str, seed: int) -> Workload:
    if name == "sweep":
        return _sweep()
    if name == "digits":
        return _digits(random.Random(seed))
    if name == "carriers":
        return _carriers(random.Random(seed))
    raise ValueError(f"unknown workload {name!r}")


def _sweep() -> Workload:
    return Workload(
        argv=("check-all", "--max-size", "16", "--window", "4"),
        script=None,
        config={"max_size": 16, "window": 4},
        expected=(Expected("check", 1, "all", oracle.sweep_detail()),),
    )


class _Script:
    """Collects script lines and the expected outcome of each command."""

    def __init__(self):
        self.lines: list[str] = []
        self.expected: list[Expected] = []

    def define(self, text: str):
        self.lines.append(text)

    def command(self, kind: str, target: str, rest: str, detail: dict):
        self.lines.append(f"{kind} {target}{rest}")
        self.expected.append(Expected(kind, len(self.lines), target, detail))

    def workload(self) -> Workload:
        return Workload(
            argv=("run", SCRIPT),
            script="\n".join(self.lines) + "\n",
            config=dict(_RUN_CONFIG),
            expected=tuple(self.expected),
        )


# -- digits -------------------------------------------------------------------------

# Group slots: (fiber count, unit copies, allowed segment sizes).  Every fiber
# has a chain of 2..5 elements and the unit (copies, 0), so fiber i spans
# copies*h_i + 1 segment values.  The size bands keep the segment builds, and
# their O(size^3) axiom checks, the same from seed to seed.
_DIGIT_SLOTS = (
    (1, 1, range(2, 6)),
    (2, 1, range(12, 21)),
    (3, 1, range(36, 49)),
    (1, 2, range(3, 10)),
    (2, 2, range(21, 36)),
    (3, 2, range(45, 64)),
)
# Copy indices come from six strata of a quarter decade each over
# [10^2, 10^3.5].  Every group draws one goodseq and one member element per
# stratum, from the middle fifth of the stratum, so the total length of the
# digit sequences, and with it the work, hardly moves with the seed.
_DIGIT_STRATA = 6
_DIGIT_LOG_LO, _DIGIT_LOG_STEP = 2.0, 0.25


def _digit_group(rng: random.Random, fibers: int, copies: int, sizes: range):
    shapes = [
        hs
        for hs in _heights(fibers, 1, 4)
        if prod(copies * h + 1 for h in hs) in sizes
    ]
    return list(rng.choice(shapes))


def _heights(count: int, lo: int, hi: int):
    if count == 0:
        yield ()
        return
    for h in range(lo, hi + 1):
        for rest in _heights(count - 1, lo, hi):
            yield (h,) + rest


def _copy_index(rng: random.Random, stratum: int) -> int:
    pos = stratum + 0.4 + 0.2 * rng.random()
    return round(10 ** (_DIGIT_LOG_LO + _DIGIT_LOG_STEP * pos))


def _fiber_values(
    rng: random.Random, m: int, heights: list[int], units: list[int], signs: list[int]
) -> list[int]:
    """Fiber integers for one element with the given signs: a random leading
    fiber gets copy index m, so the element needs about m / copies digits,
    and every other fiber a random share of that length."""
    k = len(heights)
    lead = rng.randrange(k)
    top = _lead_value(rng, m, heights[lead])
    length = top / units[lead]
    xs = []
    for i in range(k):
        x = top if i == lead else int(rng.random() * length * units[i])
        xs.append(x * signs[i])
    return xs


def _element_text(xs: list[int], heights: list[int]) -> str:
    return json.dumps(oracle.element(tuple(xs), heights))


def _digits(rng: random.Random) -> Workload:
    out = _Script()
    for g, (fibers, copies, sizes) in enumerate(_DIGIT_SLOTS):
        heights = _digit_group(rng, fibers, copies, sizes)
        units = [copies * h for h in heights]
        name = f"G{g + 1}"
        out.define(
            f"group {name} = fibers [{', '.join(str(h + 1) for h in heights)}] "
            f"unit [{', '.join(f'({copies}, 0)' for _ in heights)}]"
        )
        out.command("gamma", name, "", oracle.gamma_detail(units))
        for j in range(_DIGIT_STRATA):
            xs = _fiber_values(rng, _copy_index(rng, j), heights, units, [1] * fibers)
            out.command(
                "goodseq",
                name,
                " " + _element_text(xs, heights),
                oracle.goodseq_detail(xs, heights, units),
            )
        for j in range(_DIGIT_STRATA):
            xs = _member_values(rng, _copy_index(rng, j), heights, units)
            out.command(
                "member",
                name,
                " " + _element_text(xs, heights),
                oracle.member_detail(xs, heights, units),
            )
    return out.workload()


def _member_values(rng: random.Random, m: int, heights: list[int], units: list[int]):
    """A mixed-sign element: with two or more fibers, one fiber leads the
    positive part and another the negative part at the same copy index, so
    both halves need about m / copies digits whatever the seed."""
    k = len(heights)
    if k == 1:
        return _fiber_values(rng, m, heights, units, [rng.choice((1, -1))])
    up, down = rng.sample(range(k), 2)
    pos = _lead_value(rng, m, heights[up])
    neg = _lead_value(rng, m, heights[down])
    length = min(pos / units[up], neg / units[down])
    xs = []
    for i in range(k):
        if i == up:
            xs.append(pos)
        elif i == down:
            xs.append(-neg)
        else:
            xs.append(int(rng.random() * length * units[i]) * rng.choice((1, -1)))
    return xs


def _lead_value(rng: random.Random, m: int, h: int) -> int:
    return oracle.phi(m, rng.randrange(h), h)


# -- carriers ------------------------------------------------------------------------

# Product slots come in pairs of one three-factor and one four-factor product
# of the same carrier size; the seed draws the factors and gives one product
# of each pair as a raw table.  Sizes are fixed because the costs grow as a
# power of the carrier: the Smith reduction behind freequotient (run up to
# carrier 64) roughly as size^4, the axiom checks as size^3.
_CARRIER_PAIRS = (16, 24, 32, 36, 48, 96, 180)
# The largest product closes the list, always as a table.
_CARRIER_LAST = (3, 216)
_FREE_QUOTIENT_MAX = 64
_MAX_FACTOR_HEIGHT = 15


def _carriers(rng: random.Random) -> Workload:
    slots = []
    for size in _CARRIER_PAIRS:
        table = rng.randrange(2)
        slots += [(3, size, table == 0), (4, size, table == 1)]
    slots.append((*_CARRIER_LAST, True))
    out = _Script()
    for i, (factors, size, table) in enumerate(slots):
        shapes = [
            hs
            for hs in _heights(factors, 1, _MAX_FACTOR_HEIGHT)
            if prod(h + 1 for h in hs) == size
        ]
        heights = list(rng.choice(shapes))
        name = f"A{i + 1}"
        if table:
            body = "table " + json.dumps(
                oracle.chain_product_table(heights), separators=(",", ":")
            )
        else:
            body = " * ".join(f"chain {h}" for h in heights)
        out.define(f"algebra {name} = {body}")
        out.command("spec", name, "", oracle.spec_detail(heights))
        out.command("star", name, "", oracle.star_detail(heights))
        out.command("check", name, "", oracle.check_detail())
        if size <= _FREE_QUOTIENT_MAX:
            out.command("freequotient", name, "", oracle.freequotient_detail(heights))
    return out.workload()
