"""Expected answers for the benchmark workloads, computed without mvgamma.

Everything here is plain integer arithmetic on the textbook descriptions:

* a fiber chain with height h is the chain {0..h}; its carry pair (m, a)
  stands for the integer phi(m, a) = m*h + a, and pairs are normalized so
  that 0 <= a < h;
* the k-th canonical digit (k = 1, 2, ...) of x >= 0 against a unit u > 0 is
  ((x - (k-1)u) v 0) ^ u, computed per fiber; a product element has as many
  digits as its longest fiber needs;
* a product of chains is labelled row-major, first factor slowest, so that
  index 0 is the bottom; its primes are the kernels of the projections.

None of this imports mvgamma, so a fault in the program cannot hide in the
expected answer.
"""

from __future__ import annotations

from itertools import product
from math import prod


def phi(m: int, a: int, h: int) -> int:
    """The integer behind the carry pair (m, a) over a chain of height h."""
    return m * h + a


def pair(t: int, h: int) -> dict:
    """The normalized pair for the integer t, as the report writes it."""
    m, a = divmod(t, h)
    return {"a": a, "m": m}


def digits(x: int, u: int) -> list[int]:
    """Canonical digits of one fiber value x >= 0 against the unit u > 0."""
    count = -(-x // u)
    return [min(max(x - k * u, 0), u) for k in range(count)]


def product_digits(xs: list[int], us: list[int]) -> list[tuple[int, ...]]:
    """Canonical digits of a nonnegative product element, fiber by fiber."""
    per_fiber = [digits(x, u) for x, u in zip(xs, us)]
    length = max((len(d) for d in per_fiber), default=0)
    return [
        tuple(d[k] if k < len(d) else 0 for d in per_fiber) for k in range(length)
    ]


def element(ts: tuple[int, ...], heights: list[int]) -> dict:
    return {"coords": [pair(t, h) for t, h in zip(ts, heights)]}


def segment_index(ts: tuple[int, ...], us: list[int]) -> int:
    """Carrier index of a segment element: row-major over the fiber values
    0..u_i, first fiber slowest."""
    index = 0
    for t, u in zip(ts, us):
        index = index * (u + 1) + t
    return index


def gamma_detail(us: list[int]) -> dict:
    size = prod(u + 1 for u in us)
    return {"size": size, "zero_index": 0, "unit_index": size - 1}


def goodseq_detail(xs: list[int], heights: list[int], us: list[int]) -> dict:
    ds = product_digits(xs, us)
    return {
        "entries": [segment_index(d, us) for d in ds],
        "elements": [element(d, heights) for d in ds],
        "length": len(ds),
    }


def member_detail(xs: list[int], heights: list[int], us: list[int]) -> dict:
    """Every element of a product group lies in the subgroup generated by
    its unit segment; the witness peels the positive and negative parts."""
    pos = product_digits([max(x, 0) for x in xs], us)
    neg = product_digits([max(-x, 0) for x in xs], us)
    return {
        "member": True,
        "positive": [element(d, heights) for d in pos],
        "negative": [element(d, heights) for d in neg],
    }


# -- products of chains ---------------------------------------------------------


def chain_product_table(heights: list[int]) -> dict:
    """The Cayley table of a product of chains, in the script's table form."""
    elems = list(product(*[range(h + 1) for h in heights]))
    index = {e: i for i, e in enumerate(elems)}
    oplus = [
        [index[tuple(min(h, p + q) for p, q, h in zip(x, y, heights))] for y in elems]
        for x in elems
    ]
    neg = [index[tuple(h - p for p, h in zip(x, heights))] for x in elems]
    return {"size": len(elems), "oplus": oplus, "neg": neg}


def _primes(heights: list[int]) -> list[tuple[list[int], int]]:
    """Prime ideals in canonical order (ascending bitmask of members), each
    with the factor it zeroes: one per factor, the elements whose coordinate
    in that factor is 0."""
    elems = list(product(*[range(h + 1) for h in heights]))
    primes = [
        ([i for i, e in enumerate(elems) if e[f] == 0], f) for f in range(len(heights))
    ]
    return sorted(primes, key=lambda p: sum(1 << i for i in p[0]))


def relation_rows(heights: list[int]) -> int:
    """Rows of the free presentation: pairs (a, b) whose relation
    e_a + e_b - e_{a(+)b} - e_{a(.)b} is nonzero, plus the row for e_0."""
    elems = list(product(*[range(h + 1) for h in heights]))
    rows = 1
    for x in elems:
        for y in elems:
            s = tuple(min(h, p + q) for p, q, h in zip(x, y, heights))
            d = tuple(max(0, p + q - h) for p, q, h in zip(x, y, heights))
            if sorted((x, y)) != sorted((s, d)):
                rows += 1
    return rows


def spec_detail(heights: list[int]) -> dict:
    primes = [members for members, _ in _primes(heights)]
    return {"count": len(heights), "embedding_injective": True, "primes": primes}


def star_detail(heights: list[int]) -> dict:
    """Fiber j of the star is the quotient by the j-th prime, which is the
    chain of the factor that prime zeroes."""
    k = len(heights)
    return {
        "fibers": k,
        "heights": [heights[f] for _, f in _primes(heights)],
        "injective": True,
        "unit": {"coords": [{"a": 0, "m": 1}] * k},
    }


def check_detail() -> dict:
    return {"axioms": True, "iota_roundtrip": True}


def freequotient_detail(heights: list[int]) -> dict:
    k = len(heights)
    return {
        "free_factors": [0] * k,
        "identify_zero": True,
        "isomorphic": True,
        "relation_rows": relation_rows(heights),
        "size": prod(h + 1 for h in heights),
        "spectrum_size": k,
        "star_factors": [0] * k,
    }


# -- the exhaustive sweep ---------------------------------------------------------

# Case counts of `check-all --max-size 16 --window 4`, suite by suite.  They
# follow from the sizes of the generated families, which the sweep fixes.
SWEEP_CASES = (
    ("axioms", 19),
    ("pair_groups", 5),
    ("chain_roundtrip", 8),
    ("general_roundtrip", 1903),
    ("good_sequences", 1884),
    ("naturality", 2254),
    ("segment_ideals", 12540),
    ("spectrum_oracle", 15),
    ("free_quotient", 13),
)


def sweep_detail() -> dict:
    return {
        "suites": [
            {"name": name, "ok": True, "cases": cases, "failures": []}
            for name, cases in SWEEP_CASES
        ]
    }
