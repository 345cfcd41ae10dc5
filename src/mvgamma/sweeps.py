"""Exhaustive check suites over generated families of algebras and groups.

The generated families are:

  * algebras: the chains of height 1..8 and their binary products, capped by
    carrier size;
  * groups: products of chain-generated fiber groups with a unit picked per
    fiber by its height (the fiber-group value of the unit, 1..height_cap),
    over all ordered tuples of chains up to a fiber count and chain cap;
  * morphisms: every morphism between generated algebras, read in closed
    form off the two chain decompositions (`find_morphisms`);
  * group maps: every coordinatewise chain-morphism map between generated
    groups that preserves the unit.

Suites certify the package's claims over these families, the carry rule
among them by transport through phi (`carry_rule_by_transport`).  Where a claim
quantifies over a product window, the operations involved act coordinatewise,
so the product claim is exactly the conjunction of the per-fiber claims.  The
general round trip certifies every configuration on the whole group through
the evaluation fiber maps of its unit: each is read on one period, whatever
the window, and the per-fiber certificates are cached by value and so shared
across configurations.  Good sequences verify each fiber unit once, by
its segment's ⊕ table and sums over the window, and re-check the small
configurations directly at product level.

The naturality squares compare coordinatewise maps: each output fiber reads
one input fiber through one `FiberMap` s -> (s div period)·step + table[s
mod period], and two such maps agree on ℤ once they agree on a common period
and its step, so `upsilon_naturality` decides each evaluation square on the
whole group.  With its iota square, a star map of scaling fibers feeds
output fiber j from the input fiber of the prime h^{-1}(P_j) (CDM ch. 3).
Preimages compose, and so do the scalings n -> m -> p, so the star of a
composite of generated morphisms, itself generated, is the composite of
their stars: the composition squares hold on every pair, which the tests
walk with the product-window oracles.

Work shared between suites and configurations is memoized in the builders
themselves, so a sweep context holds only its configuration: algebra work on
interned algebras, segment work (segments, coordinate ideals, `upsilon`,
product-level sums) on the unit, all that [0, u] reads of a group, and fiber
verdicts on fiber data.

Suite results carry no timing or environment data, so a sweep's report is
byte-stable across runs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .equivalence import (
    coordinate_ideal_checks,
    free_quotient_experiment,
    good_sequence_sums_hold,
    iota_naturality,
    iota_roundtrip,
    is_good_sequence,
    star_algebra,
    star_morphism,
    upsilon,
    upsilon_naturality,
    FiberMap,
    LGroupMap,
)
from .lgroup import ChangChainGroup, ProductLuGroup, chain_fiber, unit_segment
from .mv_core import (
    FiniteMVAlgebra,
    check_mv_axioms,
    find_morphisms,
    make_chain,
    make_product,
)
from .spectrum import SUBSET_ORACLE_CAP, enumerate_ideals, ideals_by_subset_filter, spectrum

__all__ = [
    "SuiteResult",
    "SweepContext",
    "SUITE_ORDER",
    "run_all_checks",
    "generated_algebras",
    "group_shapes",
]


class SuiteResult:
    """Outcome of one suite, which the suite updates as it runs: every case
    passed, how many there were, and a bounded list of failure descriptions
    (first ten).  The slots are the report's keys: `check all` reports each
    suite as `as_json` of it."""

    __slots__ = ("name", "ok", "cases", "failures")

    def __init__(self, name: str, ok: bool, cases: int, failures: list[str] | None = None):
        self.name, self.ok, self.cases = name, ok, cases
        self.failures = [] if failures is None else failures

    def as_json(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}

    def note_failure(self, text: str):
        self.ok = False
        if len(self.failures) < 10:
            self.failures.append(text)


def _chain_cap(max_size: int) -> int:  # the tallest generated chain's height: 1..8
    return min(8, max(1, max_size - 1))


def generated_algebras(max_size: int) -> list[FiniteMVAlgebra]:
    """Chains of height 1..8, then binary products (nondecreasing heights),
    with carrier at most max_size (the two-element chain always), in order."""
    top_chain = _chain_cap(max_size)
    out = [make_chain(n) for n in range(1, top_chain + 1)]
    for m in range(1, top_chain + 1):
        for n in range(m, top_chain + 1):
            if (m + 1) * (n + 1) <= max_size:
                out.append(make_product(make_chain(m), make_chain(n)))
    return out


def group_shapes(
    max_fibers: int, chain_cap: int, height_cap: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (chain heights, unit heights) tuples for generated groups:
    ordered tuples of fiber chains, each with every unit height 1..cap."""
    for k in range(1, max_fibers + 1):
        for chains in itertools.product(range(1, chain_cap + 1), repeat=k):
            for heights in itertools.product(range(1, height_cap + 1), repeat=k):
                yield chains, heights


class SweepContext:
    """The configuration of one sweep and the families it generates."""

    def __init__(self, max_size: int = 12, window: int = 4):
        if max_size < 2:
            raise ValueError("max_size must be at least 2")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.max_size = max_size
        self.window = window
        self.max_chain = _chain_cap(max_size)
        self.group_fibers = 3 if max_size >= 16 else 2
        self.group_chain_cap = min(4, self.max_chain)
        self.group_height_cap = 3 if max_size >= 16 else 2
        self.map_chain_cap = min(3, self.group_chain_cap)

    @staticmethod
    def group(chains: tuple[int, ...], heights: tuple[int, ...]) -> ProductLuGroup:
        """The product of the fibers over the given chain heights, with the
        unit at the given height (fiber-group value) in each fiber."""
        return ProductLuGroup([chain_fiber(n) for n in chains], heights)

    def algebras(self, cap: int | None = None) -> list[FiniteMVAlgebra]:
        return generated_algebras(cap if cap is not None else self.max_size)

    def group_configs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return list(
            group_shapes(self.group_fibers, self.group_chain_cap, self.group_height_cap)
        )


# -- per-fiber good-sequence verdicts (see the module docstring for why one
#    case certifies every configuration with that fiber unit) --


@functools.cache
def fiber_goodseq_case(h: int, window: int, /) -> bool:
    """Good sequences of one fiber with unit h, whose segment is the same
    over every chain: each x >= 0 has exactly one, and over the window the
    canonical one sums back to x.

    Uniqueness is read off the segment's table, for every x >= 0 and every
    length: a ⊕ b = a exactly when a is the top or b = 0, where the top is
    h, zero is 0 and the other elements are 1..h-1, once each.  A
    normalized good sequence is then n tops and at most one more entry r in
    1..h-1, summing to n·h + r, so x owns the one with n = x div h and
    r = x mod h and no other.  The sums over [0, window·h] come from
    `good_sequence_sums_hold`, whose `GoodSequence` records check absorption.
    """
    seg = unit_segment((h,))
    a = seg.algebra
    pairs = itertools.product(range(a.size), repeat=2)
    absorbs = all(is_good_sequence(a, (x, y)) == (x == a.top or y == 0) for x, y in pairs)
    carrier = seg.elements
    return (
        absorbs
        and sorted(carrier) == [(t,) for t in range(h + 1)]
        and (carrier[0], carrier[a.top]) == ((0,), (h,))
        and good_sequence_sums_hold((h,), window)
    )


# -- suites ------------------------------------------------------------------------


def suite_axioms(ctx: SweepContext) -> SuiteResult:
    """Every generated algebra passes the full axiom check."""
    result = SuiteResult("axioms", True, 0)
    for a in ctx.algebras():
        result.cases += 1
        report = check_mv_axioms(a)
        if not report.ok:
            result.note_failure(f"size-{a.size} algebra violates {report.violations[0][0]}")
    return result


def carry_rule_by_transport(f: ChangChainGroup) -> bool:
    """The carry rule of f is the integers' arithmetic, carried through phi.

    With n = f.height, T = `pair_of_phi` and W = [-4n, 4n]: phi(T(t)) = t on
    W, and for x = T(s), y = T(t) in W, add(x, y) = T(s + t), leq(x, y) =
    (s <= t), neg(x) = T(-s) and mul(k, x) = T(k·s) for |k| <= 4, each
    compared as an exact, normalized pair.  phi and T read an offset only
    through `rank` and `by_rank`, and W holds every offset, so phi∘T = id on
    all of Z: phi is an additive order bijection from W with phi(k·x) =
    k·phi(x).  meet and join, read off leq, are T of min and max, so inverses,
    double negation, commutativity, totality, De Morgan and the positive-part
    identities hold because they hold in Z.  Sums over the slice |t| <= 2n
    stay in W, which gives associativity, translation invariance and
    distributivity of the join over addition on that slice's triples.
    """
    w = range(-4 * f.height, 4 * f.height + 1)
    pairs = [f.pair_of_phi(t) for t in w]
    ok = [f.phi(x) for x in pairs] == list(w)
    for s, x in zip(w, pairs):
        ok &= [f.add(x, y) for y in pairs] == [f.pair_of_phi(s + t) for t in w]
        ok &= [f.leq(x, y) for y in pairs] == [s <= t for t in w]
        ok &= f.neg(x) == f.pair_of_phi(-s)
        ok &= all(f.mul(k, x) == f.pair_of_phi(k * s) for k in range(-4, 5))
    return ok


def suite_pair_groups(ctx: SweepContext) -> SuiteResult:
    """Carry-pair groups over chains of height 1..5, certified by transport
    through phi on the window of copy index at most 4."""
    result = SuiteResult("pair_groups", True, 0)
    for n in range(1, min(5, ctx.max_chain) + 1):
        result.cases += 1
        if not carry_rule_by_transport(chain_fiber(n)):
            result.note_failure(f"fiber over the height-{n} chain breaks a law")
    return result


def suite_chain_roundtrip(ctx: SweepContext) -> SuiteResult:
    """The unit segment of a chain's fiber group is that chain again, and
    division by the unit inverts evaluation on the whole fiber."""
    result = SuiteResult("chain_roundtrip", True, 0)
    for n in range(1, ctx.max_chain + 1):
        result.cases += 1
        if unit_segment((n,)).algebra != make_chain(n):
            result.note_failure(f"segment of the height-{n} fiber group is not the chain")
        elif not upsilon((n,)).surjective:
            result.note_failure(f"unit division does not invert evaluation at height {n}")
    return result


def suite_general_roundtrip(ctx: SweepContext) -> SuiteResult:
    """Algebra side: iota is an isomorphism onto the member segment for every
    generated algebra, and a_circle generates the ambient, which it does
    exactly when iota is onto the box [0, u] (see `iota_roundtrip`).  Group
    side: every generated configuration passes the full `upsilon`
    certificate on the whole group (alignment and lifts validated, each
    star fiber certified through its own lift, segment identity and box
    checked on the product).
    """
    result = SuiteResult("general_roundtrip", True, 0)
    for a in ctx.algebras(min(16, ctx.max_size)):
        result.cases += 1
        report = iota_roundtrip(star_algebra(a))
        if not report.holds:
            result.note_failure(f"iota round trip fails on a size-{a.size} algebra")
        if not report.onto_segment:
            result.note_failure(f"window element not generated for a size-{a.size} algebra")
    for chains, heights in ctx.group_configs():
        result.cases += 1
        if not upsilon(heights).holds:
            result.note_failure(f"evaluation certificate fails at {chains}/{heights}")
    return result


def suite_good_sequences(ctx: SweepContext) -> SuiteResult:
    """Canonical sequences over every generated configuration: absorption
    law, exact sum, and uniqueness.  Entry extraction, the law, and sums all
    act coordinatewise, so each fiber unit is certified once
    (`fiber_goodseq_case`) and a configuration passes when all its fiber
    units do; small configurations are re-checked directly at product level.
    """
    result = SuiteResult("good_sequences", True, 0)
    for chains, heights in ctx.group_configs():
        result.cases += 1
        if not all(fiber_goodseq_case(h, ctx.window) for h in heights):
            result.note_failure(f"fiber sequence case fails at {chains}/{heights}")
        if len(chains) == 2 and max(heights) <= 2:
            if not good_sequence_sums_hold(heights, 2):
                result.note_failure(f"product-level sums drift at {chains}/{heights}")
    return result


def _generated_group_maps(dom: ProductLuGroup, cod: ProductLuGroup) -> list[LGroupMap]:
    """Every unit-preserving coordinatewise chain-morphism map dom -> cod.
    Every generated fiber is a chain's, so fiber i feeds fiber j through the
    one chain scaling when there is one.  A map is unital exactly when each
    fiber map sends the unit coordinate it reads to the one it writes, so
    each fiber's feeds are filtered alone."""
    choices = [
        [
            (i, s)
            for i, fi in enumerate(dom.fibers)
            if (s := _scaling(fi.height, fj.height)) is not None and s(dom.u[i]) == cod.u[j]
        ]
        for j, fj in enumerate(cod.fibers)
    ]
    return [
        LGroupMap(dom, cod, tuple(i for i, _ in combo), tuple(fm for _, fm in combo))
        for combo in itertools.product(*choices)
    ]


@functools.cache
def _scaling(n: int, m: int, /) -> FiberMap | None:
    """The extension of the one chain morphism Łn -> Łm, a -> a·m/n; None unless n | m."""
    hs = find_morphisms(make_chain(n), make_chain(m))
    return FiberMap.extension(hs[0], chain_fiber(n), chain_fiber(m)) if hs else None


def suite_naturality(ctx: SweepContext) -> SuiteResult:
    """Every found morphism satisfies the iota square and its star reads
    chain scalings; these scalings compose; so star respects composition on
    every composable pair, each a case (see the module docstring).  Every
    generated unit-preserving group map satisfies the evaluation square."""
    result = SuiteResult("naturality", True, 0)
    algebras = ctx.algebras(min(12, ctx.max_size))
    ends = range(len(algebras))
    homs = {(i, j): find_morphisms(algebras[i], algebras[j]) for i in ends for j in ends}
    for (i, j), hs in homs.items():
        for h in hs:
            result.cases += 1
            if not iota_naturality(h).ok:
                result.note_failure(f"iota square fails for a map {i}->{j}")
            sm = star_morphism(h)
            ns = [sm.dom.fibers[s].height for s in sm.source_fiber]
            if sm.fiber_maps != tuple(map(_scaling, ns, (f.height for f in sm.cod.fibers))):
                result.note_failure(f"star of a map {i}->{j} is not its chain scalings")
    heights = sorted({f.height for a in algebras for f in star_algebra(a).ambient.fibers})
    for n, m, p in itertools.product(heights, repeat=3):
        if m % n == 0 and p % m == 0 and _scaling(n, m).then(_scaling(m, p)) != _scaling(n, p):
            result.note_failure(f"chain scalings {n}->{m}->{p} do not compose")
    into = [sum(len(homs[i, j]) for i in ends) for j in ends]
    result.cases += sum(into[j] * sum(len(homs[j, k]) for k in ends) for j in ends)
    map_configs = list(
        group_shapes(min(2, ctx.group_fibers), ctx.map_chain_cap, min(2, ctx.group_height_cap))
    )
    groups = [ctx.group(c, h) for c, h in map_configs]
    for gi, g in enumerate(groups):
        for hi, hgrp in enumerate(groups):
            for phi in _generated_group_maps(g, hgrp):
                result.cases += 1
                if not upsilon_naturality(phi).ok:
                    result.note_failure(
                        f"evaluation square fails {map_configs[gi]}->{map_configs[hi]}"
                    )
    return result


def suite_segment_ideals(ctx: SweepContext) -> SuiteResult:
    """Coordinate ideals of every generated configuration: the segment trace
    is an ideal, the quotient matches the restricted group's segment, and
    coordinate zero sets are exactly the primes."""
    result = SuiteResult("segment_ideals", True, 0)
    for chains, heights in ctx.group_configs():
        for report in coordinate_ideal_checks(heights):
            result.cases += 1
            if not report.holds:
                result.note_failure(
                    f"ideal {report.zero_fibers} fails at {chains}/{heights}"
                )
    return result


def suite_spectrum_oracle(ctx: SweepContext) -> SuiteResult:
    """The idempotent-driven ideal enumeration equals the full subset filter."""
    result = SuiteResult("spectrum_oracle", True, 0)
    for a in ctx.algebras(min(SUBSET_ORACLE_CAP, ctx.max_size)):
        result.cases += 1
        if enumerate_ideals(a) != ideals_by_subset_filter(a):
            result.note_failure(f"ideal lists disagree on a size-{a.size} algebra")
    return result


def suite_free_quotient(ctx: SweepContext) -> SuiteResult:
    """With the zero generator removed, the pairwise-relation quotient is
    free of rank the spectrum size, matching the star group; keeping the
    zero generator on the two-element chain breaks the match."""
    result = SuiteResult("free_quotient", True, 0)
    for a in ctx.algebras(min(9, ctx.max_size)):
        result.cases += 1
        report = free_quotient_experiment(a, identify_zero=True)
        expected = tuple([0] * len(spectrum(a).primes))
        if not (report.isomorphic and report.free_factors == expected):
            result.note_failure(f"factors {report.free_factors} on a size-{a.size} algebra")
    result.cases += 1
    kept = free_quotient_experiment(make_chain(1), identify_zero=False)
    if kept.isomorphic or kept.free_factors != (0, 0):
        result.note_failure("keeping the zero generator should break the match")
    return result


SUITE_ORDER = (
    suite_axioms,
    suite_pair_groups,
    suite_chain_roundtrip,
    suite_general_roundtrip,
    suite_good_sequences,
    suite_naturality,
    suite_segment_ideals,
    suite_spectrum_oracle,
    suite_free_quotient,
)


def run_all_checks(max_size: int = 12, window: int = 4) -> list[SuiteResult]:
    """Run every suite over one context, in canonical order."""
    ctx = SweepContext(max_size=max_size, window=window)
    return [suite(ctx) for suite in SUITE_ORDER]
