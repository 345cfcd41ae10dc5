"""Independent oracles for the maps of the equivalence: the earlier forms of
the two maps that `equivalence.FiberMap` now represents, and of the
subdirect embedding that `equivalence.star_algebra` builds as iota.

`ChainStarMap` extends a chain morphism by re-reading the morphism and both
chains on every call; `UpsilonMap` evaluates a star fiber through `evaluate`
with the lifts read straight off the segment's quotients, in class order,
once `prime_alignment` has matched star fiber t with the zero set of
group fiber t (the package reads both off the segment's decomposition).
Tests compare the package's `FiberMap` values against them point by point,
and mutants are injected into both.  `evaluate` is looked up on this module
at call time, so a test can patch it.  `canonical_embedding` is the map into
the product table of the prime quotients, one mixed-radix index per element.
`window` enumerates a product window, the product of a group's fiber
windows.  `fiber_certificate_on_window` is the earlier body of upsilon's
per-fiber certificate, which walked a window of the star fiber and of the
group fiber; the package reads one period and the residues of the unit.
`goodseq_case_by_enumeration` lists every good sequence of one fiber up to
one entry past the longest length a window sum needs, where the package reads uniqueness
off the segment's ⊕ table; it reads the good-sequence functions on
`mvgamma.equivalence` at call time, so a test can patch them.
`segment_generation_check` walks a product window of the star
ambient and tests each element for membership in the subgroup a_circle
generates; the package reads the same verdict off
`iota_roundtrip(star).onto_segment`.  `members_match_by_membership` runs the
membership test on every element of [0, u], where `iota_roundtrip` reads
`members_match` off the canonical entries in closed form.
`is_prime_ideal` is the earlier primality test of `spectrum`, and
`primes_by_enumeration` the earlier spectrum: every proper ideal that passes
it, where the package reads the primes off the chain decomposition.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from congruence_oracles import prime_alignment
from mvgamma import equivalence
from mvgamma.equivalence import FiberMap, StarAlgebra, generated_membership, star_algebra
from mvgamma.lgroup import (
    ChangChainGroup,
    GroupElement,
    ProductLuGroup,
    gamma_segment,
    unit_segment,
)
from mvgamma.mv_core import FiniteMVAlgebra, MVMorphism, make_product_many
from mvgamma.spectrum import (
    Ideal,
    class_values,
    enumerate_ideals,
    ideal_violations,
    quotient,
    spectrum,
)


@dataclass(frozen=True)
class ChainStarMap:
    """Extension of a morphism h between chains of heights n and n' to their
    groups: t -> (t // n)·n' + rank'(h(by_rank(t mod n))), the carry pair
    (m, a) going to (m, h(a))."""

    hom: MVMorphism
    dom: ChangChainGroup
    cod: ChangChainGroup

    def __call__(self, t: int) -> int:
        m, r = divmod(t, self.dom.height)
        return m * self.cod.height + self.cod.rank[self.hom.map[self.dom.by_rank[r]]]


def evaluate(sf: ChangChainGroup, up: int, lift: tuple[int, ...], s: int) -> int:
    """The evaluation on one fiber: s = m·h + rank(c) in star fiber sf of
    height h, the pair (m, c), goes to m·u_t + lift[c]."""
    m, r = divmod(s, sf.height)
    return m * up + lift[sf.by_rank[r]]


class UpsilonMap:
    """The evaluation map from the star ambient of a segment back to the
    group, star fiber t into group fiber t; `lifts[t][c]` is the common t-th
    coordinate of the members of class c (None if it is not constant)."""

    def __init__(self, group: ProductLuGroup):
        self.group = group
        self.segment = gamma_segment(group)
        self.star = star_algebra(self.segment.algebra)
        if prime_alignment(self.segment.algebra, self.segment.zero_sets) != tuple(range(group.k)):
            raise AssertionError("the segment's primes are not its zero sets in fiber order")
        self.lifts = tuple(
            class_values(q, [x[j] for x in self.segment.elements])
            for j, q in enumerate(self.star.quotients)
        )

    def evaluation(self, x: GroupElement) -> GroupElement:
        """Evaluate a star ambient element, star fiber t into group fiber t."""
        return tuple(self.fiber_value(t, s) for t, s in enumerate(x))

    def fiber_value(self, t: int, s: int) -> int:
        """Evaluate star fiber t at s, landing in group fiber t."""
        return evaluate(self.star.ambient.fibers[t], self.group.u[t], self.lifts[t], s)


def canonical_embedding(algebra: FiniteMVAlgebra) -> MVMorphism:
    """The map into the product of all prime quotients, components in
    spectrum order: the class indices of an element, read as the digits of
    one row-major index of the `make_product_many` table (first prime
    slowest).  Injectivity is a property to check, not a construction
    guarantee."""
    quots = [quotient(algebra, p) for p in spectrum(algebra).primes]
    cod = make_product_many([q.quotient for q in quots])
    combined = [0] * algebra.size
    for q in quots:
        combined = [v * q.quotient.size + c for v, c in zip(combined, q.class_of)]
    return MVMorphism(algebra, cod, tuple(combined))


def is_prime_ideal(algebra: FiniteMVAlgebra, ideal: Ideal) -> bool:
    """Proper, and the quotient is a chain.

    The ideal is the down-set of its largest member e, which is Boolean, and
    A/↓e is isomorphic to the segment [0, neg e] (CDM ch. 1), so the ideal
    is prime exactly when the down-set of neg e is a chain.  A finite
    MV-algebra is a product of chains (CDM ch. 3), whose idempotents are the
    tuples of bottoms and tops, so it is a chain exactly when its only
    idempotents are 0 and its top.  A ValueError names a subset that is no
    ideal, or an improper one.
    """
    bad = ideal_violations(algebra, ideal.members)
    if bad:
        raise ValueError("not an ideal: " + "; ".join(bad))
    if not ideal.proper:
        raise ValueError("primality is asked of proper ideals only")
    op = algebra.oplus
    ne = algebra.neg[functools.reduce(lambda e, a: op[e][a], ideal.members, 0)]
    return all(op[x][x] != x for x in algebra.below[ne] - {0, ne})


def primes_by_enumeration(algebra: FiniteMVAlgebra) -> list[Ideal]:
    """The proper prime ideals among all ideals, in bitmask order."""
    return [i for i in enumerate_ideals(algebra) if i.proper and is_prime_ideal(algebra, i)]


def window(group: ProductLuGroup, bound: int) -> Iterator[GroupElement]:
    """All x with |x| <= bound·u: the product of the fiber windows, each
    fiber's integers t with |t| <= bound·u_t, ascending."""
    return itertools.product(*(range(-bound * up, bound * up + 1) for up in group.u))


def fiber_certificate_on_window(
    fiber_map: FiberMap, lift_by_rank: tuple[int, ...], up: int, window: int
) -> tuple[bool, bool, bool, bool, bool, int]:
    """Upsilon's five checks on one fiber, over windows: linearity on the
    doubled window of the star fiber (height h = f.period), which is
    pairwise additivity on the window; strict monotonicity over the window;
    unit and zero; the segment identity on the ranks 0..h; and every target
    of the group fiber's window |v| <= window·up, up the group's unit
    coordinate, hit by n·h plus the rank that lifts to r, where v = n·up + r.
    Returns the five verdicts and the size of the group fiber's window."""
    h = fiber_map.period
    inner = range(-window * h, window * h + 1)
    table = {s: fiber_map(s) for s in range(-2 * window * h, 2 * window * h + 1)}
    additive = all(v == s * table[1] for s, v in table.items())
    values = [table[s] for s in inner]
    order_embedding = all(v < w for v, w in zip(values, values[1:]))
    preserves_unit = table[h] == up and table[0] == 0
    segment_identity = all(table[r] == v for r, v in enumerate(lift_by_rank))
    rank_of = {v: r for r, v in enumerate(lift_by_rank)}
    targets = range(-window * up, window * up + 1)
    surjective = True
    for v in targets:
        n, r = divmod(v, up)
        rank = rank_of.get(r)
        surjective &= rank is not None and fiber_map(n * h + rank) == v
    return additive, order_embedding, preserves_unit, segment_identity, surjective, len(targets)


def goodseq_case_by_enumeration(h: int, window: int) -> bool:
    """Uniqueness and sums of good sequences in the fiber of unit h, by
    listing: every normalized sequence over the segment carrier that
    satisfies the absorption law, up to one more than the longest length a
    window sum can need, bucketed by its sum; each x in [0, window·h] must
    own exactly its canonical sequence, which sums back to x."""
    seg = unit_segment((h,))
    a = seg.algebra
    total = functools.partial(equivalence.good_sequence_sum, seg)
    by_sum: dict[GroupElement, list[tuple[int, ...]]] = {total(()): [()]}
    for length in range(1, window + 2):
        for tup in itertools.product(range(a.size), repeat=length):
            if tup[-1] != 0 and equivalence.is_good_sequence(a, tup):
                by_sum.setdefault(total([(1, e) for e in tup]), []).append(tup)
    ok = True
    for x in ((t,) for t in range(window * h + 1)):
        canon = equivalence.canonical_good_sequence(seg, x)
        ok &= total(canon.runs) == x and by_sum.get(x, []) == [canon.entries]
    return ok


def members_match_by_membership(star: StarAlgebra) -> bool:
    """The membership test passes on exactly the elements of [0, u] that lie
    in a_circle: one `generated_membership` call per segment element."""
    return all(
        generated_membership(star.ambient, star.circle_index, x).member
        == (x in star.circle_index)
        for x in gamma_segment(star.ambient).elements
    )


@dataclass(frozen=True)
class GenerationReport:
    ok: bool
    checked: int
    failure: GroupElement | None = None


def segment_generation_check(star: StarAlgebra, bound: int = 4) -> GenerationReport:
    """Every ambient element within bound·u is generated by a_circle.

    Exhaustive over the ambient window, one membership test per element, so
    its cost grows as a power of the fiber count.
    """
    for checked, x in enumerate(window(star.ambient, bound), 1):
        if not generated_membership(star.ambient, star.circle_index, x).member:
            return GenerationReport(ok=False, checked=checked, failure=x)
    return GenerationReport(ok=True, checked=checked)
