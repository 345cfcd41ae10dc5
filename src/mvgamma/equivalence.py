"""Round trips between finite MV-algebras and unital products of chain groups.

One direction starts from an algebra A: read its chain decomposition, one
chain per prime, take the carry-pair group over each chain, and place A in
the product of those groups as the box of its coordinates ("a_circle").  The
subgroup generated by that box is the enveloping group of A, and the box
recovers A as the unit segment.  The other direction starts from a group
with a chosen positive unit, takes its unit segment as an algebra, and
rebuilds the group from the segment's enveloping group.  Both bridging maps
live here: iota (algebra into its star ambient) and upsilon (star ambient of
a segment back onto the original group), together with checkers that
certify that they are inverse to each other.

Everything is exact integer arithmetic, coordinate by coordinate in the
product group, and every verdict holds on the whole group: each fiber of a
map here is a `FiberMap`, which gains its step when s gains its period, so
one period decides it on all of ℤ.  No map here is induced on congruence
classes: a star map's fibers are `chain_scaling`s, Łn -> Łm extended.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Container, Iterable, NamedTuple

from .errors import InternalInvariantError
from .lgroup import (
    ChangChainGroup,
    GammaSegment,
    GroupElement,
    ProductLuGroup,
    abs_decompose,
    gamma_segment,
    require_positive_unit,
    unit_segment,
)
from .mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    chain_decomposition,
    check_morphism,
    compose,
)
from .snf import matrix_rank
from .spectrum import (
    QuotientResult,
    Spectrum,
    ideal_violations,
    preimage_ideal,
    prime_quotients,
    spectrum,
)

__all__ = [
    "FiberMap",
    "chain_scaling",
    "StarAlgebra",
    "star_algebra",
    "canonical_entries",
    "GoodSequence",
    "canonical_good_sequence",
    "is_good_sequence",
    "good_sequence_sum",
    "good_sequence_sums_hold",
    "MembershipWitness",
    "generated_membership",
    "IotaReport",
    "iota_roundtrip",
    "star_morphism",
    "UpsilonResult",
    "upsilon",
    "SegmentIdealReport",
    "coordinate_ideal_checks",
    "LGroupMap",
    "gamma_restriction",
    "CommuteReport",
    "iota_naturality",
    "upsilon_naturality",
    "star_functoriality",
    "SNFReport",
    "free_quotient_experiment",
]


# -- fiber maps -----------------------------------------------------------------


class FiberMap(NamedTuple):
    """One fiber of a coordinatewise map between chain groups, as a value:
    s -> (s div period)·step + table[s mod period].  Both maps of the
    equivalence have this shape, the star of a chain morphism
    (`chain_scaling`) and the evaluation of a star fiber (`_segment_lifts`).
    """

    period: int
    step: int
    table: tuple[int, ...]

    def __call__(self, s: int) -> int:
        m, r = divmod(s, self.period)
        return m * self.step + self.table[r]

    def then(self, g: FiberMap) -> FiberMap:
        """The composite s -> g(self(s)), built once per pair of values."""
        return _composite(self, g)


@functools.cache
def chain_scaling(n: int, m: int, /) -> FiberMap | None:
    """The star of the one morphism Łn -> Łm, a -> a·m/n, on the groups:
    the carry pair (k, a) goes to (k, a·m/n), so t -> t·m/n; None unless
    n | m, when no such morphism exists (CDM ch. 3)."""
    return None if m % n else FiberMap(n, m, tuple(range(0, m, m // n)))


@functools.cache
def _composite(f: FiberMap, g: FiberMap, /) -> FiberMap:
    """g after f: over P = f.period·g.period / gcd(f.step, g.period) the input
    of g moves by a multiple of g's period, so P is a period."""
    period = f.period * g.period // math.gcd(f.step, g.period)
    values = tuple(g(f(r)) for r in range(period + 1))
    return FiberMap(period, values[-1] - values[0], values[:-1])


# -- the star of a finite algebra ----------------------------------------------


class StarAlgebra(NamedTuple):
    """An algebra together with its enveloping-group data.

    `ambient` is the product of the chain groups over the prime quotient
    chains, in canonical spectrum order.  `a_circle[a]` is the image of
    carrier element a: the tuple of the ranks of its classes, one per prime
    (the top class has rank the chain height, one whole copy).
    `circle_index` inverts a_circle; when two carrier elements collide the
    smallest index wins, and the collision itself is a checkable failure of
    injectivity, not an exception.
    """

    source: FiniteMVAlgebra
    spec: Spectrum
    quotients: tuple[QuotientResult, ...]
    ambient: ProductLuGroup
    a_circle: tuple[GroupElement, ...]
    circle_index: dict[GroupElement, int]

    @property
    def injective(self) -> bool:
        return len(self.circle_index) == self.source.size


@functools.cache
def star_algebra(algebra: FiniteMVAlgebra, /) -> StarAlgebra:
    """Build the enveloping-group presentation of a finite algebra from its `prime_quotients`."""
    spec, quots = spectrum(algebra), tuple(q for _, q in prime_quotients(algebra))
    fibers = [ChangChainGroup(q.quotient) for q in quots]
    a_circle = tuple(
        tuple(f.rank[q.class_of[a]] for f, q in zip(fibers, quots))
        for a in range(algebra.size)
    )
    ambient = ProductLuGroup(fibers, a_circle[algebra.top])
    circle_index: dict[GroupElement, int] = {}
    for a, x in enumerate(a_circle):
        circle_index.setdefault(x, a)
    return StarAlgebra(
        source=algebra,
        spec=spec,
        quotients=quots,
        ambient=ambient,
        a_circle=a_circle,
        circle_index=circle_index,
    )


# -- good sequences -------------------------------------------------------------


def canonical_entries(u: GroupElement, x: GroupElement) -> tuple[tuple[int, GroupElement], ...]:
    """The canonical good sequence of x >= 0 as runs (count, element) of equal
    elements of [0, u], in closed form: a_i = ((x - (i-1)u) ∨ 0) ∧ u for
    i >= 1 (Cignoli, D'Ottaviano and Mundici 2000, ch. 2).  Each fiber is
    divided once, x_t = n_t·u_t + r_t with 0 <= r_t < u_t, so entry i (counted
    from 0) is u_t while i < n_t, r_t at i = n_t, and 0 after.  Fiber t
    changes only at n_t and, if r_t > 0, at n_t + 1, so there are at most 2k
    runs for k fibers, whatever the size of x; neighbouring runs differ.
    The entries sum back to x and each absorbs the next under the capped
    addition; the sequence stops at its last nonzero entry.
    """
    if any(t < 0 for t in x):
        raise ValueError("only nonnegative elements have good-sequence entries")
    require_positive_unit(u)
    divided = [divmod(t, up) for up, t in zip(u, x)]
    cuts = sorted({0, *(n for n, _ in divided), *(n + 1 for n, r in divided if r)})
    return tuple(
        (j - i, tuple([up if i < n else r if i == n else 0 for (n, r), up in zip(divided, u)]))
        for i, j in itertools.pairwise(cuts)
    )


class _GoodSequenceFields(NamedTuple):
    algebra: FiniteMVAlgebra
    runs: tuple[tuple[int, int], ...]


class GoodSequence(_GoodSequenceFields):
    """Entries of a segment algebra where each absorbs its successor, held
    as runs (count, carrier index) of equal entries; `entries` writes them
    out one by one.

    Normalized: no trailing zeros (the empty sequence stands for zero).  An
    immutable record, checked whenever one is built, `_replace` included.
    """

    __slots__ = ()

    def __new__(cls, algebra: FiniteMVAlgebra, runs: tuple[tuple[int, int], ...]):
        # each neighbouring pair once: a run boundary, or a ⊕ a = a in a run
        pairs = [a for n, e in runs for a in (e, e)[:n]]
        if any(n < 1 for n, _ in runs) or not is_good_sequence(algebra, pairs):
            raise ValueError("entries violate the absorption law")
        if runs and runs[-1][1] == 0:
            raise ValueError("trailing zeros must be stripped")
        return super().__new__(cls, algebra, runs)

    @classmethod
    def _make(cls, values) -> GoodSequence:
        return cls(*values)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable((e,) * n for n, e in self.runs))


def is_good_sequence(algebra: FiniteMVAlgebra, entries: Iterable[int]) -> bool:
    """True when consecutive entries satisfy a_k (+) a_{k+1} = a_k."""
    entries = list(entries)
    for e in entries:
        if not 0 <= e < algebra.size:
            raise ValueError(f"entry {e} outside the carrier")
    rows = algebra.oplus
    return all(rows[a][b] == a for a, b in zip(entries, entries[1:]))


def canonical_good_sequence(segment: GammaSegment, x: GroupElement) -> GoodSequence:
    """The canonical decomposition of x >= 0 as runs of segment carrier indices."""
    try:
        runs = tuple((n, segment.index[e]) for n, e in canonical_entries(segment.u, x))
    except KeyError as exc:  # entries are u-meets of positives: always in [0,u]
        raise InternalInvariantError(f"entry {exc} escaped the segment") from exc
    return GoodSequence(segment.algebra, runs)


def _runs_total(zero: GroupElement, runs: Iterable[tuple[int, GroupElement]]) -> GroupElement:
    """The sum of count·element over runs, coordinatewise."""
    return tuple(map(sum, zip(zero, *([n * t for t in e] for n, e in runs))))


def good_sequence_sum(segment: GammaSegment, runs: Iterable[tuple[int, int]]) -> GroupElement:
    """Add up runs (count, carrier index) of segment entries in the group."""
    return _runs_total(segment.elements[0], ((n, segment.elements[e]) for n, e in runs))


@functools.cache
def good_sequence_sums_hold(u: GroupElement, bound: int, /) -> bool:
    """Every nonnegative x within bound·u has a canonical sequence that sums
    back to x; it reads only the unit u, so it runs once per unit."""
    segment = unit_segment(u)
    return all(
        good_sequence_sum(segment, canonical_good_sequence(segment, x).runs) == x
        for x in itertools.product(*(range(bound * up + 1) for up in u))
    )


# -- membership in the generated subgroup ---------------------------------------


class MembershipWitness(NamedTuple):
    """Outcome of a generated-subgroup membership test.

    `positive`/`negative` are the canonical entries of the two halves of x,
    as runs (count, element) from `canonical_entries`.  For a member every
    entry lies in the allowed set; for a non-member `missing` is the first
    entry that does not.
    """

    member: bool
    positive: tuple[tuple[int, GroupElement], ...]
    negative: tuple[tuple[int, GroupElement], ...]
    missing: GroupElement | None = None

    def __bool__(self) -> bool:
        return self.member


def generated_membership(
    group: ProductLuGroup,
    allowed: Container[GroupElement],
    x: GroupElement,
) -> MembershipWitness:
    """Is x in the subgroup generated by `allowed` (a subset of [0, u], u the
    group's unit)?

    Split x into its two nonnegative halves and take the canonical entries
    of each; x is generated exactly when every entry belongs to the allowed
    set.  The entries of a half form at most 2k runs (k the fiber count), so
    each distinct entry is looked up once and the halves re-add to x run by
    run, at a cost that does not grow with x.
    The allowed set must contain 0 and u and be closed under the capped
    addition and unit complement for the criterion to be complete; callers
    pass the image of an algebra, which is.
    """
    pos, neg_part, _ = abs_decompose(group, x)
    positive = canonical_entries(group.u, pos)
    negative = canonical_entries(group.u, neg_part)
    lookup = allowed.__contains__
    for e in dict.fromkeys(e for _, e in itertools.chain(positive, negative)):
        if not lookup(e):
            return MembershipWitness(
                member=False, positive=positive, negative=negative, missing=e
            )
    if group.sub(_runs_total(group.zero, positive), _runs_total(group.zero, negative)) != x:
        raise InternalInvariantError("canonical entries failed to re-add to x")
    return MembershipWitness(member=True, positive=positive, negative=negative)


# -- iota round trip -------------------------------------------------------------


class IotaReport(NamedTuple):
    """Does a_circle sit inside the ambient segment as a faithful copy of A?"""

    injective: bool
    onto_segment: bool
    is_morphism: bool
    members_match: bool
    checked: int

    @property
    def holds(self) -> bool:
        return self.injective and self.onto_segment and self.is_morphism and self.members_match


def iota_roundtrip(star: StarAlgebra) -> IotaReport:
    """Certify that iota is an isomorphism onto the member part of [0, u].

    Three facts are checked exhaustively: iota is injective; its image is
    exactly the set of segment elements that pass the membership test; and
    the index-level map carrier -> segment carrier preserves the operations.

    On [0, u] the membership test reads only the canonical entries of x
    itself (its negative half is 0), so it passes exactly on a_circle when
    x != 0 is its own one entry, (1, x), 0 has none, and 0 is in a_circle:
    `members_match` checks just that, in closed form (the membership loop
    over the segment is the tests' oracle).

    `onto_segment` also decides generation: the canonical entries of every
    x >= 0 lie in the box [0, u], and a nonzero box element outside a_circle
    is its own only entry and lies in every window of bound >= 1.
    """
    segment = gamma_segment(star.ambient)
    u, zero = star.ambient.u, star.ambient.zero
    members_match = zero in star.circle_index and all(
        canonical_entries(u, x) == (((1, x),) if x != zero else ()) for x in segment.elements
    )
    onto = all(x in star.circle_index for x in segment.elements)
    index_map = tuple(segment.index[x] for x in star.a_circle)
    morphism_ok = check_morphism(MVMorphism(star.source, segment.algebra, index_map)).ok
    return IotaReport(
        injective=star.injective,
        onto_segment=onto,
        is_morphism=morphism_ok,
        members_match=members_match,
        checked=len(segment.elements),
    )


# -- star of a general morphism ---------------------------------------------------


class LGroupMap(NamedTuple):
    """A coordinatewise map between unital products of chain groups.

    Codomain fiber j reads domain fiber `source_fiber[j]` through the
    `FiberMap` `fiber_maps[j]`: a `chain_scaling` for star and generated
    maps, the evaluation of one star fiber for the evaluation map, and the
    composite fiber map for a composite (`then`).
    """

    dom: ProductLuGroup
    cod: ProductLuGroup
    source_fiber: tuple[int, ...]
    fiber_maps: tuple[FiberMap, ...]

    def __call__(self, x: GroupElement) -> GroupElement:
        return tuple(fm(x[i]) for i, fm in zip(self.source_fiber, self.fiber_maps))

    @property
    def unital(self) -> bool:
        return self(self.dom.u) == self.cod.u

    def then(self, other: LGroupMap) -> LGroupMap:
        """The composite x -> other(self(x)): output fiber k reads input
        fiber self.source_fiber[other.source_fiber[k]]."""
        return LGroupMap(
            dom=self.dom,
            cod=other.cod,
            source_fiber=tuple(self.source_fiber[j] for j in other.source_fiber),
            fiber_maps=tuple(
                self.fiber_maps[j].then(g) for j, g in zip(other.source_fiber, other.fiber_maps)
            ),
        )


@functools.cache
def star_morphism(hom: MVMorphism, /) -> LGroupMap:
    """Ambient-level extension of an algebra morphism: the map between the
    star ambients of its endpoints.

    Each codomain fiber j, of height m, is fed from the domain fiber i
    holding the preimage prime, of height n.  The morphism induces one
    Łn -> Łm on the quotients, and that morphism is unique, so fiber j is
    `chain_scaling(n, m)`.  The iota square (`iota_naturality`) certifies
    the map on all of A, and so on A*, which A generates.
    """
    dom_star, cod_star = star_algebra(hom.dom), star_algebra(hom.cod)
    source_fiber = []
    fiber_maps = []
    for j, prime in enumerate(cod_star.spec.primes):
        pre = preimage_ideal(hom, prime).members
        try:
            i = dom_star.spec.index_of(pre)
        except KeyError as exc:
            raise InternalInvariantError(
                "preimage of a prime is missing from the canonical listing"
            ) from exc
        fm = chain_scaling(dom_star.ambient.fibers[i].height, cod_star.ambient.fibers[j].height)
        if fm is None:
            raise InternalInvariantError("the heights of a prime and its preimage do not divide")
        source_fiber.append(i)
        fiber_maps.append(fm)
    return LGroupMap(
        dom=dom_star.ambient,
        cod=cod_star.ambient,
        source_fiber=tuple(source_fiber),
        fiber_maps=tuple(fiber_maps),
    )


# -- upsilon -----------------------------------------------------------------------


@functools.cache
def _segment_lifts(u: GroupElement, /) -> tuple[GammaSegment, StarAlgebra, tuple]:
    """The segment of unit u, its star, and per fiber t the evaluation of
    star fiber t onto group fiber t with its lift in rank order.

    One check: the chain decomposition of the segment algebra is the
    identity with heights u.  Then prime t is the zero set of fiber t, and
    the class of x in star fiber t is x_t, of rank x_t, so the lift is
    0..u_t and the pair (m, r) evaluates to m·u_t + r.  The segment lists
    elements row-major, first fiber slowest, so for j < l the largest
    element vanishing on fiber l lies above every element vanishing on
    fiber j: in the spectrum's bitmask order, star fiber t is fiber t's.
    """
    segment = unit_segment(u)
    if chain_decomposition(segment.algebra) != (tuple(range(segment.algebra.size)), u):
        raise InternalInvariantError("the segment algebra is not the product of its unit's chains")
    star = star_algebra(segment.algebra)
    fibers = tuple(
        (FiberMap(sf.height, up, tuple(range(up))), tuple(range(up + 1)))
        for sf, up in zip(star.ambient.fibers, u)
    )
    return segment, star, fibers


def _evaluation(group: ProductLuGroup) -> tuple[GammaSegment, LGroupMap]:
    """The group's segment, and the evaluation from its star ambient onto
    the group: star fiber t read into group fiber t."""
    segment, star, fibers = _segment_lifts(group.u)
    maps = tuple(fm for fm, _ in fibers)
    return segment, LGroupMap(star.ambient, group, tuple(range(group.k)), maps)


@functools.cache
def _fiber_certificate(
    fiber_map: FiberMap, lift_by_rank: tuple[int, ...], up: int, /
) -> tuple[bool, bool, bool, bool, bool]:
    """Upsilon's checks on one fiber, on all of ℤ: the evaluation f of a star
    fiber of height h = f.period into a group fiber with unit coordinate up,
    whose class of rank r lifts to lift_by_rank[r], r in 0..h.

    f(s + h) = f(s) + f(h) - f(0), so f is read on one period, 0..h, and at
    one rank per residue below up.  Additivity is linearity, f(s) = s·f(1)
    on 0..h, which the period carries to ℤ.  Order embedding and
    injectivity: strictly increasing over 0..h.  Unit and zero: f(0) = 0
    and f(h) = up, the group's unit, not the map's step.  The segment
    identity: f(r) = lift_by_rank[r].  Surjectivity: v = n·up + r is hit by
    n·h plus the rank that lifts to r exactly when f gains up per period and
    that rank evaluates to r.  Every argument is a value, so equal fibers
    share one certificate.
    """
    h = fiber_map.period
    values = tuple(fiber_map(s) for s in range(h + 1))
    additive = all(v == s * values[1] for s, v in enumerate(values))
    order_embedding = all(v < w for v, w in itertools.pairwise(values))
    preserves_unit = values[0] == 0 and values[h] == up
    segment_identity = values == lift_by_rank
    rank_of = {v: r for r, v in enumerate(lift_by_rank)}
    surjective = values[h] - values[0] == up and all(
        r in rank_of and fiber_map(rank_of[r]) == r for r in range(up)
    )
    return additive, order_embedding, preserves_unit, segment_identity, surjective


class UpsilonResult(NamedTuple):
    """Verdict, on the whole group, that upsilon is a unital ordered
    isomorphism.

    Additivity, order embedding, unit preservation, the segment identity
    and surjectivity are checked one fiber at a time, each fiber by its
    cached certificate.  Because every operation involved (addition, order,
    iota, the map itself) acts coordinatewise, a product quantifier is
    exactly the conjunction of the per-fiber ones.  The box is checked on
    the product itself.
    """

    additive: bool
    order_embedding: bool
    preserves_unit: bool
    segment_identity: bool
    surjective: bool
    box_is_circle: bool

    @property
    def holds(self) -> bool:
        return all(self)


@functools.cache
def upsilon(u: GroupElement, /) -> UpsilonResult:
    """Build the evaluation map of a group with unit u and certify it on the
    whole group; it reads only u, so it runs once per unit.

    Building it (`_segment_lifts`) checks that the segment is its own
    product of chains.  Each fiber then gets its certificate
    (`_fiber_certificate`: additivity, order embedding, unit and zero, the
    segment identity `evaluate(iota(x)) = x` on that fiber's classes,
    surjectivity one residue of the unit at a time).  On the
    product: the segment being exactly the box of class pairs, injectively.
    """
    _, star, fibers = _segment_lifts(u)
    checks = zip(*(_fiber_certificate(*fiber, up) for fiber, up in zip(fibers, u)))
    box_size = math.prod(f.height + 1 for f in star.ambient.fibers)
    return UpsilonResult(
        *map(all, checks), box_is_circle=star.injective and len(star.a_circle) == box_size
    )


# -- coordinate ideals of a product group -------------------------------------------


class SegmentIdealReport(NamedTuple):
    """Segment-level facts about one coordinate ideal of a product group.

    The ideal consists of the group elements vanishing on `zero_fibers`; its
    trace on [0, u] must be an algebra ideal, the quotient by that trace must
    match the segment of the restricted group (restriction to the named
    coordinates) by the first isomorphism theorem, and the coordinate zero
    sets must be exactly the primes of the segment algebra (a fact of the
    segment, shared by its reports).
    """

    zero_fibers: tuple[int, ...]
    ideal_ok: bool
    quotient_iso_ok: bool
    spectrum_bijection_ok: bool

    @property
    def holds(self) -> bool:
        return self.ideal_ok and self.quotient_iso_ok and self.spectrum_bijection_ok


@functools.cache
def coordinate_ideal_checks(u: GroupElement, /) -> tuple[SegmentIdealReport, ...]:
    """Check every coordinate ideal of a product group with unit u against
    its segment trace; segments read only u, so this runs once per unit.

    One report per nonempty set of zero fibers, by size and then
    lexicographically; the ideal named by a set is the kernel of the
    projection onto those coordinates, so its quotient keeps those fibers.
    By the first isomorphism theorem the quotient is the kept segment when
    the projection onto it is a morphism (`check_morphism` reads the
    tables), is onto, and has the trace as its kernel.  The spectrum
    bijection compares the set of zero sets, all distinct, with the primes.
    """
    segment = unit_segment(u)
    algebra, zero_sets = segment.algebra, segment.zero_sets
    primes = {p.members for p in spectrum(algebra).primes}
    spectrum_bijection_ok = len(set(zero_sets)) == len(zero_sets) and set(zero_sets) == primes
    reports = []
    for r in range(1, len(u) + 1):
        for zf in itertools.combinations(range(len(u)), r):
            members = frozenset.intersection(*(zero_sets[j] for j in zf))
            ideal_ok = not ideal_violations(algebra, members)
            kept = unit_segment(tuple(u[j] for j in zf))
            image = tuple(kept.index[tuple(x[j] for j in zf)] for x in segment.elements)
            projection = MVMorphism(algebra, kept.algebra, image)
            quotient_iso_ok = (
                check_morphism(projection).ok
                and projection.is_surjective()
                and {x for x, y in enumerate(image) if y == 0} == members
            )
            reports.append(SegmentIdealReport(zf, ideal_ok, quotient_iso_ok, spectrum_bijection_ok))
    return tuple(reports)


# -- maps between product groups -----------------------------------------------------


def gamma_restriction(
    phi: Callable[[GroupElement], GroupElement],
    dom_segment: GammaSegment,
    cod_segment: GammaSegment,
) -> MVMorphism:
    """Restrict a unital group map to the unit segments, as an index map."""
    index = []
    for x in dom_segment.elements:
        y = phi(x)
        if y not in cod_segment.index:
            raise ValueError("map does not carry the segment into the target segment")
        index.append(cod_segment.index[y])
    return MVMorphism(dom_segment.algebra, cod_segment.algebra, tuple(index))


# -- commuting squares ------------------------------------------------------------


class CommuteReport(NamedTuple):
    """Verdict on one commuting square.

    The iota square is checked on every carrier element.  The composition
    and evaluation squares compare coordinatewise maps fiber by fiber, and
    their verdict holds on the whole product group (`_routes_agree`).
    `checked` counts the comparisons made, through the failing one on
    failure: carrier elements, or single-fiber values for the squares of
    maps, or 0 when a segment restriction is not a morphism.  `failure` is
    (x, lhs, rhs), the two routes differing at an input x, or
    ("restriction", map).
    """

    ok: bool
    checked: int
    failure: tuple | None = None


def _routes_agree(lhs: LGroupMap, rhs: LGroupMap) -> CommuteReport:
    """Do two coordinatewise maps out of the same domain agree on all of it?

    Output fiber k is f(x[a]) on the left and g(x[b]) on the right, with a
    and b the input fibers read.  Let L be the lcm of the periods of f and
    g: when s grows by L, each gains a fixed amount.  If a == b, they agree
    on ℤ exactly when they agree on [0, L].  If a != b, x[a] and x[b] vary
    independently, so they agree exactly when f and g are constant and
    equal: f(p) = g(0) and f(0) = g(q) for p and q in [0, L], which holds a
    whole period of each and its step.  A failing probe is extended by zero
    to an input x, at which both whole maps are evaluated.
    """
    zero = lhs.dom.zero
    compared = 0
    for a, b, f, g in zip(lhs.source_fiber, rhs.source_fiber, lhs.fiber_maps, rhs.fiber_maps):
        span = range(math.lcm(f.period, g.period) + 1)
        probes = [(a, s) for s in span] + ([(b, s) for s in span] if a != b else [])
        for i, s in probes:
            compared += 1
            if f(s if i == a else 0) != g(s if i == b else 0):
                x = zero[:i] + (s,) + zero[i + 1 :]
                return CommuteReport(ok=False, checked=compared, failure=(x, lhs(x), rhs(x)))
    return CommuteReport(ok=True, checked=compared)


def iota_naturality(hom: MVMorphism) -> CommuteReport:
    """The two routes carrier -> codomain ambient agree on every element:
    through the morphism then iota, or through iota then the star map.
    """
    sm = star_morphism(hom)
    dom_star, cod_star = star_algebra(hom.dom), star_algebra(hom.cod)
    for a in range(hom.dom.size):
        via_star = sm(dom_star.a_circle[a])
        via_hom = cod_star.a_circle[hom.map[a]]
        if via_star != via_hom:
            return CommuteReport(ok=False, checked=a + 1, failure=(a, via_star, via_hom))
    return CommuteReport(ok=True, checked=hom.dom.size)


def star_functoriality(first: MVMorphism, then: MVMorphism) -> CommuteReport:
    """Star of a composite equals the composite of the stars.

    All three star maps are coordinatewise, so the square is checked one
    output fiber at a time: fiber k of the composite's star must agree with
    the composite fiber map of the two stars, on all of ℤ.
    """
    sm_first = star_morphism(first)
    sm_then = star_morphism(then)
    sm_both = star_morphism(compose(first, then))
    return _routes_agree(sm_both, sm_first.then(sm_then))


def upsilon_naturality(phi: LGroupMap) -> CommuteReport:
    """The square relating a group map to the star of its segment restriction.

    Both routes from the domain star ambient to the codomain group must
    agree: evaluate then map, or star-map then evaluate.  All three maps
    are coordinatewise, so the square is checked one codomain fiber j at a
    time, on all of ℤ.
    """
    if not phi.unital:
        raise ValueError("the square is stated for unit-preserving maps")
    dom_segment, dom_evaluation = _evaluation(phi.dom)
    cod_segment, cod_evaluation = _evaluation(phi.cod)
    restricted = gamma_restriction(phi, dom_segment, cod_segment)
    if not check_morphism(restricted).ok:
        return CommuteReport(ok=False, checked=0, failure=("restriction", restricted.map))
    sm = star_morphism(restricted)
    return _routes_agree(dom_evaluation.then(phi), sm.then(cod_evaluation))


# -- free-presentation experiment -----------------------------------------------------


class SNFReport(NamedTuple):
    """Invariant factors of the pairwise-relation quotient vs. the star group.

    `free_factors` presents the quotient of the free abelian group on the
    carrier by the rows e_a + e_b - e_{a(+)b} - e_{a(.)b} (plus e_0 when
    `identify_zero`); `star_factors` presents the subgroup of the linearized
    ambient generated by a_circle.  Two finitely generated abelian groups are
    isomorphic exactly when these lists are equal.
    """

    size: int
    identify_zero: bool
    relation_rows: int
    spectrum_size: int
    free_factors: tuple[int, ...]
    star_factors: tuple[int, ...]

    @property
    def isomorphic(self) -> bool:
        return self.free_factors == self.star_factors


def free_quotient_experiment(
    algebra: FiniteMVAlgebra, identify_zero: bool = True
) -> SNFReport:
    """Compare the pairwise-relation presentation with the actual star group.

    The relation rows say that the pair (a, b) may be replaced by the pair
    (a(+)b, a(.)b) without changing the sum.  Read through the chain
    decomposition, a product of k chains of heights n_i, each row lies in the
    kernel of the map E sending e_x to the coordinates of x, since
    min(n, p+q) + max(0, p+q-n) = p + q in each chain (Mundici 1986); one
    pass over a <= b checks it (both operations commute, so row (b, a) is
    row (a, b)) and counts the nonzero rows over ordered pairs.  The rows
    span that kernel: with y one step below x in chain i, row (y, atom_i)
    is e_y + e_atom_i - e_x - e_0.  E is onto Z^k, so with e_0 the quotient
    is Z^k; without it, e_x -> 1 adds one more free generator.  The star
    side is measured apart: the rank of the iota images, through the
    spectrum and its quotients.  A ValueError names a table with no
    decomposition, as every table that fails the MV laws is.
    """
    found = chain_decomposition(algebra)
    if found is None:
        raise ValueError(
            "free_quotient_experiment: the algebra fails the MV laws (no chain decomposition)"
        )
    (f, heights), n = found, algebra.size
    # coordinates as one integer in radix 2n: a sum of two carries nothing,
    # so sums compare coordinatewise
    code = [0] * n
    for x, k in zip(f, itertools.product(*(range(h + 1) for h in heights))):
        code[x] = sum(c * (2 * n) ** i for i, c in enumerate(k))
    relation_rows = int(identify_zero)  # the e_0 row
    for a, (plus, times) in enumerate(zip(algebra.oplus, algebra.odot)):
        for b in range(a, n):
            p, q = plus[b], times[b]
            if code[a] + code[b] != code[p] + code[q]:
                raise InternalInvariantError(f"relation row ({a}, {b}) is outside the kernel")
            if {a, b} != {p, q}:
                relation_rows += 1 if a == b else 2
    star = star_algebra(algebra)
    return SNFReport(
        size=n,
        identify_zero=identify_zero,
        relation_rows=relation_rows,
        spectrum_size=len(star.spec.primes),
        free_factors=(0,) * (len(heights) + (not identify_zero)),
        star_factors=(0,) * matrix_rank([list(x) for x in star.a_circle]),
    )
