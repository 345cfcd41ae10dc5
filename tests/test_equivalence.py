"""Round-trip layer: star algebras, good sequences, evaluation maps, SNF."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgamma.equivalence import (
    FiberMap,
    GoodSequence,
    LGroupMap,
    SegmentIdealReport,
    canonical_entries,
    canonical_good_sequence,
    chain_scaling,
    coordinate_ideal_checks,
    free_quotient_experiment,
    gamma_restriction,
    generated_membership,
    good_sequence_sum,
    iota_naturality,
    iota_roundtrip,
    is_good_sequence,
    star_algebra,
    star_functoriality,
    star_morphism,
    upsilon,
    upsilon_naturality,
)
import fiber_oracles
import mvgamma.equivalence as eq
import mvgamma.lgroup as lgroup
from mvgamma import interp, snf
from mvgamma.interp import RunConfig, execute
from mvgamma.script import parse_script
from fiber_oracles import (
    UpsilonMap,
    fiber_certificate_on_window,
    members_match_by_membership,
    segment_generation_check,
    window,
)
from test_mv_core import chain_product, relabelled, reversed_copy, with_reversed_copies
from smith_oracle import dense_factors, factors_of, relation_diagonal, relation_matrix
from mvgamma.errors import InternalInvariantError
from mvgamma.lgroup import (
    ChangChainGroup,
    ProductLuGroup,
    gamma_segment,
    make_product_group,
    unit_segment,
)
from mvgamma.mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    chain_decomposition,
    check_morphism,
    check_mv_axioms,
    compose,
    find_morphisms,
    make_chain,
    make_product,
)
from mvgamma.spectrum import (
    Ideal,
    class_values,
    ideal_violations,
    preimage_ideal,
    quotient,
    restrict_morphism,
)
from congruence_oracles import extension, prime_alignment
from mvgamma.sweeps import (
    SweepContext,
    generated_algebras,
    group_shapes,
    suite_general_roundtrip,
    suite_good_sequences,
)


def z_group(u_phi):
    """The integers as a one-fiber product group, unit at height u_phi."""
    f = ChangChainGroup(make_chain(1))
    return make_product_group([f], [(u_phi, 0)])


def z2_group(u0, u1):
    f = ChangChainGroup(make_chain(1))
    return make_product_group([f, f], [(u0, 0), (u1, 0)])


# -- star of a chain and of a morphism --


def chain_star_map(h):
    return extension(h, ChangChainGroup(h.dom), ChangChainGroup(h.cod))


def test_star_chain_is_the_pair_group():
    chain = make_chain(3)
    star = star_algebra(chain)
    (g,) = star.ambient.fibers
    assert g == ChangChainGroup(chain)
    assert g.height == 3 and star.ambient.u == (3,)


def pair_star(h, t):
    """Oracle: the star map on carry pairs, (m, a) -> (m, h(a))."""
    m, a = ChangChainGroup(h.dom).pair_of_phi(t)
    return ChangChainGroup(h.cod).phi((m, h.map[a]))


def test_chain_star_map_doubles_the_integers():
    # the embedding of the two-element chain into the three-element one
    h = MVMorphism(make_chain(1), make_chain(2), (0, 2))
    assert check_morphism(h).ok
    hs = chain_star_map(h)
    assert hs == FiberMap(1, 2, (0,))
    for t in range(-4, 5):
        assert hs(t) == 2 * t == pair_star(h, t)


def test_chain_star_map_preserves_structure_on_a_window():
    h = MVMorphism(make_chain(2), make_chain(4), (0, 2, 4))
    hs = chain_star_map(h)
    win = range(-6, 7)
    for s in win:
        assert hs(s) == pair_star(h, s)
        assert hs(-s) == -hs(s)
        for t in win:
            assert hs(s + t) == hs(s) + hs(t)
            assert (s <= t) == (hs(s) <= hs(t))


def test_chain_star_maps_match_the_pair_rule():
    # and the package's closed form is that map, or None with no morphism
    total = 0
    for n, n2 in itertools.product(range(1, 5), repeat=2):
        homs = find_morphisms(make_chain(n), make_chain(n2))
        assert chain_scaling(n, n2) == (chain_star_map(homs[0]) if homs else None)
        for h in homs:
            hs = chain_star_map(h)
            assert [hs(t) for t in range(-3 * n, 3 * n + 1)] == [
                pair_star(h, t) for t in range(-3 * n, 3 * n + 1)
            ]
            total += 1
    assert total == 8


def reversed_chain(n):
    """The chain of height n with the carrier above 0 listed top first, so
    that carrier index and rank differ (label n - r + 1 for rank r > 0)."""
    label = [0, *range(n, 0, -1)]  # label[r] is the label of rank r
    rank = [0] * (n + 1)
    for r, x in enumerate(label):
        rank[x] = r
    c = make_chain(n)
    oplus = [[label[c.oplus[rank[x]][rank[y]]] for y in range(n + 1)] for x in range(n + 1)]
    return FiniteMVAlgebra(n + 1, oplus, [label[c.neg[rank[x]]] for x in range(n + 1)])


def test_chain_star_maps_read_ranks_not_carrier_indices():
    # every chain the package builds lists its carrier in rank order, so only
    # a relabelled chain shows whether the extension goes through the ranks
    total = 0
    for n, n2 in [(2, 2), (2, 4), (3, 3), (1, 3)]:
        chains = [(make_chain(n), reversed_chain(n2)), (reversed_chain(n), make_chain(n2))]
        for dom, cod in chains + [(reversed_chain(n), reversed_chain(n2))]:
            for h in find_morphisms(dom, cod):
                hs = chain_star_map(h)
                window = range(-3 * n, 3 * n + 1)
                assert [hs(t) for t in window] == [pair_star(h, t) for t in window]
                total += 1
    assert total == 12


def test_star_chain_morphism_rejects_non_chains():
    square = make_product(make_chain(1), make_chain(1))
    with pytest.raises(ValueError, match="not totally ordered"):
        ChangChainGroup(square)


# -- star algebras --


def test_star_of_a_chain_has_one_fiber():
    a = make_chain(3)
    star = star_algebra(a)
    assert len(star.spec) == 1
    assert star.ambient.k == 1
    assert star.ambient.u == (3,)
    # the top class has rank 3: one whole copy, the carry pair (1, 0)
    assert star.a_circle == ((0,), (1,), (2,), (3,))
    assert star.injective


def test_star_of_a_product_splits_into_fibers():
    a = make_product(make_chain(2), make_chain(3))
    star = star_algebra(a)
    assert star.ambient.k == 2
    assert {f.height for f in star.ambient.fibers} == {2, 3}
    assert star.ambient.u == tuple(f.height for f in star.ambient.fibers)
    assert star.injective
    assert star.a_circle[0] == star.ambient.zero
    # the box [0, u] has exactly one slot per carrier element
    assert len(set(star.a_circle)) == a.size


def test_star_is_shared_between_equal_algebras():
    a = make_product(make_chain(1), make_chain(2))
    b = make_product(make_chain(1), make_chain(2))
    assert a is b
    assert star_algebra(a) is star_algebra(b)
    assert star_algebra(make_chain(3)) is not star_algebra(a)


def test_star_fibers_follow_spectrum_order():
    a = make_product(make_chain(1), make_chain(2))
    star = star_algebra(a)
    for q, f in zip(star.quotients, star.ambient.fibers):
        assert f.chain == q.quotient


# -- canonical entries and good sequences --


def expand(runs) -> tuple:
    """Runs (count, entry) written out entry by entry."""
    return tuple(e for n, e in runs for _ in range(n))


def test_canonical_entries_integers_frozen():
    g = z_group(2)
    runs = canonical_entries(g.u, (5,))
    assert runs == ((2, (2,)), (1, (1,)))
    assert expand(runs) == ((2,), (2,), (1,))


def test_canonical_entries_two_fibers_frozen():
    g = z2_group(1, 2)
    runs = canonical_entries(g.u, (1, 3))
    assert runs == ((1, (1, 2)), (1, (0, 1)))
    assert expand(runs) == ((1, 2), (0, 1))


def test_canonical_entries_reject_negatives():
    g = z_group(2)
    with pytest.raises(ValueError):
        canonical_entries(g.u, (-1,))


def peeled_entries(group, x):
    """Oracle: peel x >= 0 one unit at a time, splitting off u meet rest
    until nothing is left."""
    entries = []
    rest = x
    while rest != group.zero:
        a = group.meet(group.u, rest)
        entries.append(a)
        rest = group.sub(rest, a)
    return tuple(entries)


@st.composite
def groups_and_nonnegatives(draw):
    """1-3 fibers over chains of height 1-4, units with copy index up to 3
    (above 1 included), and x >= 0 with copy index up to 10^4 per fiber."""
    fibers, unit, x = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        f = ChangChainGroup(make_chain(draw(st.integers(min_value=1, max_value=4))))
        fibers.append(f)
        unit.append(f.pair_of_phi(draw(st.integers(min_value=1, max_value=4 * f.height - 1))))
        copies = draw(st.integers(min_value=0, max_value=10**4))
        x.append(copies * f.height + draw(st.integers(min_value=0, max_value=f.height - 1)))
    return make_product_group(fibers, unit), tuple(x)


@settings(max_examples=60, deadline=None)
@given(groups_and_nonnegatives())
@example((z_group(2), (0,)))
@example((z2_group(2, 3), (10**4, 0)))
def test_canonical_entries_match_the_peel(case):
    g, x = case
    runs = canonical_entries(g.u, x)
    assert expand(runs) == peeled_entries(g, x)
    # maximal runs, at most two per fiber
    assert all(n >= 1 for n, _ in runs)
    assert all(a != b for (_, a), (_, b) in zip(runs, runs[1:]))
    assert len(runs) <= 2 * g.k


def test_run_count_is_independent_of_the_copy_index(monkeypatch):
    g = make_product_group(
        [ChangChainGroup(make_chain(h)) for h in (1, 2, 3)], [(2, 0), (1, 1), (2, 0)]
    )
    assert g.u == (2, 3, 6)

    def shape(b):
        """x with copy indices b, 2b, 3b and nonzero remainders, and its runs:
        fiber t changes at n_t and at n_t + 1, so all 2k runs occur."""
        x = (2 * b + 1, 6 * b + 2, 18 * b + 5)
        runs = (
            (b, (2, 3, 6)),
            (1, (1, 3, 6)),
            (b - 1, (0, 3, 6)),
            (1, (0, 2, 6)),
            (b - 1, (0, 0, 6)),
            (1, (0, 0, 5)),
        )
        return x, runs

    x, runs = shape(3)
    assert canonical_entries(g.u, x) == runs
    assert expand(runs) == peeled_entries(g, x)
    big = 10**100
    x, runs = shape(big)
    assert canonical_entries(g.u, x) == runs and len(runs) == 2 * g.k
    # membership of a 10^100 element with both halves nonzero, in process:
    # each distinct entry is looked up once and the runs re-add to y
    y = (x[0], -x[1], x[2])
    w = generated_membership(g, gamma_segment(g).index, y)
    assert w.member and w.missing is None
    assert w.positive == canonical_entries(g.u, (x[0], 0, x[2]))
    assert w.negative == ((2 * big, (0, 3, 0)), (1, (0, 2, 0)))
    # the re-add check is in force at this size: one count off by one is caught
    real = eq.canonical_entries

    def off_by_one(u, z):
        (n, e), *rest = real(u, z)
        return ((n + 1, e), *rest)

    monkeypatch.setattr(eq, "canonical_entries", off_by_one)
    with pytest.raises(InternalInvariantError, match="re-add"):
        generated_membership(g, gamma_segment(g).index, y)


def test_canonical_good_sequence_indices():
    g = z_group(2)
    seg = gamma_segment(g)
    gs = canonical_good_sequence(seg, (5,))
    assert gs.runs == ((2, 2), (1, 1))
    assert gs.entries == (2, 2, 1)
    assert good_sequence_sum(seg, gs.runs) == (5,)
    assert canonical_good_sequence(seg, g.zero).runs == ()
    assert canonical_good_sequence(seg, g.zero).entries == ()


def test_good_sequence_law_rejects_bad_entries():
    a = make_chain(2)
    assert is_good_sequence(a, (2, 2, 1))
    assert not is_good_sequence(a, (1, 2))
    with pytest.raises(ValueError):
        is_good_sequence(a, (3,))
    with pytest.raises(ValueError):
        GoodSequence(a, ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        GoodSequence(a, ((1, 1), (1, 0)))
    # inside a run each entry absorbs itself: 2 (+) 2 = 2, but 1 (+) 1 = 2
    assert GoodSequence(a, ((10**100, 2), (1, 1))).runs == ((10**100, 2), (1, 1))
    with pytest.raises(ValueError):
        GoodSequence(a, ((2, 1),))
    with pytest.raises(ValueError):
        GoodSequence(a, ((0, 2), (1, 1)))
    with pytest.raises(ValueError):
        GoodSequence(a, ((1, 3),))


def test_canonical_sequence_is_the_unique_one():
    # brute-force all normalized law-abiding tuples over the segment carrier
    # and check each nonnegative window element has exactly one summing to it
    g = z2_group(1, 2)
    seg = gamma_segment(g)
    a = seg.algebra
    max_len = 3
    all_seqs = [()]
    for length in range(1, max_len + 1):
        for tup in itertools.product(range(a.size), repeat=length):
            if tup[-1] != 0 and is_good_sequence(a, tup):
                all_seqs.append(tup)
    by_sum = {}
    for s in all_seqs:
        by_sum.setdefault(good_sequence_sum(seg, [(1, e) for e in s]), []).append(s)
    checked = 0
    for x in window(g, 3):
        if not g.leq(g.zero, x):
            continue
        canon = canonical_good_sequence(seg, x).entries
        assert by_sum.get(x, []) == [canon]
        checked += 1
    assert checked > 10


# -- membership --


def test_membership_witness_difference_of_atoms():
    a = make_product(make_chain(1), make_chain(1))
    star = star_algebra(a)
    x = star.ambient.sub(star.a_circle[2], star.a_circle[1])
    w = generated_membership(star.ambient, star.circle_index, x)
    assert w.member and bool(w)
    ((n, p),), ((m, q),) = w.positive, w.negative
    assert n == m == 1
    assert {star.circle_index[p], star.circle_index[q]} == {1, 2}
    assert star.ambient.sub(p, q) == x


def test_membership_over_a_window_is_total_for_an_algebra():
    star = star_algebra(make_product(make_chain(1), make_chain(2)))
    for x in window(star.ambient, 3):
        assert generated_membership(star.ambient, star.circle_index, x).member


def test_non_member_against_a_proper_subalgebra():
    # inside the star of the three-element chain, only the images of the two
    # endpoints are allowed: the middle element is not generated by them
    star = star_algebra(make_chain(2))
    allowed = frozenset({star.a_circle[0], star.a_circle[2]})
    middle = star.a_circle[1]
    w = generated_membership(star.ambient, allowed, middle)
    assert not w.member
    assert w.missing == middle
    assert w.positive == ((1, middle),) and w.negative == ()


def test_segment_generation_check_counts():
    star = star_algebra(make_product(make_chain(1), make_chain(2)))
    report = segment_generation_check(star, bound=2)
    assert report.ok and report.failure is None
    assert report.checked == 5 * 9  # per-fiber windows 2*2+1 and 2*4+1


def generation_cases():
    """Every generated algebra up to 64 elements, a relabelled copy of each
    one above 2 elements, and products of 3 and 4 chains."""
    generated = generated_algebras(64)
    relabels = [relabelled(a, seed) for seed, a in enumerate(generated) if a.size > 2]
    products = [(1, 1, 1), (1, 2, 3), (2, 2, 1), (1, 1, 1, 1), (1, 2, 1, 1)]
    return generated + relabels + [chain_product(h) for h in products]


def test_window_walk_agrees_with_iota_onto_the_segment():
    # the box [0, u] holds the canonical entries of every x >= 0 and lies in
    # every window of bound >= 1: the walk passes exactly when iota is onto it
    for algebra in generation_cases():
        star = star_algebra(algebra)
        onto = iota_roundtrip(star).onto_segment
        assert onto
        for bound in (1, 2):
            assert segment_generation_check(star, bound).ok == onto


def test_members_match_agrees_with_the_membership_loop():
    # the closed form reads x's own canonical entries on [0, u]; the loop
    # runs the membership test on every segment element
    for algebra in generation_cases():
        star = star_algebra(algebra)
        assert iota_roundtrip(star).members_match
        assert members_match_by_membership(star)


@pytest.mark.parametrize("heights", [(2,), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("dropped", [0, 1])
def test_members_match_agrees_on_a_star_missing_one_box_element(heights, dropped):
    # without a nonzero box element the test fails on it and it is outside
    # a_circle, so both still match; without 0, which the test always
    # passes, both fail
    star = star_algebra(chain_product(heights))
    gone = star.a_circle[dropped]
    mutant = star._replace(
        circle_index={x: a for x, a in star.circle_index.items() if x != gone}
    )
    closed_form = iota_roundtrip(mutant).members_match
    assert closed_form == members_match_by_membership(mutant) == (dropped != 0)


@pytest.mark.parametrize("heights", [(2,), (1, 2), (1, 1, 1)])
def test_a_star_missing_one_box_element_generates_no_window(monkeypatch, heights):
    # drop one nonzero box element from circle_index (0 has no canonical
    # entries, and iota(0) = 0 in every real star): the walk, onto_segment
    # and the roundtrip command's window_generated all turn False
    star = star_algebra(chain_product(heights))
    dropped = star.a_circle[1]
    mutant = star._replace(
        circle_index={x: a for x, a in star.circle_index.items() if x != dropped}
    )
    report = iota_roundtrip(mutant)
    assert not report.onto_segment and not report.holds
    for bound in (1, 2):
        walk = segment_generation_check(mutant, bound)
        assert not walk.ok and walk.failure is not None
    monkeypatch.setattr(interp, "star_algebra", lambda algebra: mutant)
    text = "algebra A = " + " * ".join(f"chain {h}" for h in heights) + "\nroundtrip A\n"
    outcome = execute(parse_script(text)).as_json()["commands"][0]
    assert outcome["status"] == "fail"
    assert outcome["detail"]["window_generated"] is False


# -- iota round trip --


@pytest.mark.parametrize(
    "algebra",
    [
        make_chain(1),
        make_chain(4),
        make_product(make_chain(1), make_chain(2)),
        make_product(make_chain(2), make_chain(3)),
        make_product(make_chain(1), make_product(make_chain(1), make_chain(1))),
    ],
)
def test_iota_roundtrip_holds(algebra):
    report = iota_roundtrip(star_algebra(algebra))
    assert report.injective and report.onto_segment
    assert report.is_morphism and report.members_match
    assert report.holds
    assert report.checked == algebra.size


# -- star of a morphism and naturality --


def test_star_morphism_of_a_projection():
    a = make_product(make_chain(1), make_chain(2))
    b = make_chain(2)
    # second projection: carrier index -> its residue mod the second chain
    proj = MVMorphism(a, b, tuple(i % 3 for i in range(a.size)))
    assert check_morphism(proj).ok
    sm = star_morphism(proj)
    assert len(sm.fiber_maps) == 1
    assert isinstance(sm, LGroupMap)
    assert sm.dom == star_algebra(a).ambient and sm.cod == star_algebra(b).ambient
    assert sm.unital
    report = iota_naturality(proj)
    assert report.ok and report.checked == a.size


def test_star_morphism_fiber_maps_match_restrict_morphism():
    # every fiber of every star morphism against the congruence route: the
    # morphism induced on the quotients by the prime and its preimage, read
    # through both chains' ranks; the reversed copies have decompositions
    # that are no identity, so a misread permutation shows here
    algebras = with_reversed_copies(generated_algebras(12))
    total = fibers = 0
    for dom, cod in itertools.product(algebras, repeat=2):
        dom_star, cod_star = star_algebra(dom), star_algebra(cod)
        for h in find_morphisms(dom, cod):
            sm = star_morphism(h)
            assert iota_naturality(h).ok
            for j, prime in enumerate(cod_star.spec.primes):
                i = sm.source_fiber[j]
                assert dom_star.spec.primes[i] == preimage_ideal(h, prime)
                induced = restrict_morphism(h, prime)
                dom_fiber, cod_fiber = dom_star.ambient.fibers[i], cod_star.ambient.fibers[j]
                assert (induced.dom, induced.cod) == (dom_fiber.chain, cod_fiber.chain)
                assert sm.fiber_maps[j] == extension(induced, dom_fiber, cod_fiber)
                fibers += 1
            total += 1
    assert (len(algebras), total, fibers) == (29, 641, 947)


def test_iota_naturality_for_all_small_homs():
    pairs = [
        (make_chain(1), make_chain(2)),
        (make_chain(2), make_chain(4)),
        (make_chain(2), make_product(make_chain(2), make_chain(2))),
        (make_product(make_chain(1), make_chain(1)), make_chain(1)),
    ]
    total = 0
    for dom, cod in pairs:
        for h in find_morphisms(dom, cod):
            assert iota_naturality(h).ok
            total += 1
    assert total >= 5


def test_star_functoriality_on_a_chain_tower():
    h1 = MVMorphism(make_chain(1), make_chain(2), (0, 2))
    h2 = MVMorphism(make_chain(2), make_chain(4), (0, 2, 4))
    report = star_functoriality(h1, h2)
    # one output fiber of period 1: its values at 0 and 1 decide it on all of ℤ
    assert report.ok and report.checked == 2
    composite = star_morphism(h1).then(star_morphism(h2))
    assert composite.fiber_maps == star_morphism(compose(h1, h2)).fiber_maps
    assert composite.fiber_maps == (FiberMap(1, 4, (0,)),)


def test_star_functoriality_through_a_product():
    a = make_product(make_chain(1), make_chain(1))
    proj = MVMorphism(a, make_chain(1), (0, 0, 1, 1))
    emb = MVMorphism(make_chain(1), make_chain(3), (0, 3))
    assert check_morphism(proj).ok and check_morphism(emb).ok
    assert star_functoriality(proj, emb).ok


# -- upsilon --


def test_upsilon_map_frozen_values():
    g = z_group(3)
    _, ev = eq._evaluation(g)
    assert ev.fiber_maps == (FiberMap(3, 3, (0, 1, 2)),)
    assert ev.source_fiber == (0,)
    star = ev.dom
    assert ev(star.from_pairs([(1, 2)])) == (5,)
    assert ev(star.from_pairs([(0, 0)])) == g.zero
    assert ev(star.from_pairs([(1, 0)])) == g.u
    assert ev(star.from_pairs([(-1, 2)])) == (-1,)


def test_upsilon_inverse_chain_frozen():
    # on a chain fiber the inverse of evaluation is one divmod by the unit
    # coordinate, and the (copy, rank) pair goes back through the fiber map
    g = z_group(3)
    _, _, ((fm, lift_by_rank),) = eq._segment_lifts(g.u)
    for x, nr in ((5, (1, 2)), (-1, (-1, 2)), (0, (0, 0)), (6, (2, 0))):
        assert divmod(x, 3) == nr
        n, r = nr
        assert fm(n * fm.period + lift_by_rank.index(r)) == x
    # the unit is validated once, where the division is used
    with pytest.raises(ValueError, match="strictly positive"):
        canonical_entries((0,), (1,))


def test_division_by_the_unit_at_a_huge_copy_index():
    # the evaluation of a fiber is inverted by one divmod by its unit
    # coordinate, exact at any integer size
    for unit in ((1, 0), (1, 1), (2, 1)):
        g = make_product_group([ChangChainGroup(make_chain(2))], [unit])
        (up,) = g.u
        _, _, ((fm, lift_by_rank),) = eq._segment_lifts(g.u)
        for n in (10**100, -(10**100)):
            for r in range(up):
                assert divmod(n * up + r, up) == (n, r)
                assert fm(n * fm.period + lift_by_rank.index(r)) == n * up + r


def inverse_by_linear_search(f: ChangChainGroup, u, x, steps=1000):
    """Oracle: on carry pairs, step n one unit at a time until
    n·u <= x < (n+1)·u; returns n and the remainder x - n·u as a pair.
    A broken carry rule may never satisfy the bracket, so the search gives
    up after `steps` units."""
    n = 0
    while not f.leq(f.mul(n, u), x):
        n -= 1
        assert n > -steps, "the linear search found no lower bracket"
    while f.leq(f.mul(n + 1, u), x):
        n += 1
        assert n < steps, "the linear search found no upper bracket"
    return n, f.add(x, f.neg(f.mul(n, u)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-300, max_value=300),
)
def test_upsilon_inverse_chain_matches_linear_search(n, unit_steps, t):
    # the inverse of evaluation on one chain fiber is division by the unit
    # coordinate, divmod, with the remainder in [0, unit)
    f = ChangChainGroup(make_chain(n))
    x = t * unit_steps // 3
    q, r = inverse_by_linear_search(f, f.pair_of_phi(unit_steps), f.pair_of_phi(x))
    assert divmod(x, unit_steps) == (q, f.phi(r))


def test_upsilon_inverse_matches_the_map():
    f = ChangChainGroup(make_chain(2))
    g = make_product_group([f], [(1, 1)])
    (up,) = g.u
    _, _, ((fm, lift_by_rank),) = eq._segment_lifts(g.u)
    for x in range(-4 * up, 4 * up + 1):
        n, r = divmod(x, up)
        assert n * up + r == x
        # feeding (n, the rank that lifts to r) back through the fiber map recovers x
        assert fm(n * fm.period + lift_by_rank.index(r)) == x


@pytest.mark.parametrize(
    "fibers,u",
    [
        ([1], [(3, 0)]),
        ([1, 1], [(1, 0), (2, 0)]),
        ([2], [(1, 1)]),
        ([2, 3], [(1, 0), (0, 2)]),
        ([1, 2, 2], [(2, 0), (0, 1), (1, 0)]),
    ],
)
def test_upsilon_certificate_holds(fibers, u):
    g = make_product_group([ChangChainGroup(make_chain(n)) for n in fibers], u)
    result = upsilon(g.u)
    assert result.additive
    assert result.order_embedding
    assert result.preserves_unit
    assert result.segment_identity
    assert result.surjective
    assert result.box_is_circle
    assert result.holds


def upsilon_by_peeling(group, window):
    """Oracle: the earlier `upsilon` body, which rebuilt each surjectivity
    target from the peeled entries of its two halves, summed as carry pairs
    in the star fiber, and compared the segment identity on the product.
    Returns the six verdicts and the window size, in `UpsilonResult` field
    order."""
    um = UpsilonMap(group)
    seg = um.segment
    star_amb = um.star.ambient
    additive = True
    order_embedding = True
    preserves_unit = True
    surjective = True
    window_elements = 1
    for t, sf in enumerate(star_amb.fibers):
        uj = group.u[t]
        inner = range(-window * sf.height, window * sf.height + 1)
        outer = range(-2 * window * sf.height, 2 * window * sf.height + 1)
        table = {x: um.fiber_value(t, x) for x in outer}
        for x in inner:
            for y in inner:
                if table[x + y] != table[x] + table[y]:
                    additive = False
        prev = None
        for x in inner:  # ascending
            v = table[x]
            if prev is not None and not prev < v:
                order_embedding = False
            prev = v
        if table[sf.height] != uj or table[0] != 0:
            preserves_unit = False
        value_class = {v: c for c, v in enumerate(um.lifts[t])}
        targets = range(-window * uj, window * uj + 1)
        window_elements *= len(targets)
        for v in targets:
            acc = sf.pair_of_phi(0)
            for half, sign in ((max(v, 0), 1), (max(-v, 0), -1)):
                rest = half
                while rest != 0:
                    e = min(uj, rest)
                    rest -= e
                    entry = sf.pair_of_phi(sf.phi((0, value_class[e])))
                    acc = sf.add(acc, entry if sign > 0 else sf.neg(entry))
            if um.fiber_value(t, sf.phi(acc)) != v:
                surjective = False
    segment_identity = all(
        um.evaluation(um.star.a_circle[i]) == seg.elements[i]
        for i in range(seg.algebra.size)
    )
    box_size = 1
    for f in star_amb.fibers:
        box_size *= f.height + 1
    box_is_circle = um.star.injective and len(um.star.a_circle) == box_size
    return (
        additive,
        order_embedding,
        preserves_unit,
        segment_identity,
        surjective,
        box_is_circle,
        window_elements,
    )


def roundtrip_details(groups, window):
    """The `roundtrip` detail of each group, from one script run at the window."""
    lines = []
    for i, g in enumerate(groups):
        sizes = [f.height + 1 for f in g.fibers]
        unit = ", ".join(str(tuple(p)) for p in g.to_pairs(g.u))
        lines += [f"group G{i} = fibers {sizes} unit [{unit}]", f"roundtrip G{i}"]
    report = execute(parse_script("\n".join(lines)), RunConfig(window=window))
    return [c["detail"] for c in report.as_json()["commands"]]


@pytest.mark.parametrize("window", [1, 2, 3])
def test_upsilon_matches_the_peeling_body(window):
    # the six verdicts hold on the whole group, so they match the peeling
    # body at every window; the window count is the one `roundtrip` reports
    groups = [SweepContext.group(c, h) for c, h in group_shapes(2, 3, 2)]
    for g, detail in zip(groups, roundtrip_details(groups, window), strict=True):
        *verdicts, window_elements = upsilon_by_peeling(g, window)
        assert tuple(upsilon(g.u)) == tuple(verdicts)
        assert detail == {**upsilon(g.u)._asdict(), "window_elements": window_elements}


def additive_by_pairs(f, window):
    """The pairwise additivity check: every pair of the window of a fiber
    map f, read off the doubled-window table."""
    h = f.period
    inner = range(-window * h, window * h + 1)
    table = {s: f(s) for s in range(-2 * window * h, 2 * window * h + 1)}
    return all(table[s + t] == table[s] + table[t] for s in inner for t in inner)


def fiber_data(group):
    """(evaluation fiber map, lift in rank order, unit coordinate) for each
    fiber of the group."""
    return [(fm, lift, up) for (fm, lift), up in zip(eq._segment_lifts(group.u)[2], group.u)]


@pytest.mark.parametrize("window", [1, 2, 3])
def test_linearity_matches_pairwise_additivity(window):
    for chains, heights in group_shapes(2, 3, 2):
        for fm, lift, up in fiber_data(SweepContext.group(chains, heights)):
            certificate = eq._fiber_certificate(fm, lift, up)
            assert certificate[0] == additive_by_pairs(fm, window)


@st.composite
def fiber_map_and_lift(draw):
    """A `FiberMap` of period 1..6 and step 1..8 with any table, or an
    evaluation map (the identity of one period), a lift for each rank 0..h
    (its own values or random ones), and a unit coordinate (its step or a
    random one)."""
    h = draw(st.integers(1, 6))
    table = st.tuples(*[st.integers(-3, 12)] * h)
    f = draw(
        st.builds(FiberMap, st.just(h), st.integers(1, 8), table)
        | st.just(FiberMap(h, h, tuple(range(h))))
    )
    honest = tuple(f(r) for r in range(h + 1))
    lift = draw(st.just(honest) | st.tuples(*[st.integers(-1, 8)] * (h + 1)))
    return f, lift, draw(st.just(f.step) | st.integers(1, 8))


@settings(max_examples=500, deadline=None)
@given(fiber_map_and_lift())
@example((FiberMap(2, 2, (0, 1)), (0, 1, 2), 3))  # every residue hit, but a period gains 2
def test_certificate_matches_the_window_oracle(case):
    # one period and the residues of the unit decide what every window does
    for window in (1, 2, 3):
        assert eq._fiber_certificate(*case) == fiber_certificate_on_window(*case, window)[:5]


@pytest.mark.parametrize("window", [1, 2, 3])
def test_evaluation_fiber_maps_match_the_old_evaluation(window):
    # point by point on each star fiber's window, and the lifts in rank order
    for chains, heights in group_shapes(2, 3, 2):
        g = SweepContext.group(chains, heights)
        um = UpsilonMap(g)
        _, ev = eq._evaluation(g)
        for t, (fm, lift, _) in enumerate(fiber_data(g)):
            sf = um.star.ambient.fibers[t]
            assert lift == tuple(um.lifts[t][c] for c in sf.by_rank)
            points = range(-window * sf.height, window * sf.height + 1)
            assert [fm(s) for s in points] == [um.fiber_value(t, s) for s in points]
            assert ev.fiber_maps[t] is fm
        assert (ev.dom, ev.cod) == (um.star.ambient, g)


def table_entry_one_high(fm):
    """The value at rank 1 one step high, in every copy."""
    return fm._replace(table=fm.table[:1] + (fm.table[1] + 1,) + fm.table[2:])


def step_one_high(fm):
    """Each copy one step past the unit: f(h) = u_t + 1 overshoots the lift."""
    return fm._replace(step=fm.step + 1)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_additivity_mutant_fails_both_versions(window):
    # evaluation maps are plain `FiberMap` values, so their mutants are too
    for fm, lift, up in fiber_data(SweepContext.group((1, 2), (2, 2))):
        for bad in (table_entry_one_high(fm), step_one_high(fm)):
            assert not additive_by_pairs(bad, window)
            assert not fiber_certificate_on_window(bad, lift, up, window)[0]
            assert not eq._fiber_certificate(bad, lift, up)[0]
        bad = step_one_high(fm)  # f(h) = step + f(0): the unit check reads u_t
        assert not fiber_certificate_on_window(bad, lift, up, window)[2]
        assert not eq._fiber_certificate(bad, lift, up)[2]


def patch_fiber_data(monkeypatch, mutate):
    """Make `_segment_lifts` hand out mutate(fiber index, map, lift) after
    the lifts passed their own validation."""
    segment_lifts = eq._segment_lifts

    def patched(u):
        segment, star, fibers = segment_lifts(u)
        return segment, star, tuple(mutate(t, fm, lift) for t, (fm, lift) in enumerate(fibers))

    monkeypatch.setattr(eq, "_segment_lifts", patched)


def lift_off_by_one(monkeypatch):
    # rank 1 of fiber 0 lifts one step too high
    bump_lift(monkeypatch, 1)
    return upsilon_by_peeling


def lift_bottom_off_by_one(monkeypatch):
    # rank 0 of fiber 0 lifts one step too high: the top class, one whole
    # unit above rank 0, then evaluates one step above its lift, which the
    # segment identity checks on its own fiber
    bump_lift(monkeypatch, 0)
    return upsilon_by_peeling


def bump_lift(monkeypatch, r):
    """Bump the lift of rank r on fiber 0, in the package's fiber map and
    lift and in the oracle's class-order lift alike."""

    def bumped(t, fm, lift):
        if t == 0:
            lift = lift[:r] + (lift[r] + 1,) + lift[r + 1 :]
            fm = fm._replace(table=lift[:-1])
        return fm, lift

    patch_fiber_data(monkeypatch, bumped)
    init = UpsilonMap.__init__

    def bumped_oracle(self, group):
        init(self, group)
        c = self.star.ambient.fibers[0].by_rank[r]
        lift = self.lifts[0]
        self.lifts = (lift[:c] + (lift[c] + 1,) + lift[c + 1 :],) + self.lifts[1:]

    monkeypatch.setattr(UpsilonMap, "__init__", bumped_oracle)


def patch_evaluations(monkeypatch, mutate, bump):
    """Mutate every evaluation fiber map, in the package by value and in the
    oracle by bump(star fiber, s), the amount its evaluation gains at s."""
    patch_fiber_data(monkeypatch, lambda t, fm, lift: (mutate(fm), lift))
    evaluate = fiber_oracles.evaluate
    monkeypatch.setattr(
        fiber_oracles,
        "evaluate",
        lambda sf, up, lift, s: evaluate(sf, up, lift, s) + bump(sf, s),
    )
    return upsilon_by_peeling


def evaluation_table_entry_one_high(monkeypatch):
    return patch_evaluations(
        monkeypatch, table_entry_one_high, lambda sf, s: s % sf.height == 1
    )


def evaluation_step_one_high(monkeypatch):
    return patch_evaluations(monkeypatch, step_one_high, lambda sf, s: s // sf.height)


@pytest.mark.parametrize(
    "mutant",
    [
        lift_off_by_one,
        evaluation_table_entry_one_high,
        evaluation_step_one_high,
        lift_bottom_off_by_one,
    ],
)
def test_upsilon_mutants_fail_both_versions(mutant, monkeypatch, fresh_memos):
    g = SweepContext.group((1, 2), (2, 2))
    assert upsilon(g.u).holds
    fresh_memos()  # a verdict cached by the clean run would hide the mutant
    try:
        oracle = mutant(monkeypatch)
        assert not upsilon(g.u).holds
        try:
            oracle_verdicts = oracle(g, 2)
        except KeyError:  # the peel met an entry the mutated lift lost
            oracle_verdicts = None
        if oracle_verdicts is not None:
            assert not all(oracle_verdicts[:6])
        if mutant.__name__.startswith("evaluation_"):
            # a value mutant keeps every lift, so the peel runs through
            assert oracle_verdicts is not None
        if mutant is evaluation_step_one_high:
            # f(h) overshoots the group's unit coordinate
            assert not upsilon(g.u).preserves_unit
            assert oracle_verdicts is not None and not oracle_verdicts[2]
        if mutant is lift_bottom_off_by_one:
            # the segment identity itself fails, per fiber and on the product
            assert not upsilon(g.u).segment_identity
            assert oracle_verdicts is not None and not oracle_verdicts[3]
    finally:
        monkeypatch.undo()


def test_equal_fiber_data_share_one_certificate(fresh_memos):
    assert suite_general_roundtrip(SweepContext(16, 4)).ok
    assert eq._fiber_certificate.cache_info().hits > 0


def test_segment_lifts_miss_once_per_unit(fresh_memos):
    # upsilon and the good-sequence sums read only the unit, so each runs
    # once per unit and every further configuration is a hit; the sums run
    # on the 4 product units of two fibers and height at most 2, and on the
    # fiber units (1,), (2,) and (3,), once each
    ctx = SweepContext(16, 4)
    assert suite_general_roundtrip(ctx).ok
    assert suite_good_sequences(ctx).ok
    units = {ctx.group(c, h).u for c, h in ctx.group_configs()}
    assert eq._segment_lifts.cache_info().misses == len(units) == 39
    info = eq.upsilon.cache_info()
    assert (info.misses, info.hits) == (39, len(ctx.group_configs()) - 39)
    sums = eq.good_sequence_sums_hold.cache_info()
    assert (sums.misses, sums.misses + sums.hits) == (7, 67)


SEGMENT_UNITS = [
    u
    for k in (1, 2, 3)
    for u in itertools.product(range(1, 6), repeat=k)
    if math.prod(t + 1 for t in u) <= 400
]


def test_every_segment_is_its_own_product_of_chains():
    # the fact `_segment_lifts` checks and then relies on: the decomposition
    # of the segment of u is the identity with heights u, unsorted units too
    for u in SEGMENT_UNITS:
        algebra = unit_segment(u).algebra
        assert chain_decomposition(algebra) == (tuple(range(algebra.size)), u)
    assert len(SEGMENT_UNITS) == 155 and (3, 1, 2) in SEGMENT_UNITS


def relabelled_table(segment):
    """The segment with its table relabelled, labels 1..s-1 reversed, and
    its elements listed as before."""
    return segment._replace(algebra=reversed_copy(segment.algebra))


def heights_reversed(segment):
    """The segment of the unit read in reverse order."""
    return unit_segment(segment.u[::-1])


@pytest.mark.parametrize("mutate", [relabelled_table, heights_reversed])
def test_segment_lifts_require_the_identity_decomposition(mutate, monkeypatch, fresh_memos):
    # the lifts 0..u_t are read off the segment's decomposition being the
    # identity with heights u; a table listed in another order, or the
    # chains of another unit, must raise before any lift is handed out
    u = (2, 3)
    assert [lift for _, lift in eq._segment_lifts(u)[2]] == [(0, 1, 2), (0, 1, 2, 3)]
    fresh_memos()
    monkeypatch.setattr(eq, "unit_segment", lambda unit: mutate(unit_segment(unit)))
    with pytest.raises(InternalInvariantError, match="product of its unit's chains"):
        eq._segment_lifts(u)


def test_upsilon_matches_direct_product_window():
    # cross-check the per-fiber certificate against plain product iteration
    g = make_product_group(
        [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))],
        [(1, 0), (0, 1)],
    )
    _, um = eq._evaluation(g)
    amb = um.dom
    win = list(window(amb, 2))
    for x in win:
        for y in win:
            assert um(amb.add(x, y)) == g.add(um(x), um(y))
        assert um(amb.neg(x)) == g.neg(um(x))
    for x in win:
        for y in win:
            assert amb.leq(x, y) == g.leq(um(x), um(y))


# -- coordinate ideals --


def test_coordinate_ideal_frozen_example():
    g = z2_group(1, 2)
    seg = gamma_segment(g)
    zero_sets = seg.zero_sets
    # a direct scan: segment elements (0, t) and (s, 0)
    assert zero_sets == tuple(
        frozenset(i for i, x in enumerate(seg.elements) if x[j] == 0)
        for j in range(2)
    )
    assert [len(z) for z in zero_sets] == [3, 2]
    report = coordinate_ideal_checks(g.u)[0]
    assert report.zero_fibers == (0,)
    assert report.ideal_ok and report.quotient_iso_ok and report.spectrum_bijection_ok
    assert report.holds and seg.algebra.size == 6


def test_coordinate_ideals_all_subsets():
    g = make_product_group(
        [ChangChainGroup(make_chain(2)), ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))],
        [(0, 1), (1, 0), (1, 0)],
    )
    reports = coordinate_ideal_checks(g.u)
    expected = [zf for r in range(1, 4) for zf in itertools.combinations(range(3), r)]
    assert len(reports) == 2**3 - 1
    assert [r.zero_fibers for r in reports] == expected
    assert all(r.holds for r in reports)


def coordinate_ideals_per_group(group):
    """Oracle: the earlier per-group body, which scanned each fiber's zero
    set from the segment elements and reached each kept segment through a
    `ProductLuGroup` over the kept fibers."""
    segment = gamma_segment(group)
    algebra = segment.algebra
    zero_sets = tuple(
        frozenset(i for i, x in enumerate(segment.elements) if x[j] == 0)
        for j in range(group.k)
    )
    spectrum_bijection_ok = prime_alignment(algebra, zero_sets) is not None
    reports = []
    for r in range(1, group.k + 1):
        for zf in itertools.combinations(range(group.k), r):
            members = frozenset.intersection(*(zero_sets[j] for j in zf))
            ideal_ok = not ideal_violations(algebra, members)
            quotient_iso_ok = False
            if ideal_ok:
                q = quotient(algebra, Ideal(algebra, members))
                kept_segment = gamma_segment(
                    ProductLuGroup(
                        [group.fibers[j] for j in zf], tuple(group.u[j] for j in zf)
                    )
                )
                assignment = class_values(
                    q,
                    [kept_segment.index[tuple(x[j] for j in zf)] for x in segment.elements],
                )
                if assignment is not None:
                    restriction = MVMorphism(q.quotient, kept_segment.algebra, assignment)
                    quotient_iso_ok = bool(
                        check_morphism(restriction).ok
                        and restriction.is_injective()
                        and restriction.is_surjective()
                    )
            reports.append(
                SegmentIdealReport(
                    zero_fibers=zf,
                    ideal_ok=ideal_ok,
                    quotient_iso_ok=quotient_iso_ok,
                    spectrum_bijection_ok=spectrum_bijection_ok,
                )
            )
    return tuple(reports)


def test_coordinate_ideals_match_the_per_group_body():
    # every configuration of the acceptance sweep, and units whose
    # coordinates are no chain height
    groups = [SweepContext.group(c, h) for c, h in group_shapes(3, 4, 3)]
    groups += [
        make_product_group([ChangChainGroup(make_chain(n)) for n in chains], u)
        for chains, u in [
            ([2], [(2, 1)]),
            ([3, 1], [(2, 0), (3, 0)]),
            ([2, 4, 3], [(1, 1), (0, 3), (1, 0)]),
        ]
    ]
    for g in groups:
        assert coordinate_ideal_checks(g.u) == coordinate_ideals_per_group(g)
    assert len(groups) == 1887


def kept_unit_reversed(kept, u):
    """The kept unit read over the zero fibers in reverse order."""
    return kept if kept == u else kept[::-1]


def kept_unit_one_high(kept, u):
    """Every kept unit coordinate one step high."""
    return kept if kept == u else tuple(t + 1 for t in kept)


@pytest.mark.parametrize("mutate", [kept_unit_reversed, kept_unit_one_high])
def test_coordinate_ideal_mutants_fail_both_versions(mutate, monkeypatch, fresh_memos):
    g = SweepContext.group((1, 2, 3), (1, 2, 3))  # distinct unit coordinates
    assert all(r.holds for r in coordinate_ideal_checks(g.u))
    fresh_memos()  # the reports cached by the clean run would hide the mutant
    original = lgroup.unit_segment

    def mutated(kept):
        return original(mutate(kept, g.u))

    # the oracle reaches kept segments through gamma_segment, the unit key
    # directly; both now build the wrong one
    monkeypatch.setattr(lgroup, "unit_segment", mutated)
    monkeypatch.setattr(eq, "unit_segment", mutated)
    for check in (coordinate_ideal_checks, lambda u: coordinate_ideals_per_group(g)):
        if mutate is kept_unit_reversed:
            # the reversed box misses the element (1, 2) of the kept (0, 1)
            with pytest.raises(KeyError):
                check(g.u)
        else:
            reports = check(g.u)
            assert not any(r.quotient_iso_ok for r in reports[:-1])
            assert reports[-1].holds  # keeping every fiber keeps the unit


# -- group maps and the remaining square --


def swap_map(g):
    f = g.fibers[0]
    ident = MVMorphism(f.chain, f.chain, tuple(range(f.chain.size)))
    return LGroupMap(
        dom=g,
        cod=g,
        source_fiber=(1, 0),
        fiber_maps=(extension(ident, f, f), extension(ident, f, f)),
    )


def test_gamma_restriction_of_a_swap():
    g = z2_group(1, 1)
    phi = swap_map(g)
    assert phi.unital
    seg = gamma_segment(g)
    restricted = gamma_restriction(phi, seg, seg)
    assert check_morphism(restricted).ok
    assert sorted(restricted.map) == list(range(4))


def test_upsilon_naturality_swap():
    g = z2_group(1, 1)
    assert upsilon_naturality(swap_map(g)).ok


def test_upsilon_naturality_doubling():
    f1 = ChangChainGroup(make_chain(1))
    f2 = ChangChainGroup(make_chain(2))
    dom = make_product_group([f1], [(1, 0)])
    cod = make_product_group([f2], [(1, 0)])
    h = MVMorphism(make_chain(1), make_chain(2), (0, 2))
    phi = LGroupMap(dom, cod, source_fiber=(0,), fiber_maps=(extension(h, f1, f2),))
    assert phi.unital
    report = upsilon_naturality(phi)
    assert report.ok and report.checked > 0


def test_upsilon_naturality_rejects_non_unital():
    f1 = ChangChainGroup(make_chain(1))
    dom = make_product_group([f1], [(2, 0)])
    cod = make_product_group([f1], [(1, 0)])
    ident = MVMorphism(f1.chain, f1.chain, (0, 1))
    ident_map = extension(ident, f1, f1)
    phi = LGroupMap(dom=dom, cod=cod, source_fiber=(0,), fiber_maps=(ident_map,))
    assert not phi.unital
    with pytest.raises(ValueError):
        upsilon_naturality(phi)


# -- free-presentation experiment --


def test_free_quotient_two_element_chain():
    a = make_chain(1)
    kept = free_quotient_experiment(a, identify_zero=True)
    assert kept.free_factors == (0,)
    assert kept.star_factors == (0,)
    assert kept.isomorphic
    dropped = free_quotient_experiment(a, identify_zero=False)
    assert dropped.free_factors == (0, 0)
    assert dropped.star_factors == (0,)
    assert not dropped.isomorphic


def test_free_quotient_three_element_chain():
    report = free_quotient_experiment(make_chain(2))
    assert report.free_factors == (0,)
    assert report.star_factors == (0,)
    assert report.isomorphic


@pytest.mark.parametrize(
    "algebra,rank",
    [
        (make_chain(3), 1),
        (make_product(make_chain(1), make_chain(1)), 2),
        (make_product(make_chain(1), make_chain(2)), 2),
        (make_product(make_chain(2), make_chain(2)), 2),
    ],
)
def test_free_quotient_star_rank_is_the_spectrum_size(algebra, rank):
    report = free_quotient_experiment(algebra)
    assert report.star_factors == (0,) * rank
    assert report.spectrum_size == rank


def all_pairs_relations(algebra, identify_zero):
    """Oracle: invariant factors and row count of the relation matrix built
    over every ordered pair (a, b), as dense rows reduced by the dense
    oracle of `smith_oracle` alone."""
    n = algebra.size
    rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * n
            row[a] += 1
            row[b] += 1
            row[algebra.oplus[a][b]] -= 1
            row[algebra.odot[a][b]] -= 1
            if any(row):
                rows.append(row)
    if identify_zero:
        rows.append([1] + [0] * (n - 1))
    return tuple(dense_factors(rows, n)), len(rows)


def test_free_quotient_matches_all_pairs():
    cases = [(a, True) for a in generated_algebras(16)] + [(make_chain(1), False)]
    for algebra, identify_zero in cases:
        report = free_quotient_experiment(algebra, identify_zero=identify_zero)
        assert (report.free_factors, report.relation_rows) == all_pairs_relations(
            algebra, identify_zero
        )


def relation_oracle(algebra, identify_zero):
    """(free_factors, relation_rows) the way `freequotient` once found them:
    the dense reduction of the relation matrix over a <= b, and its nonzero
    rows counted over ordered pairs, so a row (a, b) with a < b counts twice."""
    n = algebra.size
    rows = relation_matrix(algebra, identify_zero)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    nonzero = sum(1 if a == b else 2 for (a, b), row in zip(pairs, rows) if any(row))
    return tuple(factors_of(relation_diagonal(algebra, identify_zero), n)), nonzero + identify_zero


def closed_form_matches(report, oracle):
    return (report.free_factors, report.relation_rows) == oracle


def oracle_cases():
    """generated_algebras(64), relabelled generated_algebras(24), and the
    products of 3 to 5 chains with at most 64 elements."""
    yield from generated_algebras(64)
    yield from (relabelled(a, seed) for seed, a in enumerate(generated_algebras(24)))
    for count in (3, 4, 5):
        for hs in itertools.combinations_with_replacement(range(1, 8), count):
            if math.prod(h + 1 for h in hs) <= 64:
                yield chain_product(hs)


def test_free_quotient_closed_form_matches_the_dense_oracle():
    for algebra in oracle_cases():
        for identify_zero in (True, False):
            report = free_quotient_experiment(algebra, identify_zero)
            assert closed_form_matches(report, relation_oracle(algebra, identify_zero))
            assert report.isomorphic == identify_zero


def test_free_quotient_rejects_an_odot_entry_off_by_one(monkeypatch):
    # every cell the pass reads (a <= b) of a three-chain product
    algebra = chain_product((2, 1, 1))
    lawful = algebra.odot
    for a, b in itertools.combinations_with_replacement(range(algebra.size), 2):
        odot = [list(row) for row in lawful]
        odot[a][b] = (odot[a][b] + 1) % algebra.size
        monkeypatch.setitem(vars(algebra), "odot", tuple(map(tuple, odot)))
        with pytest.raises(InternalInvariantError, match=rf"row \({a}, {b}\)"):
            free_quotient_experiment(algebra)
    monkeypatch.undo()
    assert free_quotient_experiment(algebra).isomorphic


@pytest.mark.parametrize("heights", [(4,), (2, 1, 1)])
def test_free_quotient_rejects_a_decomposition_with_two_elements_swapped(monkeypatch, heights):
    # neither algebra has an automorphism that swaps just two elements (a
    # chain has none but the identity), so every swap breaks f
    algebra = chain_product(heights)
    f, found = eq.chain_decomposition(algebra)
    for i, j in itertools.combinations(range(1, algebra.size), 2):
        swapped = list(f)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        monkeypatch.setattr(eq, "chain_decomposition", lambda _, g=tuple(swapped): (g, found))
        with pytest.raises(InternalInvariantError, match="outside the kernel"):
            free_quotient_experiment(algebra)


def test_free_quotient_count_without_the_zero_row_fails_the_oracle():
    for algebra in generated_algebras(16):
        report = free_quotient_experiment(algebra)
        oracle = relation_oracle(algebra, True)
        assert closed_form_matches(report, oracle)
        dropped = report._replace(relation_rows=report.relation_rows - 1)
        assert not closed_form_matches(dropped, oracle)


def test_free_quotient_refuses_a_lawless_table():
    chain = make_chain(2)
    oplus = [list(row) for row in chain.oplus]
    oplus[1][1] = 1  # 1 (+) 1 = 1: idempotent, yet not a chain's
    lawless = FiniteMVAlgebra(3, oplus, chain.neg)
    assert not check_mv_axioms(lawless).ok
    with pytest.raises(ValueError, match="fails the MV laws"):
        free_quotient_experiment(lawless)


def test_free_quotient_reduces_only_the_star_side(monkeypatch):
    """A structural guard: Smith reduction sees one matrix per call, the
    iota images (size rows of one column per prime), and never a relation
    matrix."""
    seen, smith_diagonal = [], snf.smith_diagonal

    def spy(rows, ncols=None):
        seen.append((len(rows), ncols if ncols is not None else len(rows[0])))
        return smith_diagonal(rows, ncols)

    monkeypatch.setattr(snf, "smith_diagonal", spy)
    for algebra in generated_algebras(64):
        for identify_zero in (True, False):
            seen.clear()
            report = free_quotient_experiment(algebra, identify_zero)
            assert seen == [(algebra.size, report.spectrum_size)]


def test_free_quotient_isomorphism_survey_small():
    for algebra in [
        make_chain(1),
        make_chain(2),
        make_chain(3),
        make_product(make_chain(1), make_chain(1)),
        make_product(make_chain(1), make_chain(2)),
    ]:
        assert free_quotient_experiment(algebra, identify_zero=True).isomorphic


# -- the evaluation map reads star fiber t into group fiber t --


def test_primes_follow_the_coordinates_on_generated_groups():
    # the spectrum lists the coordinate zero sets in fiber order, so the
    # evaluation map needs no permutation of fibers
    groups = [SweepContext.group(c, h) for c, h in group_shapes(3, 4, 3)]
    groups += [
        make_product_group([ChangChainGroup(make_chain(n)) for n in chains], u)
        for chains, u in [
            ([2], [(2, 1)]),
            ([3, 1], [(2, 0), (3, 0)]),
            ([2, 4, 3], [(1, 1), (2, 3), (2, 0)]),
        ]
    ]
    for g in groups:
        seg = gamma_segment(g)
        assert prime_alignment(seg.algebra, seg.zero_sets) == tuple(range(g.k))
        assert eq._evaluation(g)[1].source_fiber == tuple(range(g.k))
    assert len(groups) == 1887
