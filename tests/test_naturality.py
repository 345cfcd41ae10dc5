"""The composition and evaluation squares, decided on the whole group by
fiber-map values, against product-window oracles that enumerate every
window element; and the sweep's composition certificate, once per morphism
and once per chain triple, against the walk over every composable pair."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiber_oracles
from congruence_oracles import extension
from fiber_oracles import ChainStarMap, UpsilonMap
from mvgamma import equivalence as eq
from mvgamma import mv_core, sweeps
from mvgamma.equivalence import FiberMap, LGroupMap
from mvgamma.lgroup import ChangChainGroup, make_product_group
from mvgamma.mv_core import (
    MVMorphism,
    check_morphism,
    compose,
    find_morphisms,
    make_chain,
    make_product,
    make_product_many,
)
from mvgamma.sweeps import (
    SuiteResult,
    SweepContext,
    _generated_group_maps,
    generated_algebras,
    group_shapes,
    suite_naturality,
)

# -- product-window oracles ------------------------------------------------------
#
# `eq.star_morphism` is looked up on the module at call time, so a test that
# patches it reaches the oracles and the checks under test alike.  It caches
# its maps, so a test that patches something a star map is built from clears
# that cache before and after.


def star_functoriality_oracle(first, then, window=4):
    """Star of a composite equals the composite of the stars, element by
    element over the whole product window."""
    sm_first = eq.star_morphism(first)
    sm_then = eq.star_morphism(then)
    sm_both = eq.star_morphism(compose(first, then))
    checked = 0
    for x in fiber_oracles.window(sm_first.dom, window):
        checked += 1
        lhs = sm_both(x)
        rhs = sm_then(sm_first(x))
        if lhs != rhs:
            return eq.CommuteReport(ok=False, checked=checked, failure=(x, lhs, rhs))
    return eq.CommuteReport(ok=True, checked=checked)


def upsilon_naturality_oracle(phi, window=4):
    """The evaluation square, element by element over the whole product
    window of the domain star ambient."""
    if not phi.unital:
        raise ValueError("the square is stated for unit-preserving maps")
    um_dom, um_cod = UpsilonMap(phi.dom), UpsilonMap(phi.cod)
    restricted = eq.gamma_restriction(phi, um_dom.segment, um_cod.segment)
    if not check_morphism(restricted).ok:
        return eq.CommuteReport(ok=False, checked=0, failure=("restriction", restricted.map))
    sm = eq.star_morphism(restricted)
    checked = 0
    for x in fiber_oracles.window(sm.dom, window):
        checked += 1
        lhs = phi(um_dom.evaluation(x))
        rhs = um_cod.evaluation(sm(x))
        if lhs != rhs:
            return eq.CommuteReport(ok=False, checked=checked, failure=(x, lhs, rhs))
    return eq.CommuteReport(ok=True, checked=checked)


# -- agreement on the generated families --------------------------------------------


def composable_pairs(algebras):
    homs = {(a, b): find_morphisms(a, b) for a in algebras for b in algebras}
    for (a, b), firsts in homs.items():
        for c in algebras:
            for first in firsts:
                for then in homs[(b, c)]:
                    yield first, then


def test_composition_square_matches_its_oracle():
    total = 0
    for first, then in composable_pairs(generated_algebras(6)):
        fast = eq.star_functoriality(first, then)
        for window in (1, 2, 3):
            assert fast.ok == star_functoriality_oracle(first, then, window).ok
        assert fast.ok
        total += 1
    assert total == 235


def test_evaluation_square_matches_its_oracle():
    groups = [SweepContext.group(c, h) for c, h in group_shapes(2, 2, 2)]
    total = 0
    for g, h in itertools.product(groups, repeat=2):
        for phi in _generated_group_maps(g, h):
            fast = eq.upsilon_naturality(phi)
            for window in (1, 2, 3):
                assert fast.ok == upsilon_naturality_oracle(phi, window).ok
            assert fast.ok
            total += 1
    assert total == 158


def generated_group_maps_oracle(dom, cod):
    """The earlier `_generated_group_maps`: every combination of old-style
    chain-morphism extensions, kept when the whole map is unital."""
    choices = []
    for j, fj in enumerate(cod.fibers):
        feeds = []
        for i, fi in enumerate(dom.fibers):
            for h in find_morphisms(fi.chain, fj.chain):
                feeds.append((i, ChainStarMap(h, fi, fj)))
        choices.append(feeds)
    out = []
    for combo in itertools.product(*choices):
        phi = LGroupMap(dom, cod, tuple(i for i, _ in combo), tuple(fm for _, fm in combo))
        if phi.unital:
            out.append(phi)
    return out


def test_generated_group_maps_match_the_unfiltered_product():
    # the sweep's map configurations; each fiber map compared on window 3
    groups = [SweepContext.group(c, h) for c, h in group_shapes(2, 3, 2)]
    total = 0
    for g, h in itertools.product(groups, repeat=2):
        fast = _generated_group_maps(g, h)
        slow = generated_group_maps_oracle(g, h)
        assert [phi.source_fiber for phi in fast] == [phi.source_fiber for phi in slow]
        for phi, old in zip(fast, slow):
            for i, fm, old_fm in zip(phi.source_fiber, phi.fiber_maps, old.fiber_maps):
                window = range(-3 * g.u[i], 3 * g.u[i] + 1)
                assert [fm(t) for t in window] == [old_fm(t) for t in window]
        total += len(fast)
    assert total == 306


# -- mutants --------------------------------------------------------------------------


def wrong_source(sm):
    """The same fiber maps, fed from the reversed list of source fibers."""
    return sm._replace(source_fiber=sm.source_fiber[::-1])


def wrong_hom(sm):
    """Fiber 0 maps the chain element of rank 1, strictly between 0 and the
    top, to 0."""
    fm = sm.fiber_maps[0]
    bad = FiberMap(fm.period, fm.step, (fm.table[0], 0, *fm.table[2:]))
    return sm._replace(fiber_maps=(bad, *sm.fiber_maps[1:]))


def far_out(sm):
    """Fiber 0 is s -> s with period 20, except at s = 10 mod 20, which no
    window of bound 4 or less reaches on a fiber of unit 2."""
    bad = FiberMap(20, 20, (*range(10), 11, *range(11, 20)))
    return sm._replace(fiber_maps=(bad, *sm.fiber_maps[1:]))


def patch_star_morphism(monkeypatch, target, mutate):
    """Make `eq.star_morphism` return a mutant for the morphisms `target` picks."""
    original = eq.star_morphism

    def patched(hom):
        sm = original(hom)
        return mutate(sm) if target(hom) else sm

    monkeypatch.setattr(eq, "star_morphism", patched)


def on_one_fiber(x):
    return sum(p != 0 for p in x) <= 1


def replays(report, lhs, rhs):
    """The failure (x, left, right) is what the two routes give at x, apart."""
    x, left, right = report.failure
    return (lhs(x), rhs(x)) == (left, right) and left != right


# chain(2) x chain(2): two star fibers over the same chain, so a swapped
# source list is still a well-typed map
SQUARE = make_product(make_chain(2), make_chain(2))


def identity(algebra):
    return MVMorphism(algebra, algebra, tuple(range(algebra.size)))


def composition_routes(first, then):
    """The two routes of the composition square, looked up at call time."""
    return (
        lambda x: eq.star_morphism(compose(first, then))(x),
        lambda x: eq.star_morphism(then)(eq.star_morphism(first)(x)),
    )


def pick(which, first, then):
    return {
        "first": lambda h: h is first,
        "then": lambda h: h is then,
        "composite": lambda h: h is not first and h is not then,
    }[which]


@pytest.mark.parametrize("mutate", [wrong_source, wrong_hom])
@pytest.mark.parametrize("which", ["first", "then", "composite"])
def test_composition_square_rejects_mutants(monkeypatch, fresh_memos, mutate, which):
    first, then = identity(SQUARE), identity(SQUARE)
    patch_star_morphism(monkeypatch, pick(which, first, then), mutate)
    routes = composition_routes(first, then)
    report = eq.star_functoriality(first, then)
    assert not report.ok and replays(report, *routes) and on_one_fiber(report.failure[0])
    slow = star_functoriality_oracle(first, then, window=2)
    assert not slow.ok and replays(slow, *routes)
    assert slow.failure[0] in set(fiber_oracles.window(eq.star_morphism(first).dom, 2))


@pytest.mark.parametrize("which", ["first", "then", "composite"])
def test_composition_square_rejects_a_mutant_beyond_the_windows(
    monkeypatch, fresh_memos, which
):
    # the product-window walk passes it up to bound 4, the value route does not
    first, then = identity(SQUARE), identity(SQUARE)
    patch_star_morphism(monkeypatch, pick(which, first, then), far_out)
    assert all(star_functoriality_oracle(first, then, w).ok for w in (1, 2, 3, 4))
    assert not star_functoriality_oracle(first, then, 5).ok
    report = eq.star_functoriality(first, then)
    assert not report.ok and report.failure[0] == (10, 0)
    assert replays(report, *composition_routes(first, then))


def square_group():
    f = ChangChainGroup(make_chain(2))
    return make_product_group([f, f], [(1, 0), (1, 0)])


def identity_map(g):
    f = g.fibers[0]
    ident = extension(identity(f.chain), f, f)
    return LGroupMap(dom=g, cod=g, source_fiber=(0, 1), fiber_maps=(ident, ident))


def evaluation_routes(phi):
    """The two routes of the evaluation square, through the oracle's evaluation."""
    um_dom, um_cod = UpsilonMap(phi.dom), UpsilonMap(phi.cod)
    sm = eq.star_morphism(eq.gamma_restriction(phi, um_dom.segment, um_cod.segment))
    return sm, lambda x: phi(um_dom.evaluation(x)), lambda x: um_cod.evaluation(sm(x))


@pytest.mark.parametrize("mutate", [wrong_source, wrong_hom])
def test_evaluation_square_rejects_mutants(monkeypatch, fresh_memos, mutate):
    phi = identity_map(square_group())
    patch_star_morphism(monkeypatch, lambda h: True, mutate)
    sm, *routes = evaluation_routes(phi)
    report = eq.upsilon_naturality(phi)
    assert not report.ok and replays(report, *routes) and on_one_fiber(report.failure[0])
    slow = upsilon_naturality_oracle(phi, window=2)
    assert not slow.ok and replays(slow, *routes)
    assert slow.failure[0] in set(fiber_oracles.window(sm.dom, 2))


def test_evaluation_square_rejects_a_mutant_beyond_the_windows(monkeypatch, fresh_memos):
    phi = identity_map(square_group())
    patch_star_morphism(monkeypatch, lambda h: True, far_out)
    assert all(upsilon_naturality_oracle(phi, w).ok for w in (1, 2, 3, 4))
    assert not upsilon_naturality_oracle(phi, 5).ok
    report = eq.upsilon_naturality(phi)
    assert not report.ok and report.failure[0] == (10, 0)
    assert replays(report, *evaluation_routes(phi)[1:])


# fiber maps on the group over chain(2), whose unit is 2, among them maps
# that do not fix 0 or keep the unit positive: two routes reading different
# fibers agree exactly when both maps are constant and equal
ODD_FIBER_MAPS = {
    "zero": FiberMap(1, 0, (0,)),
    "unit": FiberMap(1, 0, (2,)),
    "shift": FiberMap(1, 1, (2,)),
    "id": FiberMap(1, 1, (0,)),
}


@pytest.mark.parametrize("left, right", itertools.product(ODD_FIBER_MAPS, repeat=2))
def test_routes_reading_different_fibers_match_the_oracle(
    monkeypatch, fresh_memos, left, right
):
    first, then = identity(SQUARE), identity(SQUARE)

    def mutate(sm, swap, name):
        source = sm.source_fiber[::-1] if swap else sm.source_fiber
        fm = ODD_FIBER_MAPS[name]
        return sm._replace(source_fiber=source, fiber_maps=(fm, fm))

    original = eq.star_morphism

    def patched(hom):
        sm = original(hom)
        if hom is first:
            return mutate(sm, False, right)
        if hom is then:
            return sm
        return mutate(sm, True, left)

    monkeypatch.setattr(eq, "star_morphism", patched)
    fast = eq.star_functoriality(first, then)
    for window in (1, 2, 3):
        assert fast.ok == star_functoriality_oracle(first, then, window).ok
    assert fast.ok == (left == right and left in ("zero", "unit"))
    if not fast.ok:
        assert replays(fast, *composition_routes(first, then))
        assert on_one_fiber(fast.failure[0])


SCALING = eq.chain_scaling


def one_step_high(n, m):
    """`chain_scaling`, but every star map built from it reads its input
    one step high: s -> fm(s + 1), the same period and step."""
    fm = SCALING(n, m)
    return FiberMap(fm.period, fm.step, tuple(fm(r + 1) for r in range(fm.period)))


def test_star_map_off_by_one_fails_every_square(monkeypatch, fresh_memos):
    # fresh_memos: a map cached by another test before the patch would hide it
    first, then = identity(SQUARE), identity(SQUARE)
    phi = identity_map(square_group())
    monkeypatch.setattr(eq, "chain_scaling", one_step_high)
    try:
        assert not eq.iota_naturality(first).ok
        assert not eq.star_functoriality(first, then).ok
        assert not star_functoriality_oracle(first, then, window=2).ok
        assert not eq.upsilon_naturality(phi).ok
        assert not upsilon_naturality_oracle(phi, window=2).ok
    finally:
        monkeypatch.undo()
        fresh_memos()  # maps cached under the patch would hide the repair
    assert eq.iota_naturality(first).ok and eq.upsilon_naturality(phi).ok


# -- properties of the value route ---------------------------------------------------


@st.composite
def fiber_maps(draw, constant=False):
    period = draw(st.integers(1, 6))
    if constant:
        return FiberMap(period, 0, (draw(st.integers(-6, 6)),) * period)
    table = draw(st.lists(st.integers(-12, 12), min_size=period, max_size=period))
    return FiberMap(period, draw(st.integers(-6, 6)), tuple(table))


@settings(max_examples=150, deadline=None)
@given(fiber_maps(), fiber_maps())
def test_composite_fiber_map_is_pointwise_composition(f, g):
    h = f.then(g)
    span = range(-3 * h.period, 3 * h.period + 1)
    assert [h(s) for s in span] == [g(f(s)) for s in span]


def test_a_fresh_naturality_suite_composes_each_pair_once(monkeypatch, fresh_memos):
    # composites are cached by value: the suite asks for 1,080 of them, 38
    # for the chain triples and the rest for the evaluation squares, built
    # from 42 distinct pairs of fiber maps, and builds each pair once
    composite = eq._composite
    pairs = []

    def recorded(f, g):
        pairs.append((f, g))
        return composite(f, g)

    monkeypatch.setattr(eq, "_composite", recorded)
    assert suite_naturality(SweepContext(16, 4)).ok
    info = composite.cache_info()
    assert (info.misses, info.hits) == (len(set(pairs)), len(pairs) - len(set(pairs)))
    assert (len(set(pairs)), len(pairs)) == (42, 1080)


def unrolled(f, k):
    """The same map as f, written with k times its period."""
    return FiberMap(k * f.period, k * f.step, tuple(f(r) for r in range(k * f.period)))


@st.composite
def route_pairs(draw):
    """Two maps out of a one- or two-fiber group, each output fiber reading
    any input fiber; the right-hand fiber map is often the left one written
    over a longer period, and the maps are often constant."""
    k = draw(st.integers(1, 2))
    dom = SweepContext.group((2,) * k, tuple(draw(st.integers(1, 2)) for _ in range(k)))
    outputs = draw(st.integers(1, 2))
    sources = [draw(st.integers(0, k - 1)) for _ in range(2 * outputs)]
    left, right = [], []
    for _ in range(outputs):
        f = draw(fiber_maps(constant=draw(st.booleans())))
        kind = draw(st.sampled_from(["unrolled", "constant", "any"]))
        if kind == "unrolled":
            g = unrolled(f, draw(st.integers(1, 3)))
        else:
            g = draw(fiber_maps(constant=kind == "constant"))
        left.append(f)
        right.append(g)
    return (
        LGroupMap(dom, dom, tuple(sources[:outputs]), tuple(left)),
        LGroupMap(dom, dom, tuple(sources[outputs:]), tuple(right)),
        tuple(draw(st.integers(-60, 60)) for _ in range(k)),
    )


@settings(max_examples=150, deadline=None)
@given(route_pairs())
def test_value_route_agrees_with_the_window_oracle(case):
    lhs, rhs, far = case
    report = eq._routes_agree(lhs, rhs)
    if report.ok:
        for window in (1, 2, 3):
            assert all(lhs(x) == rhs(x) for x in fiber_oracles.window(lhs.dom, window))
        assert lhs(far) == rhs(far)
    else:
        assert replays(report, lhs, rhs) and on_one_fiber(report.failure[0])


# -- the composition certificate against the pair walk ----------------------------------


def pair_walk(algebras):
    """The earlier suite's composition squares: `star_functoriality` on every
    composable pair of found morphisms, counted and reported per pair."""
    result = SuiteResult("naturality", True, 0)
    ends = range(len(algebras))
    homs = {(i, j): find_morphisms(algebras[i], algebras[j]) for i in ends for j in ends}
    for i, j, k in itertools.product(ends, repeat=3):
        for first in homs[i, j]:
            for then in homs[j, k]:
                result.cases += 1
                if not eq.star_functoriality(first, then).ok:
                    result.note_failure(f"composition square fails {i}->{j}->{k}")
    return result


def certify(monkeypatch, algebras):
    """`suite_naturality` over the given algebras and no group maps: the iota
    squares and the composition certificate alone."""
    monkeypatch.setattr(sweeps, "generated_algebras", lambda cap: list(algebras))
    monkeypatch.setattr(sweeps, "group_shapes", lambda *shape: iter(()))
    return suite_naturality(SweepContext(12, 4))


def composites_are_certified(algebras):
    """What carries the certificate from single morphisms to every pair: the
    composite of a composable pair is a found morphism, so its star is
    certified too, and that star reads input fiber sigma1(sigma2(k)) for
    output fiber k."""
    for a, b, c in itertools.product(algebras, repeat=3):
        found = set(find_morphisms(a, c))
        for first in find_morphisms(a, b):
            for then in find_morphisms(b, c):
                both = mv_core.compose(first, then)
                s1, s2 = (eq.star_morphism(h).source_fiber for h in (first, then))
                if both not in found or eq.star_morphism(both).source_fiber != tuple(
                    s1[j] for j in s2
                ):
                    return False
    return True


def chain_products(count, cap):
    """The products of `count` chains, nondecreasing heights, of at most cap elements."""
    return [
        make_product_many([make_chain(n) for n in heights])
        for heights in itertools.combinations_with_replacement(range(1, 9), count)
        if math.prod(n + 1 for n in heights) <= cap
    ]


FAMILIES = {
    # (algebras, found morphisms, composable pairs)
    "binary": (generated_algebras(12), 171, 1777),
    "three chains": (generated_algebras(12) + chain_products(3, 12), 418, 15497),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_certificate_agrees_with_the_pair_walk(monkeypatch, fresh_memos, family):
    algebras, morphisms, pairs = FAMILIES[family]
    suite = certify(monkeypatch, algebras)
    walk = pair_walk(algebras)
    assert (suite.ok, suite.failures) == (walk.ok, walk.failures) == (True, [])
    assert (suite.cases, walk.cases) == (morphisms + pairs, pairs)
    assert composites_are_certified(algebras)


def misread_one_fiber(sm):
    """Output fiber 0 reads the next input fiber instead of its own."""
    wrong = (sm.source_fiber[0] + 1) % len(sm.dom.fibers)
    return sm._replace(source_fiber=(wrong, *sm.source_fiber[1:]))


def test_a_star_map_reading_a_wrong_fiber_fails_certificate_and_walk(monkeypatch, fresh_memos):
    target = identity(SQUARE)
    original = eq.star_morphism

    def patched(hom):
        return misread_one_fiber(original(hom)) if hom == target else original(hom)

    monkeypatch.setattr(eq, "star_morphism", patched)
    # both fibers have height 2, so the misread fiber is still a scaling; the
    # iota square, which fixes the fiber each output reads, rejects it
    suite = certify(monkeypatch, [SQUARE])
    assert suite.failures == ["iota square fails for a map 0->0"]
    assert not pair_walk([SQUARE]).ok


def test_a_star_map_off_its_scaling_fails_certificate_and_walk(monkeypatch, fresh_memos):
    # fiber 0 of the identity's star maps rank 1 to 0: one table entry off;
    # the iota square reads every rank of every fiber, so it rejects it
    target = identity(SQUARE)
    original = eq.star_morphism

    def patched(hom):
        return wrong_hom(original(hom)) if hom == target else original(hom)

    monkeypatch.setattr(eq, "star_morphism", patched)
    suite = certify(monkeypatch, [SQUARE])
    assert suite.failures == ["iota square fails for a map 0->0"]
    assert not pair_walk([SQUARE]).ok


def test_a_composite_one_high_fails_certificate_and_walk(monkeypatch, fresh_memos):
    # the scaling of the chain of height 2 onto itself, composed with itself,
    # gets its first table entry one high
    composite, ident = eq._composite, eq.chain_scaling(2, 2)

    def bumped(f, g):
        h = composite(f, g)
        return h._replace(table=(h.table[0] + 1, *h.table[1:])) if f == g == ident else h

    monkeypatch.setattr(eq, "_composite", bumped)
    suite = certify(monkeypatch, [SQUARE])
    assert suite.failures == ["chain scalings 2->2->2 do not compose"]
    assert not pair_walk([SQUARE]).ok


def test_a_compose_that_swaps_its_arguments_fails_certificate_and_walk(monkeypatch, fresh_memos):
    # on the endomorphisms of one algebra a swapped compose is well typed: the
    # walk builds the star of the wrong composite, and the step from single
    # morphisms to pairs finds composites whose stars read the wrong fibers;
    # the suite itself composes no morphism, so its verdict does not move
    original = mv_core.compose

    def swapped(first, then):
        return original(then, first)

    for module in (mv_core, eq):
        monkeypatch.setattr(module, "compose", swapped)
    assert certify(monkeypatch, [SQUARE]).ok
    assert not composites_are_certified([SQUARE])
    assert not pair_walk([SQUARE]).ok

