"""The composition and evaluation squares, checked one fiber at a time,
against product-window oracles that enumerate every window element."""

import itertools

import pytest

import fiber_oracles
from fiber_oracles import ChainStarMap, UpsilonMap
from mvgamma import equivalence as eq
from mvgamma.equivalence import FiberMap, LGroupMap
from mvgamma.lgroup import ChangChainGroup, gamma_segment, make_product_group
from mvgamma.mv_core import (
    MVMorphism,
    check_morphism,
    compose,
    find_morphisms,
    make_chain,
    make_product,
)
from mvgamma.sweeps import SweepContext, _generated_group_maps, generated_algebras, group_shapes

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
        fast = eq.star_functoriality(first, then, window=2)
        slow = star_functoriality_oracle(first, then, window=2)
        assert (fast.ok, fast.checked) == (slow.ok, slow.checked)
        assert fast.ok
        total += 1
    assert total == 235


def test_evaluation_square_matches_its_oracle():
    groups = [SweepContext.group(c, h) for c, h in group_shapes(2, 2, 2)]
    total = 0
    for g, h in itertools.product(groups, repeat=2):
        for phi in _generated_group_maps(g, h):
            fast = eq.upsilon_naturality(phi, window=3)
            slow = upsilon_naturality_oracle(phi, window=3)
            assert (fast.ok, fast.checked) == (slow.ok, slow.checked)
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
    bad = fm._replace(table=(fm.table[0], 0, *fm.table[2:]))
    return sm._replace(fiber_maps=(bad, *sm.fiber_maps[1:]))


def patch_star_morphism(monkeypatch, target, mutate):
    """Make `eq.star_morphism` return a mutant for the morphisms `target` picks."""
    original = eq.star_morphism

    def patched(hom):
        sm = original(hom)
        return mutate(sm) if target(hom) else sm

    monkeypatch.setattr(eq, "star_morphism", patched)


def is_unit_on_one_fiber(star_ambient, x):
    nonzero = [i for i, p in enumerate(x) if p != 0]
    return len(nonzero) == 1 and x[nonzero[0]] == star_ambient.u[nonzero[0]]


# chain(2) x chain(2): two star fibers over the same chain, so a swapped
# source list is still a well-typed map
SQUARE = make_product(make_chain(2), make_chain(2))


def identity(algebra):
    return MVMorphism(algebra, algebra, tuple(range(algebra.size)))


@pytest.mark.parametrize("mutate", [wrong_source, wrong_hom])
@pytest.mark.parametrize("which", ["first", "then", "composite"])
def test_composition_square_rejects_mutants(monkeypatch, fresh_memos, mutate, which):
    first, then = identity(SQUARE), identity(SQUARE)
    target = {
        "first": lambda h: h is first,
        "then": lambda h: h is then,
        "composite": lambda h: h is not first and h is not then,
    }[which]
    patch_star_morphism(monkeypatch, target, mutate)
    dom = eq.star_morphism(first).dom
    window = set(fiber_oracles.window(dom, 2))
    for report in (
        eq.star_functoriality(first, then, window=2),
        star_functoriality_oracle(first, then, window=2),
    ):
        assert not report.ok
        x, lhs, rhs = report.failure
        assert x in window
        replay = (
            eq.star_morphism(compose(first, then))(x),
            eq.star_morphism(then)(eq.star_morphism(first)(x)),
        )
        assert replay == (lhs, rhs) and lhs != rhs
    if mutate is wrong_source:
        x = eq.star_functoriality(first, then, window=2).failure[0]
        assert is_unit_on_one_fiber(dom, x)


def square_group():
    f = ChangChainGroup(make_chain(2))
    return make_product_group([f, f], [(1, 0), (1, 0)])


@pytest.mark.parametrize("mutate", [wrong_source, wrong_hom])
def test_evaluation_square_rejects_mutants(monkeypatch, fresh_memos, mutate):
    g = square_group()
    f = g.fibers[0]
    ident = FiberMap.extension(identity(f.chain), f, f)
    phi = LGroupMap(dom=g, cod=g, source_fiber=(0, 1), fiber_maps=(ident, ident))
    patch_star_morphism(monkeypatch, lambda h: True, mutate)
    um_dom, um_cod = UpsilonMap(phi.dom), UpsilonMap(phi.cod)
    segment = gamma_segment(g)
    sm = eq.star_morphism(eq.gamma_restriction(phi, segment, segment))
    window = set(fiber_oracles.window(sm.dom, 2))
    for report in (
        eq.upsilon_naturality(phi, window=2),
        upsilon_naturality_oracle(phi, window=2),
    ):
        assert not report.ok
        x, lhs, rhs = report.failure
        assert x in window
        assert (phi(um_dom.evaluation(x)), um_cod.evaluation(sm(x))) == (lhs, rhs)
        assert lhs != rhs
    if mutate is wrong_source:
        x = eq.upsilon_naturality(phi, window=2).failure[0]
        assert is_unit_on_one_fiber(sm.dom, x)


# fiber maps on the group over chain(2), whose unit is 2, that break the
# premise of the unit probe (fix 0, keep the unit positive), so only the rest
# of the per-fiber scan can tell whether two routes reading different fibers
# agree
ODD_FIBER_MAPS = {
    "zero": lambda t: 0,
    "unit": lambda t: 2,
    "shift": lambda t: t + 2,
    "id": lambda t: t,
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
    fast = eq.star_functoriality(first, then, window=2)
    slow = star_functoriality_oracle(first, then, window=2)
    assert fast.ok == slow.ok == (left == right and left in ("zero", "unit"))
    if fast.ok:
        assert fast.checked == slow.checked
    else:
        x, lhs, rhs = fast.failure
        assert x in set(fiber_oracles.window(original(first).dom, 2))
        replay = (
            eq.star_morphism(compose(first, then))(x),
            eq.star_morphism(then)(eq.star_morphism(first)(x)),
        )
        assert replay == (lhs, rhs) and lhs != rhs


class OneStepHigh(FiberMap):
    """A star map that reads its input one step high."""

    def __call__(self, t):
        return super().__call__(t + 1)


EXTENSION = FiberMap.extension


def one_step_high(cls, hom, dom, cod):
    """`FiberMap.extension`, but every star map it builds is `OneStepHigh`."""
    return OneStepHigh(*EXTENSION(hom, dom, cod))


def test_star_map_off_by_one_fails_every_square(monkeypatch, fresh_memos):
    # fresh_memos: a map cached by another test before the patch would hide it
    first, then = identity(SQUARE), identity(SQUARE)
    g = square_group()
    f = g.fibers[0]
    ident = FiberMap.extension(identity(f.chain), f, f)
    phi = LGroupMap(dom=g, cod=g, source_fiber=(0, 1), fiber_maps=(ident, ident))
    monkeypatch.setattr(FiberMap, "extension", classmethod(one_step_high))
    try:
        assert not eq.iota_naturality(first).ok
        assert not eq.star_functoriality(first, then, window=2).ok
        assert not star_functoriality_oracle(first, then, window=2).ok
        assert not eq.upsilon_naturality(phi, window=2).ok
        assert not upsilon_naturality_oracle(phi, window=2).ok
    finally:
        monkeypatch.undo()
        fresh_memos()  # maps cached under the patch would hide the repair
    assert eq.iota_naturality(first).ok and eq.upsilon_naturality(phi, window=2).ok
