"""The package's records: immutable NamedTuples (two of them validating
subclasses) and two slotted accumulators.

Each record that was once a frozen value still refuses assignment, equal
fields still make equal, equally hashed values where records are cache
keys, and the validating records still refuse bad input however they are
built.
"""

import pytest

from mvgamma.equivalence import (
    FiberMap,
    GoodSequence,
    canonical_good_sequence,
    coordinate_ideal_checks,
    free_quotient_experiment,
    generated_membership,
    iota_naturality,
    iota_roundtrip,
    star_algebra,
    star_morphism,
    upsilon,
)
from mvgamma.interp import RunConfig, RunReport
from mvgamma.lgroup import chain_fiber, unit_segment
from mvgamma.mv_core import MVMorphism, check_morphism, check_mv_axioms, make_chain, make_product
from mvgamma.script import (
    AlgebraDef,
    ChainExpr,
    Command,
    GroupDef,
    HomDef,
    NameExpr,
    ProductExpr,
    Script,
    TableExpr,
)
from mvgamma.spectrum import Ideal, quotient, spectrum
from mvgamma.sweeps import SuiteResult

A = make_product(make_chain(1), make_chain(2))


def identity(a):
    return MVMorphism(a, a, tuple(range(a.size)))


def records() -> list:
    """One value of each record that was a frozen value, built the way the
    package builds it where it does."""
    star = star_algebra(A)
    prime = spectrum(A).primes[0]
    return [
        ChainExpr(2),
        NameExpr("A"),
        ProductExpr((ChainExpr(1), NameExpr("A"))),
        TableExpr({"size": 2}),
        AlgebraDef("A", ChainExpr(1), 1),
        HomDef("h", "A", "A", ((0, 0), (1, 1)), 2),
        GroupDef("G", (3,), ((1, 0),), 3),
        Command("spec", name="A", line=4),
        Script(()),
        RunConfig(),
        check_mv_axioms(A),
        identity(A),
        check_morphism(identity(A)),
        prime,
        spectrum(A),
        quotient(A, prime),
        unit_segment((1, 2)),
        FiberMap(2, 3, (0, 1)),
        star,
        canonical_good_sequence(unit_segment((2,)), (5,)),
        generated_membership(star.ambient, star.circle_index, star.a_circle[1]),
        iota_roundtrip(star),
        star_morphism(identity(A)),
        upsilon((1, 2)),
        coordinate_ideal_checks((1, 2))[0],
        iota_naturality(identity(A)),
        free_quotient_experiment(A),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_a_record_refuses_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "added"
    assert not hasattr(record, "__dict__")


def test_every_frozen_record_is_covered():
    assert len({type(r) for r in records()}) == 27


def test_cache_keys_built_apart_are_equal_and_hash_alike():
    f = chain_fiber(2)
    pairs = [
        (MVMorphism(A, A, tuple(range(6))), identity(A)),
        (FiberMap.extension(identity(f.chain), f, f), FiberMap(2, 2, (0, 1))),
        (Ideal(A, frozenset([0, 1, 2])), spectrum(A).primes[0]),
    ]
    for left, right in pairs:
        assert left is not right
        assert left == right and hash(left) == hash(right)
    assert spectrum(A).primes[0].members == frozenset([0, 1, 2])
    assert star_morphism(pairs[0][0]) is star_morphism(pairs[0][1])


def test_a_spectrum_counts_its_primes_and_an_ideal_holds_its_members():
    spec = spectrum(A)
    assert len(spec) == len(spec.primes) == 2
    assert len(spectrum(make_chain(3))) == 1
    prime = spec.primes[0]
    assert [a in prime for a in range(A.size)] == [a in prime.members for a in range(A.size)]
    assert 0 in prime and A.top not in prime


def test_a_morphism_refuses_a_bad_map_however_it_is_built():
    h = identity(A)
    for bad in ((0, 1), (0, 1, 2, 3, 4, 6)):
        with pytest.raises(ValueError):
            MVMorphism(A, A, bad)
        with pytest.raises(ValueError):
            h._replace(map=bad)
    assert h._replace(map=(0,) * 6).map == (0,) * 6


def test_a_good_sequence_refuses_bad_runs_however_it_is_built():
    seg = unit_segment((2,))
    gs = canonical_good_sequence(seg, (5,))
    assert gs.runs == ((2, 2), (1, 1))
    for bad in (((1, 1), (1, 2)), ((1, 2), (1, 0)), ((0, 2),)):
        with pytest.raises(ValueError):
            GoodSequence(seg.algebra, bad)
        with pytest.raises(ValueError):
            gs._replace(runs=bad)
    assert gs._replace(runs=((1, 2),)).entries == (2,)


def test_the_accumulators_are_slotted_and_report_their_fields_in_order():
    suite = SuiteResult("axioms", True, 0)
    suite.cases += 1
    suite.note_failure("one")
    assert suite.as_json() == {"name": "axioms", "ok": False, "cases": 1, "failures": ["one"]}
    assert list(suite.as_json()) == ["name", "ok", "cases", "failures"]
    report = RunReport(RunConfig(max_size=6))
    report.outcomes.append({"status": "pass"})
    assert report.as_json() == {
        "config": {"max_size": 6, "window": 4},
        "commands": [{"status": "pass"}],
        "overall": "pass",
    }
    for value in (suite, report):
        with pytest.raises(AttributeError):
            value.note = "added"
