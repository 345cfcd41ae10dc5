"""JSON round trips and schema errors."""

import json
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mvgamma import serialize
from mvgamma.cli import main
from mvgamma.equivalence import (
    free_quotient_experiment,
    generated_membership,
    iota_naturality,
    iota_roundtrip,
    star_algebra,
    upsilon,
)
from mvgamma.lgroup import ChangChainGroup, ChangPair, gamma_segment, make_product_group
from mvgamma.mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    check_mv_axioms,
    make_chain,
    make_product,
)
from mvgamma.serialize import (
    MAX_NESTING,
    Runs,
    SchemaError,
    algebra_from_json,
    dumps,
    element_from_json,
    export_json,
    group_from_json,
    loads,
    morphism_from_json,
    render,
    to_jsonable,
    write_pieces,
)
from mvgamma.spectrum import Ideal, spectrum


def test_algebra_round_trip_chain(tmp_path):
    a = make_chain(3)
    p = tmp_path / "chain3.json"
    export_json(a, str(p))
    b = loads(p.read_text(encoding="utf-8"))
    assert isinstance(b, FiniteMVAlgebra)
    assert b == a


def test_algebra_round_trip_product():
    a = make_product(make_chain(2), make_chain(3))
    assert loads(dumps(a)) == a


def test_boolean_two_from_raw_json():
    raw = '{"size":2,"oplus":[[0,1],[1,1]],"neg":[1,0]}'
    a = loads(raw)
    assert check_mv_axioms(a).ok
    assert a == make_chain(1)


def test_import_checks_shape_not_laws():
    # exclusive-or in place of join: structurally a fine table, but not an
    # algebra of this kind (1 (+) 1 should stay 1); import succeeds, the
    # axiom checker is the place that says no
    xor = loads('{"size":2,"oplus":[[0,1],[1,0]],"neg":[1,0]}')
    report = check_mv_axioms(xor)
    assert not report.ok
    assert any(name == "absorb" for name, _ in report.violations)


def test_morphism_round_trip():
    h = MVMorphism(make_chain(1), make_chain(2), (0, 2))
    back = loads(dumps(h))
    assert back.dom == h.dom and back.cod == h.cod and back.map == h.map


def test_morphism_string_endpoint_is_a_schema_error():
    # endpoints are algebra objects; a name is not one
    obj = {"dom": "A", "cod": json.loads(dumps(make_chain(2))), "map": [0, 2]}
    with pytest.raises(SchemaError, match="expected an algebra object") as info:
        morphism_from_json(obj)
    assert info.value.location == "/dom"


def test_element_round_trip():
    x = (ChangPair(-1, 2), ChangPair(3, 0))
    assert loads(dumps(x)) == x


def test_group_round_trip():
    g = make_product_group(
        [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))],
        [(2, 0), (1, 1)],
    )
    back = loads(dumps(g))
    assert [f.chain.size for f in back.fibers] == [2, 3]
    assert back.u == g.u


def test_ideal_and_spectrum_round_trip():
    a = make_product(make_chain(1), make_chain(2))
    spec = spectrum(a)
    members = loads(dumps(spec.primes[0]))
    assert members == spec.primes[0].members
    assert Ideal(a, members) == spec.primes[0]
    prime_sets = loads(dumps(spec))
    assert prime_sets == tuple(p.members for p in spec.primes)


def test_snf_report_serializes():
    report = free_quotient_experiment(make_chain(2))
    obj = json.loads(dumps(report))
    assert obj["free_factors"] == [0]
    assert obj["star_factors"] == [0]
    assert obj["isomorphic"] is True
    back = loads(dumps(report))
    assert back["isomorphic"] is True


def test_dumps_is_deterministic():
    a = make_product(make_chain(2), make_chain(2))
    assert dumps(a) == dumps(make_product(make_chain(2), make_chain(2)))
    assert dumps(a).endswith("\n")
    assert json.dumps(json.loads(dumps(a)), sort_keys=True, indent=2) + "\n" == dumps(a)


def test_schema_error_locations():
    with pytest.raises(SchemaError) as err:
        algebra_from_json({"size": 2, "oplus": [[0, 1], [1]], "neg": [1, 0]})
    assert err.value.location == "/oplus/1"
    with pytest.raises(SchemaError) as err:
        element_from_json({"coords": [{"m": 0, "a": "x"}]})
    assert err.value.location == "/coords/0/a"
    with pytest.raises(SchemaError) as err:
        group_from_json({"fibers": [2], "u": {"coords": [{"m": 0, "a": 0}]}})
    assert err.value.location == "/u"  # zero unit is rejected
    with pytest.raises(SchemaError, match="unrecognized key set"):
        loads('{"what": 1}')
    with pytest.raises(SchemaError, match="not JSON"):
        loads("{")
    with pytest.raises(SchemaError, match="top level"):
        loads("[1, 2]")


def test_a_document_nested_past_the_decoder_is_a_schema_error():
    with pytest.raises(SchemaError, match="not JSON: nested too deeply") as err:
        loads('{"coords": ' + "[" * 5000)
    assert err.value.location == "/"


def called_deeper(frames: int, fn, *args):
    """fn(*args), called `frames` Python frames below the caller."""
    return fn(*args) if frames == 0 else called_deeper(frames - 1, fn, *args)


def nesting(value) -> int:
    """How deep a value nests lists, down its first items."""
    depth = 0
    while isinstance(value, list):
        value, depth = value[0] if value else None, depth + 1
    return depth


@pytest.mark.parametrize("frames", [0, 200])
@pytest.mark.parametrize("depth", [650, MAX_NESTING + 1])
def test_the_nesting_limit_does_not_move_with_the_callers_stack(frames, depth):
    # the object is one level, its list the rest; strings hold no levels
    inner = "[" * (depth - 1) + "]" * (depth - 1)
    text = f' {{"free_factors": {inner}, "star_factors": ["{"[" * 2000}"]}}'
    if depth <= MAX_NESTING:
        assert nesting(called_deeper(frames, loads, text)["free_factors"]) == depth - 1
    else:
        with pytest.raises(SchemaError, match="not JSON: nested too deeply") as err:
            called_deeper(frames, loads, text)
        assert err.value.location == "/"


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize(
    "place, location",
    [(lambda o, v: o["oplus"][0].__setitem__(1, v), "/oplus/0/1"),
     (lambda o, v: o["neg"].__setitem__(1, v), "/neg/1")],
    ids=["oplus", "neg"],
)
def test_non_integer_table_entry_is_located(bad, place, location):
    # bool is an int subclass and 1.0 == 1: both must still be refused
    obj = {"size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0]}
    place(obj, bad)
    with pytest.raises(SchemaError, match="expected an integer") as err:
        algebra_from_json(obj)
    assert err.value.location == location


@pytest.mark.parametrize("bad", [2**63, 10**30, -1, 2, True], ids=str)
@pytest.mark.parametrize("table", ["oplus", "neg"])
def test_table_entry_out_of_range(tmp_path, capsys, bad, table):
    # past int64 the entry overflows numpy rather than failing the range
    # check; every case is a schema error at the same pointer, exit 3 in a script
    obj = {"size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0]}
    if table == "oplus":
        obj["oplus"][1][0] = bad
    else:
        obj["neg"][1] = bad
    if bad is True:
        message, location = "expected an integer", "/oplus/1/0" if table == "oplus" else "/neg/1"
    else:
        message, location = "table entry out of range", "/"
    with pytest.raises(SchemaError) as err:
        loads(json.dumps(obj))
    assert str(err.value) == f"{message} (at {location})"
    path = tmp_path / "table.mvg"
    path.write_text(f"algebra A = table {json.dumps(obj)}\n", encoding="utf-8")
    assert main(["run", str(path)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"] == f"bad table: {message} (at {location}) (line 1)"


def test_algebra_schema_rejections():
    good = {"size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0]}
    algebra_from_json(good)
    for mutate in (
        lambda o: o.pop("neg"),
        lambda o: o.update(size=1),
        lambda o: o["oplus"].append([0, 0]),
        lambda o: o["oplus"][0].__setitem__(0, 9),
        lambda o: o.update(neg=[1, 0, 0]),
    ):
        broken = {"size": good["size"], "oplus": [list(r) for r in good["oplus"]], "neg": list(good["neg"])}
        mutate(broken)
        with pytest.raises(SchemaError):
            algebra_from_json(broken)


def test_group_schema_rejections():
    with pytest.raises(SchemaError):
        group_from_json({"fibers": [], "u": {"coords": [{"m": 1, "a": 0}]}})
    with pytest.raises(SchemaError):
        group_from_json({"fibers": [1], "u": {"coords": [{"m": 1, "a": 0}]}})
    with pytest.raises(SchemaError):
        group_from_json({"fibers": [2, 2], "u": {"coords": [{"m": 1, "a": 0}]}})
    # offsets out of chain range are schema errors too
    with pytest.raises(SchemaError):
        group_from_json({"fibers": [2], "u": {"coords": [{"m": 0, "a": 5}]}})


def test_unit_normalizes_on_import():
    # fiber size 4 is the chain of height 3: offset 2 sits below the top
    g = group_from_json({"fibers": [4], "u": {"coords": [{"m": 0, "a": 2}]}})
    assert g.u == (2,) and g.to_pairs(g.u) == (ChangPair(0, 2),)
    # fiber size 3: offset 2 is the top and rolls into a whole copy
    g2 = group_from_json({"fibers": [3], "u": {"coords": [{"m": 0, "a": 2}]}})
    assert g2.u == (2,) and g2.to_pairs(g2.u) == (ChangPair(1, 0),)
    assert loads(dumps(g2)) == g2


def test_huge_copy_index_survives_the_boundary():
    # pairs -> integers -> pairs at copy index 10^100, rendered unchanged
    g = group_from_json({"fibers": [3], "u": {"coords": [{"m": 1, "a": 0}]}})
    for m in (10**100, -(10**100)):
        literal = {"coords": [{"m": m, "a": 1}]}
        pairs = element_from_json(literal)
        x = g.from_pairs(pairs)
        assert x == (2 * m + 1,)
        assert g.to_pairs(x) == pairs
        assert dumps(g.to_pairs(x)) == json.dumps(literal, indent=2, sort_keys=True) + "\n"


def test_to_jsonable_rejects_strangers():
    with pytest.raises(TypeError):
        to_jsonable(object())


def _identity(a):
    return MVMorphism(a, a, tuple(range(a.size)))


RECORDS_WITHOUT_JSON = {
    "IotaReport": lambda a: iota_roundtrip(star_algebra(a)),
    "UpsilonResult": lambda a: upsilon((1, 2)),
    "CommuteReport": lambda a: iota_naturality(_identity(a)),
    "AxiomReport": check_mv_axioms,
    "MembershipWitness": lambda a: generated_membership(
        star_algebra(a).ambient, star_algebra(a).circle_index, star_algebra(a).a_circle[1]
    ),
    "StarAlgebra": star_algebra,
}


@pytest.mark.parametrize("name", RECORDS_WITHOUT_JSON)
def test_records_without_a_json_form_are_refused(name):
    # records are tuples, but only a plain list or tuple lowers to a list
    record = RECORDS_WITHOUT_JSON[name](make_product(make_chain(1), make_chain(2)))
    assert type(record).__name__ == name and isinstance(record, tuple)
    with pytest.raises(TypeError, match=f"no JSON form for {name}"):
        to_jsonable(record)
    with pytest.raises(TypeError, match=f"no JSON form for {name}"):
        dumps({"d": record})


def json_oracle(value) -> str:
    """What `dumps` must write: the standard library's indent-2 text."""
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2) + "\n"


def _package_values() -> list:
    a = make_product(make_chain(1), make_chain(2))
    spec = spectrum(a)
    g = make_product_group(
        [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))], [(2, 0), (1, 1)]
    )
    return [
        a,
        MVMorphism(make_chain(1), make_chain(2), (0, 2)),
        spec.primes[0],
        spec,
        g,
        free_quotient_experiment(make_chain(2)),
    ]


_PAIRS = st.builds(ChangPair, st.integers(-3, 3), st.integers(0, 3))
_ELEMENTS = st.lists(_PAIRS, min_size=1, max_size=3).map(tuple)
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é\u2028😀", 'a"b\\c\n'])
_LEAVES = (
    st.integers()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | _TEXT
    | _PAIRS
    | _ELEMENTS
    | st.sampled_from(_package_values())
)
# Equal neighbours that are different objects of different types: a writer
# that rendered equal (`==`) list items once would write them alike.
_LOOKALIKES = st.sampled_from(
    [
        [1, True, True],
        [0, False],
        [True, 1, 1, 1],
        [ChangPair(1, 0), (1, 0)],
        [(1, 0), ChangPair(1, 0), ChangPair(1, 0)],
        [(ChangPair(0, 1),), ((0, 1),)],
    ]
)
# Long runs of one object, as a plain list and as the `Runs` a report's good
# sequences are held in, zero counts included (small objects only, so that a
# failing example stays quick to shrink).
_SMALL = st.integers(-3, 3) | st.booleans() | _PAIRS | _ELEMENTS | _LOOKALIKES
_RUN_LISTS = st.lists(st.tuples(st.integers(0, 40), _SMALL), max_size=3)
_RUNS = _RUN_LISTS.map(lambda runs: [x for n, v in runs for x in [v] * n]) | _RUN_LISTS.map(Runs)
_VALUES = st.recursive(
    _LEAVES | _LOOKALIKES | _RUNS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.integers(-3, 3) | _TEXT, inner, max_size=5),
    max_leaves=40,
)


# Without the explain phase: its line tracing makes the string diff of a
# large failing example take minutes instead of seconds.
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(_VALUES)
def test_dumps_matches_json_indent_2(value):
    assert dumps(value) == json_oracle(value)


def test_dumps_repeated_element_at_two_depths():
    # a non-member witness names its missing entry beside the positive
    # entries that contain it, one indent level apart
    g = make_product_group(
        [ChangChainGroup(make_chain(1)), ChangChainGroup(make_chain(2))], [(1, 0), (1, 1)]
    )
    witness = generated_membership(g, {g.zero, g.u}, g.from_pairs([(0, 1), (3, 0)]))
    assert not witness.member and witness.missing in [x for _, x in witness.positive]
    detail = {
        "member": witness.member,
        "positive": Runs((n, g.to_pairs(x)) for n, x in witness.positive),
        "negative": Runs((n, g.to_pairs(x)) for n, x in witness.negative),
        "missing": g.to_pairs(witness.missing),
    }
    assert dumps(detail) == json_oracle(detail)
    top = g.to_pairs(gamma_segment(g).elements[-1])
    nested = {"top": top, "deeper": [[top], g.to_pairs(g.u)]}
    assert dumps(nested) == json_oracle(nested)


def test_runs_list_every_entry_and_empty_runs_write_brackets():
    assert to_jsonable(Runs([(2, 7), (0, 8), (1, (9,))])) == [7, 7, [9]]
    for empty in (Runs(), Runs([(0, ChangPair(1, 0))]), Runs([(0, 1), (0, [2])])):
        assert dumps(empty) == json_oracle(empty) == "[]\n"
        assert dumps({"entries": empty}) == '{\n  "entries": []\n}\n'


def test_dumps_mixes_scalars_runs_and_one_element_at_two_levels():
    # ints take their own path and bools json's; an element's text is kept by
    # (element, level), so its deeper copy is indented afresh
    x = (ChangPair(2, 1), ChangPair(-1, 0))
    value = {
        "flags": [True, False, 1, 0, None, [x]],
        "runs": Runs([(2, x), (3, True), (2, 1), (1, None), (2, False), (3, 0)]),
        "top": x,
        "deeper": [[x, 0], {"x": x, "none": None}],
    }
    assert dumps(value) == json.dumps(to_jsonable(value), indent=2, sort_keys=True) + "\n"


def test_elements_equal_to_other_elements_keep_their_own_text():
    # (True, False) == (1, 0), but a pair of bools is written as bools, and
    # a pair with a float has no JSON form, whatever was written before it
    ones, bools = (ChangPair(1, 0),), (ChangPair(True, False),)
    value = [ones, bools, Runs([(2, bools), (2, ones)]), {"b": bools, "o": ones}]
    assert dumps(value) == json_oracle(value)
    with pytest.raises(TypeError, match="no JSON form for float"):
        dumps([ones, (ChangPair(1.0, 0),)])


class RecordingStream:
    """A text stream stand-in that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


_PIECES = st.lists(st.tuples(st.text("ab\n", max_size=6), st.integers(0, 60)), max_size=8)


@given(_PIECES, st.integers(1, 40))
def test_write_pieces_writes_the_text_in_bounded_blocks(pieces, size):
    # a run is written as a block of whole copies, made once; no write is
    # longer than the block size or the longest piece
    stream = RecordingStream()
    with mock.patch.object(serialize, "_WRITE_SIZE", size):
        write_pieces(pieces, stream)
    assert "".join(stream.writes) == "".join(t * n for t, n in pieces)
    longest = max([size] + [len(t) for t, _ in pieces])
    assert all(len(w) <= longest for w in stream.writes)


def test_a_long_run_costs_a_few_writes_of_one_block():
    stream = RecordingStream()
    write_pieces([("[", 1), ("xyz,", 10**6), ("]\n", 1)], stream)
    assert "".join(stream.writes) == "[" + "xyz," * 10**6 + "]\n"
    assert len(stream.writes) <= 4 * 10**6 // serialize._WRITE_SIZE + 3
    blocks = {id(w) for w in stream.writes if len(w) == serialize._WRITE_SIZE}
    assert len(blocks) == 1


@pytest.mark.parametrize("depth", [600, 900])
def test_lists_nested_as_deep_as_json_writes_them(depth):
    # the writer recurses once per nesting level, as json's encoder does
    value = []
    for _ in range(depth - 1):
        value = [value]
    expected = json.dumps(value, indent=2) + "\n"
    assert dumps(value) == expected
    assert "".join(t * n for t, n in render(value)) == expected


def test_dumps_rejects_strangers():
    with pytest.raises(TypeError):
        dumps(object())
    with pytest.raises(TypeError):
        dumps({"ok": [1, 2.5]})
