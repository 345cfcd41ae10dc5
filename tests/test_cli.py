"""Interpreter semantics and the command-line exit-code contract."""

import gc
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mvgamma
from mvgamma import cli, equivalence, interp, mv_core
from mvgamma.cli import _run_text, main
from mvgamma.errors import InternalInvariantError
from mvgamma.lgroup import ProductLuGroup
from mvgamma.interp import MAX_CARRIER, MAX_LISTED, MAX_WINDOW, RunConfig, SemanticError, execute
from mvgamma.mv_core import FiniteMVAlgebra, make_chain, make_product
from mvgamma.script import COMMANDS, Command, parse_script
from mvgamma.serialize import MAX_NESTING, dumps, loads
from test_mv_core import axioms_full, chain_product, permuted_copy
from test_serialize import called_deeper, json_oracle, nesting


REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_text(text, **kwargs):
    return execute(parse_script(text), RunConfig(**kwargs))


def source_env():
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def text_of(report):
    """The report as the CLI writes it."""
    return dumps(report.as_json())


# ---------------------------------------------------------------- interpreter


def test_passing_script_report():
    report = run_text(
        "algebra A = chain 2\nspec A\nstar A\nroundtrip A\n"
        "group G = fibers [3] unit [(1,0)]\ngamma G"
    )
    assert report.exit_code == 0
    payload = json.loads(text_of(report))
    assert payload["overall"] == "pass"
    assert [c["command"] for c in payload["commands"]] == [
        "spec",
        "star",
        "roundtrip",
        "gamma",
    ]
    assert all(c["status"] == "pass" for c in payload["commands"])


def test_spec_builds_the_star_that_star_reads(fresh_memos):
    # spec reads the cached star, so star is a cache hit, and no product
    # table is built besides the one the definition asks for: the chain
    # decomposition's product of chains is that table again
    report = run_text("algebra A = chain 2 * chain 3\nspec A\nstar A")
    assert report.exit_code == 0
    assert mv_core._product.cache_info().misses == 1
    info = equivalence.star_algebra.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_failing_check_sets_exit_one():
    report = run_text("algebra A = chain 1\nfreequotient A --keep-zero")
    assert report.exit_code == 1
    payload = json.loads(text_of(report))
    assert payload["overall"] == "fail"
    assert payload["commands"][0]["status"] == "fail"


def test_member_failure_is_exit_one_not_an_error():
    # the middle of a three-element chain is not generated by a hom from chain 1
    report = run_text(
        "algebra A = chain 1\nalgebra B = chain 2\n"
        'hom h : A -> B { 0->0, 1->2 }\nmember h {"coords":[{"m":0,"a":1}]}'
    )
    assert report.exit_code == 1
    detail = json.loads(text_of(report))["commands"][0]["detail"]
    assert detail["member"] is False
    assert detail["missing"] == {"coords": [{"m": 0, "a": 1}]}


def test_member_success_reports_witness():
    report = run_text('algebra A = chain 2\nmember A {"coords":[{"m":0,"a":1}]}')
    assert report.exit_code == 0
    detail = json.loads(text_of(report))["commands"][0]["detail"]
    assert detail["member"] is True


def test_goodseq_command():
    report = run_text('group G = fibers [3] unit [(1,0)]\ngoodseq G {"coords":[{"m":2,"a":1}]}')
    assert report.exit_code == 0
    detail = json.loads(text_of(report))["commands"][0]["detail"]
    assert detail["entries"]  # canonical entries listed in segment indices


# The long_runs script at copy index about 3,000: thousands of entries in a
# few runs.
DIGITS_SCALE = (
    "algebra A = chain 2 * chain 3\n"
    'algebra B = table {"size": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0]}\n'
    "hom h : B -> A { 0 -> 0, 1 -> 11 }\n"
    "group G = fibers [2, 3] unit [(1, 0), (1, 1)]\n"
    'goodseq G {"coords": [{"m": 3000, "a": 0}, {"m": 1950, "a": 1}]}\n'
    'member G {"coords": [{"m": 2775, "a": 0}, {"m": -2175, "a": 1}]}\n'
    'member A {"coords": [{"m": -3000, "a": 1}, {"m": 2850, "a": 2}]}\n'
    'member h {"coords": [{"m": 3000, "a": 0}, {"m": 3000, "a": 0}]}\n'
    'member h {"coords": [{"m": -2925, "a": 1}, {"m": 3000, "a": 0}]}\n'
)


def test_long_runs_at_the_digits_scale_write_the_oracle_text(tmp_path, capsys):
    # each run written once and repeated must read exactly as the standard
    # library writes the same report
    script = tmp_path / "digits.mvg"
    script.write_text(DIGITS_SCALE)
    assert main(["run", str(script)]) == 1
    out = capsys.readouterr().out
    assert out == json_oracle(execute(parse_script(script.read_text())).as_json())
    commands = json.loads(out)["commands"]
    goodseq = commands[0]["detail"]
    assert goodseq["length"] == len(goodseq["entries"]) == len(goodseq["elements"]) == 3000
    assert [c["status"] for c in commands] == ["pass"] * 4 + ["fail"]
    assert min(len(c["detail"]["positive"]) for c in commands[1:]) > 1000


@pytest.mark.parametrize("name", ["long_runs", "digits_scale"])
def test_stdout_json_out_and_to_text_are_one_text(tmp_path, capsys, name):
    script = GOLDEN / "long_runs.mvg" if name == "long_runs" else tmp_path / "digits.mvg"
    if name == "digits_scale":
        script.write_text(DIGITS_SCALE)
    out = tmp_path / "report.json"
    assert main(["run", str(script), "--json-out", str(out)]) == 1
    text = text_of(execute(parse_script(script.read_text()))).encode("utf-8")
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes() == text


class CountingStdout(io.StringIO):
    """A stdout stand-in that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_report_reaches_stdout_in_few_writes(monkeypatch):
    # each write to an unbuffered stdout is one system call: the report's
    # small pieces are joined before they are written
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["run", str(GOLDEN / "long_runs.mvg")]) == 1
    assert stdout.getvalue().encode("utf-8") == (GOLDEN / "long_runs.out").read_bytes()
    assert 0 < stdout.writes < 50


def test_listing_at_the_cap_is_held_as_runs():
    # 10^5 entries over two fibers are 3 runs, at most 2k for k fibers: the
    # outcome lists no entry one by one
    report = run_text(
        "group G = fibers [3, 2] unit [(1,0),(1,0)]\n"
        'goodseq G {"coords":[{"m":%d,"a":1},{"m":5,"a":0}]}\n' % (MAX_LISTED - 1)
    )
    detail = report.outcomes[0]["detail"]
    assert detail["length"] == MAX_LISTED
    assert len(detail["entries"]) == len(detail["elements"]) == 3 <= 2 * 2
    assert sum(n for n, _ in detail["entries"]) == MAX_LISTED


def test_report_at_the_cap_is_written_in_bounded_memory(tmp_path):
    # the 23.5 MB report of the listing above reaches its file in blocks: no
    # copy of the whole report is ever held
    path = write(
        tmp_path,
        "cap.mvg",
        "group G = fibers [3, 2] unit [(1,0),(1,0)]\n"
        'goodseq G {"coords":[{"m":%d,"a":1},{"m":5,"a":0}]}\n' % (MAX_LISTED - 1),
    )
    report = tmp_path / "report.json"
    with open(report, "w", encoding="utf-8") as fh, redirect_stdout(fh):
        tracemalloc.start()
        try:
            assert main(["run", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20
    text = Path(path).read_text(encoding="utf-8")
    assert report.read_text(encoding="utf-8") == json_oracle(execute(parse_script(text)).as_json())


def test_goodseq_rejects_negative_element():
    with pytest.raises(SemanticError, match="nonnegative"):
        run_text('group G = fibers [3] unit [(1,0)]\ngoodseq G {"coords":[{"m":-1,"a":1}]}')


def test_kind_mismatch_is_semantic():
    with pytest.raises(SemanticError, match="needs 'group'"):
        run_text("algebra A = chain 2\ngamma A")


def test_chain_zero_is_semantic():
    with pytest.raises(SemanticError, match="chain height"):
        run_text("algebra A = chain 0")


def test_table_failing_axioms_is_semantic():
    with pytest.raises(SemanticError, match="violates the"):
        run_text('algebra A = table {"size":2,"oplus":[[0,1],[1,0]],"neg":[1,0]}')


@st.composite
def table_scripts(draw):
    """`algebra NAME = table {…}` then `check NAME`, the table a relabelled
    chain product, as it is or with one oplus cell or one neg entry changed;
    drawn with the algebra the table denotes."""
    product = chain_product(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    s = product.size
    lawful = permuted_copy(product, [0] + draw(st.permutations(range(1, s))))
    op, ng = [list(row) for row in lawful.oplus], list(lawful.neg)
    elements, shifts = st.integers(0, s - 1), st.integers(1, s - 1)
    change = draw(st.sampled_from(["none", "oplus", "neg"]))
    if change == "oplus":
        a, b = draw(elements), draw(elements)
        op[a][b] = (op[a][b] + draw(shifts)) % s
    elif change == "neg":
        a = draw(elements)
        ng[a] = (ng[a] + draw(shifts)) % s
    name = draw(st.from_regex(r"[A-Z][A-Za-z0-9_]{0,4}", fullmatch=True))
    table = json.dumps(
        {"size": s, "oplus": op, "neg": ng},
        separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
    )
    return f"algebra {name} = table {table}\ncheck {name}\n", FiniteMVAlgebra(s, op, ng)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=table_scripts())
def test_table_literals_at_the_axiom_boundary(tmp_path, capsys, case):
    # one JSON document, exit 0 on a lawful table and 3 with the exhaustive
    # check's first violations on a lawless one, never exit 4
    text, algebra = case
    path = tmp_path / "table.mvg"
    path.write_text(text)
    code = main(["run", str(path)])
    payload = json.loads(capsys.readouterr().out)
    full = axioms_full(algebra)
    if full.ok:
        assert code == 0 and payload["overall"] == "pass"
    else:
        assert code == 3
        first = full.violations[0][0]
        assert payload["error"]["message"] == f"table violates the {first} axiom (line 1)"
        assert payload["error"]["counterexample"] == {
            "violations": [[n, list(w)] for n, w in full.violations[:5]]
        }


def test_lawless_hom_is_semantic():
    with pytest.raises(SemanticError, match="oplus law") as err:
        run_text(
            "algebra A = chain 1\nalgebra B = chain 2\nhom h : A -> B { 0->0, 1->1 }"
        )
    assert err.value.counterexample is not None


def test_non_total_hom_is_semantic():
    with pytest.raises(SemanticError, match="unassigned"):
        run_text("algebra A = chain 2\nalgebra B = chain 2\nhom h : A -> B { 0->0 }")


def test_group_unit_must_be_positive():
    with pytest.raises(SemanticError, match="unit"):
        run_text("group G = fibers [2, 2] unit [(1,0), (0,0)]")


def test_group_unit_arity_mismatch():
    with pytest.raises(SemanticError, match="unit"):
        run_text("group G = fibers [2, 2] unit [(1,0)]")


def test_element_out_of_range_is_semantic():
    with pytest.raises(SemanticError, match="offset"):
        run_text('group G = fibers [2] unit [(1,0)]\ngoodseq G {"coords":[{"m":0,"a":7}]}')


@pytest.mark.parametrize("command", ["goodseq G", "member G", "goodseq A", "member h"])
def test_an_element_of_the_wrong_arity_is_semantic(capsys, command):
    # one coordinate where the group, or the star of A (two fibers), has two
    head = "group G = fibers [2, 3] unit [(1,0), (1,0)]\nalgebra A = chain 1 * chain 1\n"
    head += "hom h : A -> A { 0->0, 1->1, 2->2, 3->3 }\n"
    literal = '{"coords": [{"m": 1, "a": 0}]}'
    code = _run_text(f"{head}{command} {literal}\n", RunConfig())
    error = json.loads(capsys.readouterr().out)["error"]
    assert (code, error["code"], error["line"]) == (3, "semantic", 4)
    assert error["counterexample"] == json.loads(literal)


@pytest.mark.parametrize("expr", ["chain 1 * G", "G * chain 1", "G", "chain 1 * chain 1 * G"])
def test_a_group_inside_an_algebra_expression_is_semantic(capsys, expr):
    code = _run_text(f"{GROUP}algebra A = {expr}\n", RunConfig())
    error = json.loads(capsys.readouterr().out)["error"]
    assert (code, error["code"], error["line"]) == (3, "semantic", 2)
    assert error["counterexample"] == {"name": "G", "kind": "group"}


def test_a_product_binds_the_left_fold_of_its_factors():
    # algebras are interned, so the fold is the very object built pairwise
    runner = interp._Runner(RunConfig())
    runner.define_algebra(parse_script("algebra A = chain 1 * chain 1 * chain 2").statements[0])
    c1, c2 = make_chain(1), make_chain(2)
    assert runner.env["A"][0] == "algebra"
    assert runner.env["A"][1] is make_product(make_product(c1, c1), c2)


def test_every_statement_and_command_the_parser_emits_has_a_handler(tmp_path):
    # one statement of each type and one command of each keyword: every type
    # has its entry in the handler table, every kind its `cmd_` method, and
    # the script runs through, each command to an outcome
    element = '{"coords": [{"m": 1, "a": 0}]}'
    commands = {
        "gamma": "gamma G",
        "goodseq": f"goodseq G {element}",
        "member": f"member G {element}",
        "check": "check all --max-size 2 --window 1",
        "export": f'export A "{tmp_path}/a.json"',
    }
    text = GROUP + "algebra A = chain 1 * chain 1\nhom h : A -> A { 0->0, 1->1, 2->2, 3->3 }\n"
    text += "\n".join(commands.get(kind, f"{kind} A") for kind in COMMANDS)
    statements = parse_script(text).statements
    assert set(map(type, statements)) == set(interp._HANDLERS)
    kinds = [stmt.kind for stmt in statements if isinstance(stmt, Command)]
    assert kinds == list(COMMANDS)
    assert all(callable(getattr(interp._Runner, f"cmd_{kind}", None)) for kind in kinds)
    assert [o["command"] for o in run_text(text).outcomes] == kinds


def test_huge_element_literal_renders_unchanged():
    # the literal crosses pairs -> integers -> pairs and comes back verbatim
    # in the counterexample of the refused good sequence
    literal = {"coords": [{"a": 1, "m": -(10**100)}]}
    with pytest.raises(SemanticError, match="nonnegative") as info:
        run_text(f"group G = fibers [3] unit [(1,0)]\ngoodseq G {json.dumps(literal)}")
    assert json.loads(mvgamma.dumps(info.value.counterexample)) == literal


def refuse(*_args):
    raise AssertionError("a carrier above the cap reached construction")


# One carrier over the cap per form; 257 is prime, so the smallest product of
# two chains above the cap has 2 x 129 elements.
@pytest.mark.parametrize(
    "text,size,builder",
    [
        (f"algebra A = chain {MAX_CARRIER}", MAX_CARRIER + 1, "make_chain"),
        ("algebra A = chain 1 * chain 128", 258, "make_product_many"),
        (
            f'algebra A = table {{"size": {MAX_CARRIER + 1}, "oplus": [], "neg": []}}',
            MAX_CARRIER + 1,
            "algebra_from_json",
        ),
        (f"group G = fibers [{MAX_CARRIER + 1}] unit [(1,0)]", MAX_CARRIER + 1, "make_chain"),
        (f"group G = fibers [2] unit [({MAX_CARRIER},0)]\ngamma G", MAX_CARRIER + 1, "gamma_segment"),
    ],
)
def test_carrier_above_the_cap_is_semantic(monkeypatch, text, size, builder):
    monkeypatch.setattr(interp, builder, refuse)
    with pytest.raises(SemanticError, match="above the cap") as err:
        run_text(text)
    assert err.value.line == 1
    assert err.value.counterexample == {"size": size, "cap": MAX_CARRIER}


def test_a_long_product_is_refused_as_a_short_one_is(capsys):
    # the factors are evaluated and capped one by one, with no recursion
    # down the left-nested product, so 3,000 factors stop where 10 do
    outs = []
    for factors in (10, 3000):
        code = _run_text("algebra A = " + " * ".join(["chain 1"] * factors), RunConfig())
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 3 and "product would have 512 elements" in outs[0][1]


@pytest.mark.parametrize("depth", [600, 1000, 5000])
@pytest.mark.parametrize(
    "head, column, what",
    [("goodseq G ", 11, "an element literal"), ("algebra A = table ", 19, "an algebra table")],
    ids=["element", "table"],
)
def test_deeply_nested_literals_keep_the_error_contract(capsys, depth, head, column, what):
    # a literal the decoder cannot nest is a syntax error at the literal; one
    # it can nest is a semantic error whose counterexample is written in full
    literal = f"{'[' * depth}{']' * depth}"
    code = _run_text(f"{GROUP}{head}{literal}", RunConfig())
    error = json.loads(capsys.readouterr().out)["error"]
    if depth < 1000:
        assert (code, error["code"], error["line"]) == (3, "semantic", 2)
        assert error["counterexample"] == json.loads(literal)
    else:
        message = f"expected {what}: nested too deeply (line 2, column {column})"
        assert (code, error["code"], error["message"]) == (2, "syntax", message)


@pytest.mark.parametrize("frames", [0, 200])
@pytest.mark.parametrize(
    "head, column, what",
    [("goodseq G ", 11, "an element literal"), ("algebra A = table ", 19, "an algebra table")],
    ids=["element", "table"],
)
def test_the_nesting_limit_does_not_move_with_the_callers_stack(
    capsys, frames, head, column, what
):
    # 650 levels parse and 701 are a syntax error, from this stack and from
    # 200 frames further down it: the limit is a fixed depth, not what is
    # left of the interpreter's recursion limit
    below, above = (f"{'[' * d}{']' * d}" for d in (650, MAX_NESTING + 1))
    parsed = called_deeper(frames, parse_script, f"{GROUP}{head}{below}").statements[1]
    assert nesting(parsed.element if head.startswith("goodseq") else parsed.expr.obj) == 650
    code = called_deeper(frames, _run_text, f"{GROUP}{head}{above}", RunConfig())
    error = json.loads(capsys.readouterr().out)["error"]
    message = f"expected {what}: nested too deeply (line 2, column {column})"
    assert (code, error["code"], error["message"]) == (2, "syntax", message)


DEEP = f"{'[' * (MAX_NESTING + 1)}{']' * (MAX_NESTING + 1)}"


@pytest.mark.parametrize(
    "body, code, line, reason",
    [
        (f"goodseq G 5\ngoodseq G {DEEP}", 2, 3, "nested too deeply"),
        (f"goodseq G x\ngoodseq G {DEEP}", 2, 2, "Expecting value"),
        (f"goodseq G {'[' * (MAX_NESTING + 1)}", 2, 2, "nested too deeply"),
        (f'goodseq G ["{"[" * 2000}"]', 3, 2, "bad element literal"),
    ],
    ids=["scalar-then-deep", "malformed-then-deep", "deep-and-unclosed", "brackets-in-a-string"],
)
def test_the_nesting_scan_reads_only_the_literal_it_starts_at(capsys, body, code, line, reason):
    # a scalar's scan does not run on into the next literal, an unclosed
    # literal is judged by its depth before its syntax, and a string's
    # brackets are text: each error is its own literal's, on its own line
    assert _run_text(f"{GROUP}{body}\n", RunConfig()) == code
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["line"] == line and reason in error["message"]


def test_a_counterexample_too_deep_to_write_is_null(monkeypatch, capsys):
    # past what the report writer can nest, the error keeps its shape and
    # exit code, and only the counterexample is dropped
    written = []

    def shallow_dumps(value):
        if not written:
            written.append(value)
            raise RecursionError("maximum recursion depth exceeded")
        return dumps(value)

    monkeypatch.setattr(cli, "dumps", shallow_dumps)
    code = _run_text(f"{GROUP}goodseq G [[0]]", RunConfig())
    error = json.loads(capsys.readouterr().out)["error"]
    assert written[0]["error"]["counterexample"] == [[0]]
    assert (code, error["code"], error["line"]) == (3, "semantic", 2)
    assert error["counterexample"] is None


@pytest.mark.parametrize(
    "exc, message",
    [
        (InternalInvariantError("probe"), "probe"),
        (ZeroDivisionError("probe"), "ZeroDivisionError: probe"),
    ],
    ids=["invariant", "unplanned"],
)
def test_a_breach_during_the_run_exits_4(monkeypatch, capsys, exc, message):
    def breach(*_args):
        raise exc

    monkeypatch.setattr(cli, "execute", breach)
    assert main(["check-all"]) == 4
    error = {"code": "internal", "message": message}
    assert json.loads(capsys.readouterr().out) == {"error": error}


def test_carrier_at_the_cap_is_accepted(monkeypatch):
    monkeypatch.setattr(interp, "gamma_segment", refuse)
    report = run_text(
        f"algebra A = chain {MAX_CARRIER - 1}\ngroup G = fibers [2] unit [({MAX_CARRIER - 1},0)]"
    )
    assert report.exit_code == 0


def test_freequotient_above_96_elements_exits_zero(tmp_path, capsys):
    # 97 elements: freequotient is bounded by the carrier cap alone
    assert main(["run", write(tmp_path, "fq.mvg", "algebra A = chain 96\nfreequotient A\n")]) == 0
    detail = json.loads(capsys.readouterr().out)["commands"][0]["detail"]
    assert (detail["size"], detail["free_factors"], detail["star_factors"]) == (97, [0], [0])


def test_freequotient_above_the_carrier_cap_exits_3(tmp_path, capsys):
    text = f"algebra A = chain {MAX_CARRIER}\nfreequotient A\n"
    assert main(["run", write(tmp_path, "fq.mvg", text)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["code"], error["line"]) == ("semantic", 1)
    assert error["counterexample"] == {"size": MAX_CARRIER + 1, "cap": MAX_CARRIER}


def test_check_single_group():
    report = run_text("group G = fibers [2, 3] unit [(1,0),(1,0)]\ncheck G")
    assert report.exit_code == 0
    detail = json.loads(text_of(report))["commands"][0]["detail"]
    assert detail == {
        "upsilon": True,
        "coordinate_ideals": True,
        "good_sequence_sums": True,
    }


def test_check_single_hom():
    report = run_text(
        "algebra A = chain 1\nalgebra B = chain 3\n"
        "hom h : A -> B { 0->0, 1->3 }\ncheck h"
    )
    assert report.exit_code == 0


def test_roundtrip_group_command():
    report = run_text("group G = fibers [2, 2] unit [(1,1),(1,0)]\nroundtrip G", window=3)
    assert report.exit_code == 0
    detail = json.loads(text_of(report))["commands"][0]["detail"]
    for flag in (
        "additive",
        "order_embedding",
        "preserves_unit",
        "segment_identity",
        "surjective",
        "box_is_circle",
    ):
        assert detail[flag] is True


def test_export_writes_canonical_json(tmp_path):
    out = tmp_path / "алгебра.json"
    report = run_text(f'algebra A = chain 2\nexport A "{out}"')
    assert report.exit_code == 0
    loaded = loads(out.read_text(encoding="utf-8"))
    assert loaded.size == 3


def test_export_to_unwritable_path_is_semantic(tmp_path):
    with pytest.raises(SemanticError, match="cannot write"):
        run_text(f'algebra A = chain 2\nexport A "{tmp_path}/no/such/dir/a.json"')


def test_report_is_deterministic():
    text = "algebra A = chain 2\nalgebra B = A * A\nspec B\nroundtrip B"
    assert text_of(run_text(text)) == text_of(run_text(text))


# ------------------------------------------------------------------ CLI shell


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_pass_is_zero(tmp_path, capsys):
    path = write(tmp_path, "ok.mvg", "algebra A = chain 2\nroundtrip A\n")
    assert main(["run", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "pass"


def test_cli_failed_check_is_one(tmp_path, capsys):
    path = write(tmp_path, "fail.mvg", "algebra A = chain 1\nfreequotient A --keep-zero\n")
    assert main(["run", path]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] == "fail"


def test_cli_parse_error_is_two(tmp_path, capsys):
    path = write(tmp_path, "parse.mvg", "algebra A = chain")
    assert main(["run", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "syntax"
    assert error["line"] == 1 and error["column"] == 18


def test_cli_semantic_error_is_three(tmp_path, capsys):
    path = write(
        tmp_path,
        "sem.mvg",
        "algebra A = chain 1\nalgebra B = chain 2\nhom h : A -> B { 0->0, 1->1 }\n",
    )
    assert main(["run", path]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "semantic"
    assert error["counterexample"]["violations"]


def test_cli_missing_file_is_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.mvg")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "io"


def test_cli_json_out(tmp_path, capsys):
    path = write(tmp_path, "ok.mvg", "algebra A = chain 2\nspec A\n")
    out = tmp_path / "report.json"
    assert main(["run", path, "--json-out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


def test_cli_unwritable_json_out_prints_only_the_error(tmp_path, capsys):
    path = write(tmp_path, "ok.mvg", "algebra A = chain 2\nspec A\n")
    out = tmp_path / "no" / "such" / "dir" / "report.json"
    assert main(["run", path, "--json-out", str(out)]) == 3
    payload = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert list(payload) == ["error"]
    assert payload["error"]["code"] == "semantic"


class ClosedStdout(io.StringIO):
    """A stdout stand-in whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_is_three(monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["check-all", "--max-size", "4", "--window", "2"]) == 3


class ClosingStdout(io.StringIO):
    """A stdout stand-in whose reader goes after the first write."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_cli_stdout_closed_mid_report_is_three(monkeypatch):
    # the long_runs report takes two writes: the second meets a closed pipe
    stdout = ClosingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["run", str(GOLDEN / "long_runs.mvg")]) == 3
    assert 0 < len(stdout.getvalue()) < len((GOLDEN / "long_runs.out").read_text())


@pytest.mark.parametrize("unbuffered", [True, False])
def test_cli_closed_stdout_pipe_is_three_without_a_traceback(unbuffered):
    # buffered, the rest of the report would raise again at the interpreter's
    # final flush, after main has returned
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mvgamma", "check-all", "--max-size", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, b"")


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_pauses_the_collector_and_restores_the_callers_state(monkeypatch, tmp_path, enabled):
    during = []
    real = cli._run_text

    def spy(*args):
        during.append(gc.isenabled())
        return real(*args)

    def breach(*_args):
        raise InternalInvariantError("probe")

    monkeypatch.setattr(cli, "_run_text", spy)
    ok = ["run", write(tmp_path, "ok.mvg", "algebra A = chain 2\nspec A\n")]
    runs = [  # argv, exit code (None: argparse exits), a patch for the run
        (ok, 0, None),
        (["run", str(tmp_path / "missing.mvg")], 2, None),
        (["run", write(tmp_path, "bad.mvg", "algebra A =\n")], 2, None),
        (["run", write(tmp_path, "cap.mvg", "algebra A = chain 1 * chain 128\n")], 3, None),
        (ok, 4, (cli, "execute", breach)),
        (ok, 3, (sys, "stdout", ClosedStdout())),
        (["run"], None, None),
    ]
    after = []
    try:
        for argv, code, patch in runs:
            (gc.enable if enabled else gc.disable)()
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(*patch)
                if code is None:
                    with pytest.raises(SystemExit):
                        main(argv)
                else:
                    assert main(argv) == code
            after.append(gc.isenabled())
    finally:
        gc.enable()
    assert during == [False] * 5
    assert after == [enabled] * len(runs)


def test_a_paused_run_leaves_no_more_cycles_than_an_empty_script(monkeypatch, tmp_path):
    # in a fresh interpreter: what the collector finds after a run is
    # argparse's parser, as many objects for the carriers workload as for
    # an empty script
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    carriers = write(tmp_path, "carriers.mvg", workloads.build("carriers", 3).script)
    empty = write(tmp_path, "empty.mvg", "")
    code = (
        "import gc, sys\n"
        "from mvgamma.cli import main\n"
        "gc.collect()\n"
        "found = []\n"
        "for path in sys.argv[1:]:\n"
        "    assert main(['run', path]) == 0\n"
        "    found.append(gc.collect())\n"
        "print(*found, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, empty, carriers, empty],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    first_empty, after_carriers, second_empty = map(int, proc.stderr.split())
    assert after_carriers <= first_empty == second_empty


def test_a_product_table_is_built_once(fresh_memos):
    # the definition builds the product in one step, and the chain
    # decomposition behind spec and check finds that table in the cache
    report = run_text("algebra A = chain 11 * chain 2 * chain 4\nspec A\ncheck A")
    assert report.exit_code == 0
    assert mv_core._product.cache_info().misses == 1


def test_a_product_over_the_cap_keeps_its_error(capsys):
    # capped factor by factor: 4 * 8 = 32 passes, 32 * 9 = 288 does not
    assert _run_text("algebra A = chain 3 * chain 7 * chain 8\n", RunConfig()) == 3
    error = {
        "code": "semantic",
        "counterexample": {"cap": 256, "size": 288},
        "line": 1,
        "message": "product would have 288 elements, above the cap of 256 (line 1)",
    }
    assert json.loads(capsys.readouterr().out) == {"error": error}


def test_cli_check_all(capsys):
    assert main(["check-all", "--max-size", "4", "--window", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    suites = {s["name"]: s for s in payload["commands"][0]["detail"]["suites"]}
    assert set(suites) == {
        "axioms",
        "pair_groups",
        "chain_roundtrip",
        "general_roundtrip",
        "good_sequences",
        "naturality",
        "segment_ideals",
        "spectrum_oracle",
        "free_quotient",
    }
    assert all(s["ok"] for s in suites.values())


def test_cli_byte_identical_runs(tmp_path):
    path = write(
        tmp_path,
        "mix.mvg",
        "algebra A = chain 2 * chain 3\nspec A\nstar A\nroundtrip A\n"
        'group G = fibers [2,3] unit [(1,0),(1,1)]\ngamma G\ngoodseq G '
        '{"coords":[{"m":1,"a":0},{"m":0,"a":1}]}\nfreequotient A\n',
    )
    cmd = [sys.executable, "-m", "mvgamma.cli", "run", path]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


GROUP = "group G = fibers [2] unit [(1,0)]\n"


@pytest.mark.parametrize(
    "argv,script,line,field",
    [
        (["check-all", "--window", "0"], None, 1, "window"),
        (["check-all", "--max-size", "1"], None, 1, "max_size"),
        (["run"], GROUP + "check G --window 0\n", 2, "window"),
        (["run"], GROUP + "check G --window -1\n", 2, "window"),
        (["run", "--window", "0"], GROUP + "roundtrip G\n", 2, "window"),
        # above the cap, refused on the parsed value before any work
        (["check-all", "--window", str(MAX_WINDOW + 1)], None, 1, "window"),
        (["check-all", "--max-size", "16", "--window", "30"], None, 1, "window"),
        (["run"], GROUP + f"check G --window {MAX_WINDOW + 1}\n", 2, "window"),
        (["run", "--window", "100"], GROUP + "roundtrip G\n", 2, "window"),
        (["run", "--window", "0"], "algebra A = chain 1\nroundtrip A\n", 2, "window"),
        (["run", "--window", "100"], "algebra A = chain 1\nroundtrip A\n", 2, "window"),
    ],
)
def test_out_of_range_window_or_max_size_is_three(tmp_path, capsys, argv, script, line, field):
    if script is not None:
        argv = argv[:1] + [write(tmp_path, "range.mvg", script)] + argv[1:]
    assert main(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "semantic"
    assert error["line"] == line
    assert field in error["counterexample"]


BOOLEAN_8 = "algebra A = " + " * ".join(["chain 1"] * 8) + "\nroundtrip A\n"


def test_roundtrip_of_an_eight_factor_boolean_algebra_walks_no_window(
    tmp_path, capsys, monkeypatch, fresh_memos
):
    # 256 elements, the carrier cap: generation is read off iota's onto-ness,
    # the membership verdicts off one canonical-entries call per segment
    # element, and no product window (5^8 elements at bound 2) is walked: the
    # package has no fiber-window builder left, only the tests' oracles do
    assert not hasattr(ProductLuGroup, "fiber_windows")
    calls = {"membership": 0, "entries": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, attr in (("membership", "generated_membership"), ("entries", "canonical_entries")):
        monkeypatch.setattr(equivalence, attr, counted(name, getattr(equivalence, attr)))
    assert main(["run", write(tmp_path, "boole.mvg", BOOLEAN_8)]) == 0
    detail = json.loads(capsys.readouterr().out)["commands"][0]["detail"]
    assert detail["checked"] == 256 and detail["window_generated"] is True
    assert calls == {"membership": 0, "entries": 256}


def test_roundtrip_of_an_eight_factor_boolean_algebra_runs_cold_in_seconds(tmp_path):
    # the window walk took 15 s here; the bound is loose, for a loaded host
    cmd = [sys.executable, "-m", "mvgamma", "run", write(tmp_path, "boole.mvg", BOOLEAN_8)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=source_env())
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["commands"][0]["detail"]["window_generated"] is True
    assert elapsed < 5.0


def test_window_cap_is_eight_and_the_cap_itself_runs(tmp_path, capsys):
    # the window bounds only good-sequence sums, linear in it: cold
    # `check-all --max-size 16` takes about as long at window 8 as at 4, and
    # a group's own check runs at once at the cap
    assert MAX_WINDOW == 8
    assert main(["run", write(tmp_path, "cap.mvg", GROUP + "check G --window 8\n")]) == 0
    error = json.loads(capsys.readouterr().out).get("error")
    assert error is None


def test_group_check_sums_good_sequences_to_bound_two_at_most(tmp_path, capsys, monkeypatch):
    # the sums cost (w·u_t + 1)^k: on this 256-element segment 3^8 = 6,561
    # at bound 2, but 9^8 (about 43 million) at window 8, so `check G` caps
    # the bound at min(2, window); a larger bound is recorded, not summed
    bounds, sums_hold = [], interp.good_sequence_sums_hold

    def spy(u, bound):
        bounds.append(bound)
        return bound <= 2 and sums_hold(u, bound)

    monkeypatch.setattr(interp, "good_sequence_sums_hold", spy)
    text = f"group G = fibers [{', '.join(['2'] * 8)}] unit [{', '.join(['(1,0)'] * 8)}]\n"
    assert main(["run", write(tmp_path, "wide.mvg", text + "check G --window 8\n")]) == 0
    assert json.loads(capsys.readouterr().out)["commands"][0]["detail"]["good_sequence_sums"]
    assert bounds == [2]


def test_group_verdicts_do_not_move_with_the_window(tmp_path, capsys):
    # upsilon is decided on the whole group; the window only sizes the
    # reported count, the product of 2·w·u_t + 1 over the unit u
    script = write(
        tmp_path,
        "tour_group.mvg",
        "group G = fibers [2, 3] unit [(1, 0), (1, 1)]\nroundtrip G\ncheck G\n",
    )
    verdicts = []
    for w in (1, 4, 8):
        assert main(["run", script, "--window", str(w)]) == 0
        roundtrip, check = json.loads(capsys.readouterr().out)["commands"]
        count = roundtrip["detail"].pop("window_elements")
        assert count == (2 * w * 1 + 1) * (2 * w * 3 + 1)  # u = (1, 3)
        verdicts.append((roundtrip["detail"], check["detail"]))
        if w == 4:
            assert count == 225  # as in the tour's golden report
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert all(verdicts[0][0].values()) and all(verdicts[0][1].values())


@pytest.mark.parametrize("command", ["goodseq", "member"])
def test_listing_above_the_cap_is_three_at_any_length(tmp_path, capsys, command):
    # 10^100 copies of the unit and one step more: 10^100 + 1 entries, refused
    # before any list is built (it used to exit 4 with an OverflowError)
    assert 3_163 <= MAX_LISTED
    element = '{"coords":[{"m":%d,"a":1}]}' % 10**100
    text = f"group G = fibers [3] unit [(1,0)]\n{command} G {element}\n"
    assert main(["run", write(tmp_path, "long.mvg", text)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["code"], error["line"]) == ("semantic", 2)
    assert error["counterexample"] == {"length": 10**100 + 1, "cap": MAX_LISTED}


def test_listing_at_the_cap_is_written_out(tmp_path, capsys):
    # unit (1,0) of a height-3 fiber is the integer 3, so m copies and no
    # offset give exactly m entries
    text = 'group G = fibers [3] unit [(1,0)]\ngoodseq G {"coords":[{"m":%d,"a":0}]}\n'
    assert main(["run", write(tmp_path, "at.mvg", text % MAX_LISTED)]) == 0
    (command,) = json.loads(capsys.readouterr().out)["commands"]
    assert command["detail"]["length"] == len(command["detail"]["entries"]) == MAX_LISTED
    assert main(["run", write(tmp_path, "above.mvg", text % (MAX_LISTED + 1))]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["counterexample"] == {"length": MAX_LISTED + 1, "cap": MAX_LISTED}


def test_check_all_report_matches_golden(capsys):
    assert main(["check-all", "--max-size", "6"]) == 0
    expected = (GOLDEN / "check_all_max_size_6.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_check_all_benchmark_sweep_matches_golden(capsys):
    # the benchmark's sweep: three fibers, unit heights up to 3, window 4;
    # no verdict or case count moves with the window, only the config line
    golden = (GOLDEN / "check_all_max_size_16_window_4.out").read_bytes()
    line = b'    "window": %d\n'
    assert golden.count(line % 4) == 1
    for window in (1, 4, 8):
        assert main(["check-all", "--max-size", "16", "--window", str(window)]) == 0
        expected = golden.replace(line % 4, line % window)
        assert capsys.readouterr().out.encode("utf-8") == expected


def test_tour_report_matches_golden(tmp_path, monkeypatch, capsys):
    # the tour exports to demos/out/ relative to the working directory
    (tmp_path / "demos" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(REPO / "demos" / "tour.mvg")]) == 0
    expected = (GOLDEN / "tour.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
    assert (tmp_path / "demos" / "out" / "product_algebra.json").is_file()


def test_long_runs_report_matches_golden(capsys):
    # copy index about 40: each report repeats a few segment elements many times
    assert main(["run", str(GOLDEN / "long_runs.mvg")]) == 1
    expected = (GOLDEN / "long_runs.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_presentations_report_matches_golden(capsys):
    # relation matrices of 16 to 24 columns, with and without the zero row
    assert main(["run", str(GOLDEN / "presentations.mvg")]) == 1
    expected = (GOLDEN / "presentations.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_large_presentations_report_matches_golden(capsys):
    # 98 to 128 columns: a chain, a product and a relabelled raw table
    assert main(["run", str(GOLDEN / "presentations_large.mvg")]) == 1
    expected = (GOLDEN / "presentations_large.out").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize(
    "argv", [["check-all", "--max-size", "6"], ["run", str(REPO / "demos" / "tour.mvg")]]
)
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, argv):
    # a report is the same bytes under every string hash seed; each run is
    # a fresh interpreter, and the tour exports into its own directory
    outputs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        (cwd / "demos" / "out").mkdir(parents=True)
        env = {**source_env(), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "mvgamma", *argv], cwd=cwd, env=env, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_python_m_mvgamma_matches_main(capsys):
    assert main(["check-all", "--max-size", "6"]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mvgamma", "check-all", "--max-size", "6"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_cli_entry_point_installed(tmp_path):
    # Do what an installer does with [project.scripts]: write the standard
    # console-script wrapper for the declared entry, then run it through PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "mvgamma" in scripts
    entry = EntryPoint("mvgamma", scripts["mvgamma"], "console_scripts")
    assert callable(entry.load())

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "mvgamma"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    script.chmod(0o755)

    src_dir = str(Path(mvgamma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        ["mvgamma", "--help"], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "check-all" in proc.stdout


@pytest.mark.skipif(
    shutil.which("mvgamma") is None, reason="mvgamma console script not installed"
)
def test_cli_installed_command_on_path():
    proc = subprocess.run(["mvgamma", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "check-all" in proc.stdout


# ------------------------------------------------------------------ grammar fuzz

COPIES = st.one_of(st.integers(-1, 3), st.integers(-(10**30), 10**30))
# Literals nested deeply, up to and past the 700-level limit and the decoder's
# own reach (about 1,000 levels).
NESTED = (st.sampled_from([600, 1000, 5000]) | st.integers(600, 5000)).map(
    lambda n: "[" * n + "]" * n
)


@st.composite
def table_literals(draw) -> str:
    """A `table` literal: a relabelled chain product, lawful or with one
    entry changed, or a malformed object, or a list nested deeply."""
    product = chain_product(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    s = product.size
    copy = permuted_copy(product, [0] + draw(st.permutations(range(1, s))))
    op, ng = [list(row) for row in copy.oplus], list(copy.neg)
    changes = ["none"] * 6 + ["oplus", "neg", "size", "range", "shape", "keys"] + ["nested"] * 2
    change, cell = draw(st.sampled_from(changes)), st.integers(0, s - 1)
    if change == "nested":
        return "table " + draw(NESTED)
    if change == "oplus":
        op[draw(cell)][draw(cell)] = draw(cell)
    elif change == "neg":
        ng[draw(cell)] = draw(cell)
    elif change == "range":
        ng[draw(cell)] = draw(st.sampled_from([-1, s, 10**30, "1", 0.5, None]))
    elif change == "shape":
        op = op[1:] if draw(st.booleans()) else [row[1:] for row in op]
    obj = {"size": draw(st.sampled_from([s + 1, 0, -1, 10**30])) if change == "size" else s}
    obj.update(oplus=op, neg=ng)
    if change == "keys":
        del obj[draw(st.sampled_from(sorted(obj)))]
    return "table " + json.dumps(obj)


ELEMENTS = st.one_of(
    st.lists(st.fixed_dictionaries({"m": COPIES, "a": st.integers(-1, 3)}), min_size=1, max_size=3)
    .map(lambda coords: {"coords": coords})
    .map(json.dumps),
    st.sampled_from([{"coords": []}, {"coords": [{"m": 1}]}, {"m": 1, "a": 0}]).map(json.dumps),
    NESTED.map('{{"coords": {}}}'.format),
)


@st.composite
def grammar_scripts(draw, tmp: str) -> list[str]:
    """A script drawn from the grammar: definitions, mostly lawful, of
    algebras, groups and homs, then also every command kind with its flags,
    on names mostly of the kind the command needs; now and then a name that
    is unbound, bound twice or of another kind."""
    bound: dict[str, str] = {}

    def use(*kinds: str) -> str:
        fitting = [n for n, k in bound.items() if k in kinds] or ["Z"]
        return draw(st.sampled_from(fitting * 8 + list(bound) + ["Z"]))

    chains = st.sampled_from([1, 2, 3] * 6 + [0, -1, 300, 10**30]).map("chain {}".format)
    lines = []
    for step in range(draw(st.integers(2, 7))):
        kinds = ["algebra", "group"] + ["hom", "command", "command"] * (step > 1)
        kind = draw(st.sampled_from(kinds))
        name = draw(st.sampled_from([f"N{step}"] * 20 + list(bound)))
        if kind == "algebra":
            form = draw(st.sampled_from(["chain", "product", "table"]))
            if form == "table":
                expr = draw(table_literals())
            elif form == "product" and "algebra" in bound.values():
                factors = draw(st.integers(1, 3000)) if draw(st.integers(0, 4)) == 0 else 1
                first = draw(st.sampled_from([use("algebra"), draw(chains)]))
                expr = " * ".join([first] + [draw(chains)] * factors)
            else:
                expr = draw(chains)
            lines.append(f"algebra {name} = {expr}")
        elif kind == "group":
            fiber = st.sampled_from([2, 3, 4] * 8 + [1, 0, -1])
            sizes = draw(st.lists(fiber, min_size=1, max_size=3))
            copies = st.sampled_from([1, 1, 1, 1, 2, 2, 0, -1, 10**30])
            unit = [(draw(copies), draw(st.integers(0, max(0, s - 2)))) for s in sizes]
            if draw(st.integers(0, 9)) == 0:
                unit = draw(st.sampled_from([unit[1:], unit + unit[:1]]))
            elif draw(st.integers(0, 9)) == 0:
                unit[0] = (unit[0][0], draw(st.sampled_from([-1, sizes[0] - 1, 10**30])))
            body = ", ".join(f"({m}, {a})" for m, a in unit)
            lines.append(f"group {name} = fibers {sizes} unit [{body}]")
        elif kind == "hom":
            arrows = st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 12)), max_size=5)
            pairs = draw(st.one_of(st.sampled_from([[(0, 0), (1, 1)], [(0, 0), (1, 2)]]), arrows))
            body = ", ".join(f"{a} -> {b}" for a, b in pairs)
            lines.append(f"hom {name} : {use('algebra')} -> {use('algebra')} {{ {body} }}")
        if kind != "command":
            bound[name] = kind
            continue
        commands = ["spec", "star", "gamma", "roundtrip", "goodseq", "member", "freequotient"]
        command = draw(st.sampled_from(commands + ["check", "export"]))
        if command in ("spec", "star", "freequotient"):
            flag = " --keep-zero" if command == "freequotient" and draw(st.booleans()) else ""
            lines.append(f"{command} {use('algebra')}{flag}")
        elif command == "gamma":
            lines.append(f"gamma {use('group')}")
        elif command == "roundtrip":
            lines.append(f"roundtrip {use('algebra', 'group')}")
        elif command in ("goodseq", "member"):
            kinds = ("algebra", "group") + (("hom",) if command == "member" else ())
            lines.append(f"{command} {use(*kinds)} {draw(ELEMENTS)}")
        elif command == "check":
            flags = [
                draw(st.sampled_from(["", f" --max-size {draw(st.integers(-1, 4))}"])),
                draw(st.sampled_from(["", " --window 9", f" --window {draw(st.integers(-1, 3))}"])),
            ]
            target = draw(st.sampled_from(["all", use("algebra", "group", "hom")]))
            lines.append(f"check {target}{''.join(draw(st.permutations(flags)))}")
        else:
            path = draw(st.sampled_from(["out.json", "missing/out.json"]))
            lines.append(f'export {use("algebra", "group", "hom")} "{tmp}/{path}"')
    return lines


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_scripts_from_the_grammar_never_break_the_contract(tmp_path, capsys, data):
    # scripts drawn from the grammar, lawful or not, print one JSON object
    # and exit 0-3: a verdict, a parse error or a semantic error, never 4
    lines = data.draw(grammar_scripts(str(tmp_path)))
    code = _run_text("\n".join(lines) + "\n", RunConfig(max_size=4, window=2))
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict) and code in (0, 1, 2, 3), (lines, payload)
    if code in (0, 1):
        assert payload["overall"] == ("pass" if code == 0 else "fail")
    else:
        assert payload["error"]["code"] != "internal"
