"""Parser: grammar, positions, and the four error classes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgamma.script import (
    AlgebraDef,
    ChainExpr,
    Command,
    DuplicateNameError,
    GroupDef,
    HomDef,
    NameExpr,
    ProductExpr,
    ScriptError,
    ScriptLexError,
    ScriptSyntaxError,
    TableExpr,
    UnknownNameError,
    parse_script,
)


def test_two_statements():
    s = parse_script("algebra A = chain 2 * chain 3\nspec A")
    assert len(s.statements) == 2
    first, second = s.statements
    assert isinstance(first, AlgebraDef)
    assert first.expr == ProductExpr((ChainExpr(2), ChainExpr(3)))
    assert second == Command(kind="spec", name="A", line=2)


def test_product_associates_left():
    # one flat node, its factors in order; the interpreter folds them left
    s = parse_script("algebra A = chain 1 * chain 1 * chain 2")
    expr = s.statements[0].expr
    assert expr == ProductExpr((ChainExpr(1), ChainExpr(1), ChainExpr(2)))


def test_name_reference_in_expression():
    s = parse_script("algebra A = chain 1\nalgebra B = A * chain 2")
    assert s.statements[1].expr == ProductExpr((NameExpr("A"), ChainExpr(2)))


def test_table_expression():
    s = parse_script('algebra A = table {"size":2,"oplus":[[0,1],[1,1]],"neg":[1,0]}')
    expr = s.statements[0].expr
    assert isinstance(expr, TableExpr)
    assert expr.obj["size"] == 2


def test_hom_definition():
    s = parse_script(
        "algebra A = chain 1\nalgebra B = chain 2\nhom h : A -> B { 0->0, 1->2 }"
    )
    h = s.statements[2]
    assert isinstance(h, HomDef)
    assert h.dom == "A" and h.cod == "B" and h.pairs == ((0, 0), (1, 2))


def test_group_definition():
    s = parse_script("group G = fibers [2, 3] unit [(1,0), (0,2)]")
    g = s.statements[0]
    assert isinstance(g, GroupDef)
    assert g.sizes == (2, 3) and g.unit == ((1, 0), (0, 2))


def test_commands_with_elements_and_flags():
    s = parse_script(
        "group G = fibers [2] unit [(1,0)]\n"
        'goodseq G {"coords":[{"m":2,"a":0}]}\n'
        "freequotient G --keep-zero\n"  # kind errors are for execution
        "check G --max-size 8 --window 2\n"
        "check all --max-size 6\n"
        "export G out/g.json\n"
        'export G "a path with spaces.json"\n'
    )
    goodseq, freeq, check_g, check_all, exp, exp_quoted = s.statements[1:]
    assert goodseq.element == {"coords": [{"m": 2, "a": 0}]}
    assert freeq.keep_zero
    assert check_g.name == "G" and check_g.max_size == 8 and check_g.window == 2
    assert check_all.name == "all" and check_all.max_size == 6 and check_all.window is None
    assert exp.path == "out/g.json"
    assert exp_quoted.path == "a path with spaces.json"


def test_check_flags_in_either_order():
    head = "algebra A = chain 2\n"
    size_first = parse_script(head + "check A --max-size 6 --window 2").statements[1]
    window_first = parse_script(head + "check A --window 2 --max-size 6").statements[1]
    assert size_first == window_first
    assert window_first.max_size == 6 and window_first.window == 2
    assert parse_script("check all --window 3").statements[0].window == 3


@pytest.mark.parametrize(
    "line,flag,col",
    [
        ("check all --window 2 --window 3", "--window", 22),
        ("check all --max-size 6 --window 2 --max-size 8", "--max-size", 35),
    ],
)
def test_repeated_check_flag_is_a_syntax_error(line, flag, col):
    with pytest.raises(ScriptSyntaxError, match=f"repeated flag '{flag}'") as err:
        parse_script(line)
    assert (err.value.line, err.value.col) == (1, col)


def test_comments_and_blank_lines():
    s = parse_script(
        "# a comment\n\nalgebra A = chain 1  # trailing comment\n# more\nspec A\n"
    )
    assert len(s.statements) == 2
    assert s.statements[1].line == 5


def test_missing_integer_is_a_syntax_error():
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script("algebra A = chain")
    assert err.value.line == 1
    assert err.value.col == 18


def test_unknown_name():
    with pytest.raises(UnknownNameError) as err:
        parse_script("spec A")
    assert err.value.code == "unknown-name"
    assert err.value.col == 6


def test_duplicate_name():
    with pytest.raises(DuplicateNameError) as err:
        parse_script("algebra A = chain 1\nalgebra A = chain 2")
    assert err.value.line == 2


def test_lexical_error():
    with pytest.raises(ScriptLexError):
        parse_script("algebra A = chain 1\n@spec A")


def test_keyword_cannot_be_a_name():
    with pytest.raises(ScriptSyntaxError, match="keyword"):
        parse_script("algebra chain = chain 1")


def test_keyword_cannot_start_expression():
    with pytest.raises(ScriptSyntaxError):
        parse_script("algebra A = spec")


def test_bad_json_fragment_positions():
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script('group G = fibers [2] unit [(1,0)]\ngoodseq G {"coords": }')
    assert err.value.line == 2


def test_hom_requires_defined_endpoints():
    with pytest.raises(UnknownNameError):
        parse_script("algebra A = chain 1\nhom h : A -> B { 0->0, 1->1 }")


@pytest.mark.parametrize(
    "text, col",
    [("algebra A = A", 13), ("algebra A = chain 1 * A", 23), ("hom A : A -> A { 0->0 }", 9)],
)
def test_definition_cannot_read_its_own_name(text, col):
    # a name is bound when its definition ends; reading it inside the
    # definition is an unknown name, not a lookup the interpreter misses
    with pytest.raises(UnknownNameError) as err:
        parse_script(text)
    assert err.value.col == col


@pytest.mark.parametrize("number", ["0.5", "1e3", "1.0", "NaN", "-Infinity"])
def test_literal_numbers_must_be_integers(number):
    # a float in a literal would reach the report's writer, which has no
    # float form; it is a syntax error at the literal instead
    text = f'group G = fibers [2] unit [(1,0)]\ngoodseq G {{"coords": [{{"m": {number}, "a": 0}}]}}'
    with pytest.raises(ScriptSyntaxError, match=f"{number} is not an integer") as err:
        parse_script(text)
    assert (err.value.line, err.value.col) == (2, 11)


def test_unknown_statement_word():
    with pytest.raises(ScriptSyntaxError, match="unknown statement"):
        parse_script("frobnicate A")


def test_statement_keyword_in_wrong_place():
    with pytest.raises(ScriptSyntaxError):
        parse_script("fibers [2]")


def test_empty_script_is_fine():
    s = parse_script("  # nothing but a comment\n")
    assert s.statements == ()


def test_parser_totality_on_junk():
    # anything at all either parses or raises a positioned ScriptError
    for junk in ["{", "algebra", "hom h :", "group G = fibers", "\x00", "€", "((((", "-"]:
        with pytest.raises(ScriptError) as err:
            parse_script(junk)
        assert err.value.line >= 1 and err.value.col >= 1


# One script for each message template the parser can raise, with the class,
# message and position it gives.  "expected 'fibers'" and "expected 'unit'"
# stand at the word's start when there is no word, and after a wrong word.
PARSE_ERRORS = [
    ("algebra A = chain 1\n@spec A", ScriptLexError, "unexpected character '@'", 2, 1),
    ("fibers [2]", ScriptSyntaxError, "'fibers' cannot start a statement", 1, 1),
    ("frobnicate A", ScriptSyntaxError, "unknown statement 'frobnicate'", 1, 1),
    ("algebra A = spec", ScriptSyntaxError, "'spec' cannot start an algebra expression", 1, 13),
    ("algebra chain = chain 1", ScriptSyntaxError, "'chain' is a keyword, not a name", 1, 9),
    (
        "algebra A = chain 1\nalgebra A = chain 2",
        DuplicateNameError,
        "name 'A' is already bound",
        2,
        9,
    ),
    ("spec A", UnknownNameError, "unknown name 'A'", 1, 6),
    ("check all --window 2 --window 3", ScriptSyntaxError, "repeated flag '--window'", 1, 22),
    (
        'algebra A = chain 1\nexport A "out.json',
        ScriptSyntaxError,
        "unterminated path string",
        2,
        10,
    ),
    ("algebra = chain 1", ScriptSyntaxError, "expected a name", 1, 9),
    ("spec 1", ScriptSyntaxError, "expected a bound name", 1, 6),
    ("algebra A = chain 1\nhom h : 1", ScriptSyntaxError, "expected the domain name", 2, 9),
    ("algebra A = chain 1\nhom h : A -> 1", ScriptSyntaxError, "expected the codomain name", 2, 14),
    ("algebra A = chain x", ScriptSyntaxError, "expected a chain height", 1, 19),
    (
        "algebra A = chain 1\nhom h : A -> A { 0 -> x }",
        ScriptSyntaxError,
        "expected a carrier index",
        2,
        23,
    ),
    ("group G = fibers [x]", ScriptSyntaxError, "expected a fiber chain size", 1, 19),
    ("group G = fibers [2] unit [(x, 0)]", ScriptSyntaxError, "expected a copy count", 1, 29),
    ("group G = fibers [2] unit [(1, x)]", ScriptSyntaxError, "expected an offset", 1, 32),
    ("check all --window x", ScriptSyntaxError, "expected an integer", 1, 20),
    ("algebra A = chain 1\nexport A  # no path", ScriptSyntaxError, "expected a path", 2, 20),
    ("algebra A = 1", ScriptSyntaxError, "expected an algebra expression", 1, 13),
    (
        "algebra A = table {",
        ScriptSyntaxError,
        "expected an algebra table: Expecting property name enclosed in double quotes",
        1,
        19,
    ),
    (
        "group G = fibers [2] unit [(1,0)]\ngoodseq G [1,",
        ScriptSyntaxError,
        "expected an element literal: Expecting value",
        2,
        11,
    ),
    ("algebra A chain 1", ScriptSyntaxError, "expected '='", 1, 11),
    ("algebra A = chain 1\nhom h A -> A { }", ScriptSyntaxError, "expected ':'", 2, 7),
    ("algebra A = chain 1\nhom h : A A { }", ScriptSyntaxError, "expected '->'", 2, 11),
    ("algebra A = chain 1\nhom h : A -> A 0 -> 0 }", ScriptSyntaxError, "expected '{'", 2, 16),
    (
        "algebra A = chain 1\nhom h : A -> A { 0 -> 0 1 -> 1 }",
        ScriptSyntaxError,
        "expected ','",
        2,
        25,
    ),
    ("group G = fibers 2 unit [(1,0)]", ScriptSyntaxError, "expected '['", 1, 18),
    ("group G = fibers [2 unit [(1,0)]", ScriptSyntaxError, "expected ']'", 1, 21),
    ("group G = fibers [2] unit (1,0)", ScriptSyntaxError, "expected '['", 1, 27),
    ("group G = fibers [2] unit [1,0]", ScriptSyntaxError, "expected '('", 1, 28),
    ("group G = fibers [2] unit [(1 0)]", ScriptSyntaxError, "expected ','", 1, 31),
    ("group G = fibers [2] unit [(1,0]", ScriptSyntaxError, "expected ')'", 1, 32),
    ("group G = fibers [2] unit [(1,0)", ScriptSyntaxError, "expected ']'", 1, 33),
    ("group G = 2", ScriptSyntaxError, "expected 'fibers'", 1, 11),
    ("group G = fiber [2]", ScriptSyntaxError, "expected 'fibers'", 1, 16),
    ("group G = fibers [2] 1", ScriptSyntaxError, "expected 'unit'", 1, 22),
    ("group G = fibers [2] units [(1,0)]", ScriptSyntaxError, "expected 'unit'", 1, 27),
]
CODES = {
    ScriptLexError: "lex",
    ScriptSyntaxError: "syntax",
    DuplicateNameError: "duplicate-name",
    UnknownNameError: "unknown-name",
}


@pytest.mark.parametrize("text, cls, message, line, col", PARSE_ERRORS)
def test_every_parse_error_keeps_its_class_code_message_and_position(
    text, cls, message, line, col
):
    with pytest.raises(ScriptError) as err:
        parse_script(text)
    assert type(err.value) is cls and err.value.code == CODES[cls]
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


# ------------------------------------------------------------ round trip

INTS = st.integers(-(10**20), 10**20)
PAIRS = st.tuples(INTS, INTS)
JSON = st.recursive(
    st.none() | st.booleans() | INTS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# blanks and comments between tokens; a comment runs to the end of its line
GAPS = st.sampled_from([" ", "\t", "\r", "\n", " \t\r\n ", "# c -> { [ \n", " #\n\t", "\n#\n#\r\n"])
# a stem with the statement's index is a new name, and never a keyword
STEMS = st.sampled_from(["A", "g", "_", "x_1", "chain", "all", "Table"])
COMMANDS = st.sampled_from(
    "spec star gamma roundtrip goodseq member freequotient check export".split()
)
FLAGS = st.permutations(["max_size", "window"]).flatmap(
    lambda flags: st.integers(0, 2).map(lambda n: flags[:n])
)
# a bare path runs to a blank or a comment, and does not start with a quote
BARE_PATHS = st.tuples(st.sampled_from("a/.-é"), st.text("a/._-é€\\'\"{", max_size=5)).map(
    "".join
)


@st.composite
def scripts(draw):
    """Statements drawn as records, each rendered as its tokens with random
    gaps between them; the records carry the line their first token is on."""
    bound: list[str] = []
    text, records = draw(GAPS), []
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["algebra", "group"] + ["hom", "command", "command"] * bool(bound)
        kind = draw(st.sampled_from(kinds))
        used = st.sampled_from(bound or [""])
        name = f"{draw(STEMS)}{len(records)}"
        if kind == "algebra":
            tokens, factors = ["algebra", name, "="], []
            for _ in range(draw(st.integers(1, 3))):
                atom = draw(st.sampled_from(["chain", "table", "name"][: 2 + bool(bound)]))
                if atom == "chain":
                    factor = ChainExpr(draw(INTS))
                    atom_tokens = ["chain", str(factor.height)]
                elif atom == "table":
                    factor = TableExpr(draw(JSON))
                    atom_tokens = ["table", json.dumps(factor.obj)]
                else:
                    factor = NameExpr(draw(used))
                    atom_tokens = [factor.name]
                tokens += (["*"] if factors else []) + atom_tokens
                factors.append(factor)
            expr = ProductExpr(tuple(factors)) if factors[1:] else factors[0]
            record = AlgebraDef(name, expr, 0)
        elif kind == "hom":
            dom, cod = draw(used), draw(used)
            pairs = tuple(draw(st.lists(PAIRS, max_size=3)))
            arrows = [t for a, b in pairs for t in [",", str(a), "->", str(b)]][1:]
            tokens = ["hom", name, ":", dom, "->", cod, "{", *arrows, "}"]
            record = HomDef(name, dom, cod, pairs, 0)
        elif kind == "group":
            sizes = tuple(draw(st.lists(INTS, min_size=1, max_size=3)))
            unit = tuple(draw(st.lists(PAIRS, min_size=1, max_size=3)))
            size_tokens = [t for n in sizes for t in [",", str(n)]][1:]
            unit_tokens = [t for m, a in unit for t in [",", "(", str(m), ",", str(a), ")"]][1:]
            tokens = ["group", name, "=", "fibers", "[", *size_tokens, "]"]
            tokens += ["unit", "[", *unit_tokens, "]"]
            record = GroupDef(name, sizes, unit, 0)
        else:
            command, target = draw(COMMANDS), draw(used)
            tokens, fields = [command, target], {"name": target}
            if command in ("goodseq", "member"):
                fields["element"] = draw(JSON)
                tokens.append(json.dumps(fields["element"]))
            elif command == "freequotient":
                fields["keep_zero"] = draw(st.booleans())
                tokens += ["--keep-zero"] * fields["keep_zero"]
            elif command == "check":
                if draw(st.booleans()):
                    tokens[1] = fields["name"] = "all"
                for flag in draw(FLAGS):
                    fields[flag] = draw(INTS)
                    tokens += ["--" + flag.replace("_", "-"), str(fields[flag])]
            elif command == "export":
                if draw(st.booleans()):
                    fields["path"] = draw(st.text(max_size=6))
                    tokens.append(json.dumps(fields["path"], ensure_ascii=draw(st.booleans())))
                else:
                    fields["path"] = draw(BARE_PATHS)
                    tokens.append(fields["path"])
            record = Command(kind=command, **fields)
        line = text.count("\n") + 1
        text += "".join(token + draw(GAPS) for token in tokens)
        records.append(record._replace(line=line))
        if kind != "command":
            bound.append(name)
    return text, tuple(records)


@settings(max_examples=150, deadline=None)
@given(case=scripts())
def test_rendered_records_parse_back_to_themselves(case):
    # every statement and command kind, flags in either order, quoted and
    # bare paths, with blanks, tabs, carriage returns and comments between
    # the tokens, parses back to the records it was rendered from
    text, records = case
    assert parse_script(text).statements == records
