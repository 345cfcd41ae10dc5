"""Parser: grammar, positions, and the four error classes."""

import pytest

from mvgamma.script import (
    AlgebraDef,
    ChainExpr,
    Command,
    DuplicateNameError,
    GroupDef,
    HomDef,
    NameExpr,
    ProductExpr,
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
    assert first.expr == ProductExpr(ChainExpr(2), ChainExpr(3))
    assert second == Command(kind="spec", name="A", line=2)


def test_product_associates_left():
    s = parse_script("algebra A = chain 1 * chain 1 * chain 2")
    expr = s.statements[0].expr
    assert expr == ProductExpr(ProductExpr(ChainExpr(1), ChainExpr(1)), ChainExpr(2))


def test_name_reference_in_expression():
    s = parse_script("algebra A = chain 1\nalgebra B = A * chain 2")
    assert s.statements[1].expr == ProductExpr(NameExpr("A"), ChainExpr(2))


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
    assert check_g.max_size == 8 and check_g.window == 2 and not check_g.check_all
    assert check_all.check_all and check_all.max_size == 6 and check_all.window is None
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
    from mvgamma.script import ScriptError

    for junk in ["{", "algebra", "hom h :", "group G = fibers", "\x00", "€", "((((", "-"]:
        with pytest.raises(ScriptError) as err:
            parse_script(junk)
        assert err.value.line >= 1 and err.value.col >= 1
