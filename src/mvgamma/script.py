"""Parser for the command script language.

One statement per construct, whitespace-insensitive, comments from "#" to end
of line.  Statements:

    algebra NAME = <algebra-expr>
    hom NAME : NAME -> NAME { INT -> INT, ... }
    group NAME = fibers [INT, ...] unit [(INT, INT), ...]
    spec NAME | star NAME | gamma NAME | roundtrip NAME
    goodseq NAME <element-json> | member NAME <element-json>
    freequotient NAME [--keep-zero]
    check (all | NAME) [--max-size INT] [--window INT]   (flags in any order, each once)
    export NAME PATH

where <algebra-expr> is `chain INT`, a bound NAME, `table <json>`, or a
product of any number of these with `*`, one flat node, folded left;
elements are JSON fragments like {"coords": [{"m": 1, "a": 0}]}, nested at
most MAX_NESTING = 700 deep from any caller; PATH is a bare token or a
double-quoted string.  Fiber entries in a group are chain sizes; unit
entries are (copies, offset) pairs, one per fiber.  `check all` targets
"all", a keyword and so never a name.

Parsing is total: any input either yields a Script or raises a ScriptError
subclass carrying a 1-based line and column.  Names must be defined before
use and bound exactly once; both are enforced here, so an executing script
never sees an unbound name.  What a name is bound to is for the interpreter.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple

from .serialize import nested_too_deeply

__all__ = [
    "ScriptError",
    "ScriptLexError",
    "ScriptSyntaxError",
    "DuplicateNameError",
    "UnknownNameError",
    "ChainExpr",
    "NameExpr",
    "ProductExpr",
    "TableExpr",
    "AlgebraDef",
    "HomDef",
    "GroupDef",
    "Command",
    "Script",
    "parse_script",
]


class ScriptError(ValueError):
    """Base for everything parse_script can raise; carries position."""

    code = "script"

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class ScriptLexError(ScriptError):
    code = "lex"


class ScriptSyntaxError(ScriptError):
    code = "syntax"


class DuplicateNameError(ScriptError):
    code = "duplicate-name"


class UnknownNameError(ScriptError):
    code = "unknown-name"


class ChainExpr(NamedTuple):
    height: int


class NameExpr(NamedTuple):
    name: str


class ProductExpr(NamedTuple):
    factors: tuple


class TableExpr(NamedTuple):
    obj: Any


class AlgebraDef(NamedTuple):
    name: str
    expr: Any
    line: int


class HomDef(NamedTuple):
    name: str
    dom: str
    cod: str
    pairs: tuple[tuple[int, int], ...]
    line: int


class GroupDef(NamedTuple):
    name: str
    sizes: tuple[int, ...]
    unit: tuple[tuple[int, int], ...]
    line: int


class Command(NamedTuple):
    kind: str
    name: str | None = None
    element: Any = None
    path: str | None = None
    keep_zero: bool = False
    max_size: int | None = None
    window: int | None = None
    line: int = 0


class Script(NamedTuple):
    statements: tuple


KEYWORDS = frozenset(
    "algebra hom group chain table fibers unit spec star gamma roundtrip "
    "goodseq member freequotient check export all".split()
)

_BLANKS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_INT = r"-?[0-9]+"
_KEYWORD = f"(?:{'|'.join(sorted(KEYWORDS))})(?![A-Za-z0-9_])"


def _not_an_integer(text: str):
    raise ValueError(f"{text} is not an integer")


# Literals hold exact integers: a fraction, exponent, NaN or Infinity is a syntax error.
_INTEGER_JSON = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)

COMMANDS = tuple("spec star gamma roundtrip goodseq member freequotient check export".split())


class _Cursor:
    """A position in the text; `start` is where the last token began."""

    def __init__(self, text: str):
        self.text = text
        self.pos = self.start = 0

    def error(self, cls, message: str, pos: int | None = None):
        p = self.start if pos is None else pos
        raise cls(message, self.text.count("\n", 0, p) + 1, p - self.text.rfind("\n", 0, p))

    def skip(self):
        self.start = self.pos = _BLANKS.match(self.text, self.pos).end()

    def take(self, pattern: str, what: str | None = None) -> str | None:
        """Skip blanks and comments, then consume a match of pattern and
        return its text; on no match, return None, or raise "expected {what}"
        when what is given."""
        self.skip()
        m = re.compile(pattern).match(self.text, self.pos)
        if m is None:
            if what:
                self.error(ScriptSyntaxError, f"expected {what}")
            return None
        self.pos = m.end()
        return m.group()

    def punct(self, token: str):
        self.take(re.escape(token), repr(token))

    def integer(self, what: str) -> int:
        return int(self.take(_INT, what))

    def json_fragment(self, what: str):
        self.skip()
        start = self.pos
        try:  # decoded first, so that only a literal of many brackets is scanned
            value, self.pos = _INTEGER_JSON.raw_decode(self.text, start)
            if nested_too_deeply(self.text, start, self.pos):
                raise RecursionError
        except RecursionError:
            self.error(ScriptSyntaxError, f"expected {what}: nested too deeply")
        except ValueError as exc:  # a JSONDecodeError, or a number that is not an integer
            deep = nested_too_deeply(self.text, start)
            reason = "nested too deeply" if deep else getattr(exc, "msg", exc)
            self.error(ScriptSyntaxError, f"expected {what}: {reason}")
        return value


def parse_script(text: str) -> Script:
    """Parse text into a Script, resolving names as they are bound: a name is
    bound once its definition ends, so no definition can read its own name."""
    cur = _Cursor(text)
    names: set[str] = set()
    statements = []

    def name(what: str, new: bool = False) -> str:
        word = cur.take(_WORD, what)
        if new and word in KEYWORDS:
            cur.error(ScriptSyntaxError, f"{word!r} is a keyword, not a name")
        if new and word in names:
            cur.error(DuplicateNameError, f"name {word!r} is already bound")
        if not new and word not in names:
            cur.error(UnknownNameError, f"unknown name {word!r}")
        return word

    def algebra_atom():
        keyword = cur.take(_KEYWORD)
        if keyword == "chain":
            return ChainExpr(cur.integer("a chain height"))
        if keyword == "table":
            return TableExpr(cur.json_fragment("an algebra table"))
        if keyword:
            cur.error(ScriptSyntaxError, f"{keyword!r} cannot start an algebra expression")
        return NameExpr(name("an algebra expression"))

    def listed(item) -> tuple:
        """[item, item, ...], at least one item."""
        cur.punct("[")
        items = [item()]
        while cur.take(","):
            items.append(item())
        cur.punct("]")
        return tuple(items)

    def unit_pair() -> tuple[int, int]:
        cur.punct("(")
        m = cur.integer("a copy count")
        cur.punct(",")
        a = cur.integer("an offset")
        cur.punct(")")
        return m, a

    def expect_word(word: str):
        if cur.take(_WORD, repr(word)) != word:  # a wrong word is reported where it ends
            cur.error(ScriptSyntaxError, f"expected {word!r}", cur.pos)

    line, counted = 1, 0  # each newline is counted once, so a long script parses in linear time
    while (head := cur.take(_WORD)) or cur.pos < len(text):
        line += text.count("\n", counted, cur.start)
        counted = cur.start
        if head is None:
            cur.error(ScriptLexError, f"unexpected character {text[cur.pos]!r}")
        bound = name("a name", new=True) if head in ("algebra", "hom", "group") else None
        if head == "algebra":
            cur.punct("=")
            factors = [algebra_atom()]
            while cur.take(r"\*"):
                factors.append(algebra_atom())
            expr = ProductExpr(tuple(factors)) if factors[1:] else factors[0]
            statements.append(AlgebraDef(bound, expr, line))
        elif head == "hom":
            cur.punct(":")
            dom = name("the domain name")
            cur.punct("->")
            cod = name("the codomain name")
            cur.punct("{")
            pairs = []
            while not cur.take("}"):
                if pairs:
                    cur.punct(",")
                a = cur.integer("a carrier index")
                cur.punct("->")
                pairs.append((a, cur.integer("a carrier index")))
            statements.append(HomDef(bound, dom, cod, tuple(pairs), line))
        elif head == "group":
            cur.punct("=")
            expect_word("fibers")
            sizes = listed(lambda: cur.integer("a fiber chain size"))
            expect_word("unit")
            statements.append(GroupDef(bound, sizes, listed(unit_pair), line))
        elif head in COMMANDS:  # the target first: a bound name, or `all` for `check`
            every = head == "check" and cur.take(r"all(?![A-Za-z0-9_])")
            fields: dict[str, Any] = {"name": every or name("a bound name"), "line": line}
            if head in ("goodseq", "member"):
                fields["element"] = cur.json_fragment("an element literal")
            elif head == "freequotient":
                fields["keep_zero"] = cur.take("--keep-zero(?![a-z-])") is not None
            elif head == "check":
                while flag := cur.take("--(?:max-size|window)(?![a-z-])"):
                    key = flag[2:].replace("-", "_")
                    if key in fields:
                        cur.error(ScriptSyntaxError, f"repeated flag {flag!r}")
                    fields[key] = cur.integer("an integer")
            elif head == "export" and cur.take('"'):  # a quoted path
                try:
                    fields["path"], cur.pos = json.decoder.scanstring(text, cur.pos)
                except ValueError:
                    cur.error(ScriptSyntaxError, "unterminated path string")
            elif head == "export":
                fields["path"] = cur.take(r"[^\s#]+", "a path")
            statements.append(Command(head, **fields))
        elif head in KEYWORDS:
            cur.error(ScriptSyntaxError, f"{head!r} cannot start a statement")
        else:
            cur.error(ScriptSyntaxError, f"unknown statement {head!r}")
        if bound:  # bound once its definition ends
            names.add(bound)
    return Script(statements=tuple(statements))
