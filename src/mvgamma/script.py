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

where <algebra-expr> is `chain INT`, a bound NAME, a product of
algebra-exprs with `*`, or `table <json>`; elements are JSON fragments like
{"coords": [{"m": 1, "a": 0}]}; PATH is a bare token or a double-quoted
string.  Fiber entries in a group are chain sizes; unit entries are
(copies, offset) pairs, one per fiber.

Parsing is total: any input either yields a Script or raises a ScriptError
subclass carrying a 1-based line and column.  Names must be defined before
use and bound exactly once; both are enforced here, so an executing script
never sees an unbound name.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple

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
    left: Any
    right: Any


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
    check_all: bool = False
    line: int = 0


class Script(NamedTuple):
    statements: tuple


KEYWORDS = frozenset(
    "algebra hom group chain table fibers unit spec star gamma roundtrip "
    "goodseq member freequotient check export all".split()
)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")
_FLAG = re.compile(r"--[a-z][a-z-]*")
_PATH = re.compile(r"[^\s#]+")


def _not_an_integer(text: str):
    raise ValueError(f"{text} is not an integer")


# Literals hold exact integers: a fraction, exponent, NaN or Infinity is a syntax error.
_INTEGER_JSON = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)

_COMMANDS_NAME_ONLY = ("spec", "star", "gamma", "roundtrip")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return line, col

    def error(self, cls, message: str, pos: int | None = None):
        line, col = self.location(pos)
        raise cls(message, line, col)

    def skip(self):
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                nl = text.find("\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            else:
                return

    @property
    def done(self) -> bool:
        self.skip()
        return self.pos >= len(self.text)

    def peek_word(self) -> str | None:
        self.skip()
        m = _WORD.match(self.text, self.pos)
        return m.group(0) if m else None

    def word(self, what: str = "a name") -> str:
        self.skip()
        m = _WORD.match(self.text, self.pos)
        if not m:
            self.error(ScriptSyntaxError, f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def integer(self, what: str = "an integer") -> int:
        self.skip()
        m = _INT.match(self.text, self.pos)
        if not m:
            self.error(ScriptSyntaxError, f"expected {what}")
        self.pos = m.end()
        return int(m.group(0))

    def punct(self, token: str):
        self.skip()
        if not self.text.startswith(token, self.pos):
            self.error(ScriptSyntaxError, f"expected {token!r}")
        self.pos += len(token)

    def try_punct(self, token: str) -> bool:
        self.skip()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def try_flag(self, flag: str) -> bool:
        self.skip()
        m = _FLAG.match(self.text, self.pos)
        if m and m.group(0) == flag:
            self.pos = m.end()
            return True
        return False

    def json_fragment(self, what: str = "a JSON value"):
        self.skip()
        try:
            value, end = _INTEGER_JSON.raw_decode(self.text, self.pos)
        except ValueError as exc:  # a JSONDecodeError, or a number that is not an integer
            self.error(ScriptSyntaxError, f"expected {what}: {getattr(exc, 'msg', exc)}")
        self.pos = end
        return value

    def path(self) -> str:
        self.skip()
        if self.text.startswith('"', self.pos):
            try:
                value, end = json.JSONDecoder().raw_decode(self.text, self.pos)
            except json.JSONDecodeError:
                self.error(ScriptSyntaxError, "unterminated path string")
            if not isinstance(value, str):
                self.error(ScriptSyntaxError, "expected a path string")
            self.pos = end
            return value
        m = _PATH.match(self.text, self.pos)
        if not m:
            self.error(ScriptSyntaxError, "expected a path")
        self.pos = m.end()
        return m.group(0)


def parse_script(text: str) -> Script:
    """Parse text into a Script, resolving names as they are bound: a name is
    bound once its definition ends, so no definition can read its own name."""
    cur = _Cursor(text)
    names: set[str] = set()
    statements = []

    def new_name() -> str:
        cur.skip()
        pos = cur.pos
        word = cur.word("a name")
        if word in KEYWORDS:
            cur.error(ScriptSyntaxError, f"{word!r} is a keyword, not a name", pos)
        if word in names:
            cur.error(DuplicateNameError, f"name {word!r} is already bound", pos)
        return word

    def used_name(what: str = "a bound name") -> str:
        cur.skip()
        pos = cur.pos
        word = cur.word(what)
        if word not in names:
            cur.error(UnknownNameError, f"unknown name {word!r}", pos)
        return word

    def algebra_atom():
        cur.skip()
        pos = cur.pos
        word = cur.peek_word()
        if word == "chain":
            cur.word()
            return ChainExpr(cur.integer("a chain height"))
        if word == "table":
            cur.word()
            return TableExpr(cur.json_fragment("an algebra table"))
        if word is None:
            cur.error(ScriptSyntaxError, "expected an algebra expression")
        if word in KEYWORDS:
            cur.error(ScriptSyntaxError, f"{word!r} cannot start an algebra expression", pos)
        return NameExpr(used_name("an algebra name"))

    def algebra_expr():
        node = algebra_atom()
        while cur.try_punct("*"):
            node = ProductExpr(node, algebra_atom())
        return node

    while not cur.done:
        cur.skip()
        line, _ = cur.location()
        head_pos = cur.pos
        head = cur.peek_word()
        if head is None:
            cur.error(
                ScriptLexError, f"unexpected character {cur.text[cur.pos]!r}"
            )
        cur.word()
        if head == "algebra":
            name = new_name()
            cur.punct("=")
            statements.append(AlgebraDef(name, algebra_expr(), line))
            names.add(name)
        elif head == "hom":
            name = new_name()
            cur.punct(":")
            dom = used_name("the domain name")
            cur.punct("->")
            cod = used_name("the codomain name")
            cur.punct("{")
            pairs = []
            if not cur.try_punct("}"):
                while True:
                    a = cur.integer("a carrier index")
                    cur.punct("->")
                    b = cur.integer("a carrier index")
                    pairs.append((a, b))
                    if cur.try_punct("}"):
                        break
                    cur.punct(",")
            statements.append(HomDef(name, dom, cod, tuple(pairs), line))
            names.add(name)
        elif head == "group":
            name = new_name()
            cur.punct("=")
            kw = cur.word("'fibers'")
            if kw != "fibers":
                cur.error(ScriptSyntaxError, "expected 'fibers'")
            cur.punct("[")
            sizes = [cur.integer("a fiber chain size")]
            while cur.try_punct(","):
                sizes.append(cur.integer("a fiber chain size"))
            cur.punct("]")
            kw = cur.word("'unit'")
            if kw != "unit":
                cur.error(ScriptSyntaxError, "expected 'unit'")
            cur.punct("[")
            unit = []
            while True:
                cur.punct("(")
                m = cur.integer("a copy count")
                cur.punct(",")
                a = cur.integer("an offset")
                cur.punct(")")
                unit.append((m, a))
                if not cur.try_punct(","):
                    break
            cur.punct("]")
            statements.append(GroupDef(name, tuple(sizes), tuple(unit), line))
            names.add(name)
        elif head in _COMMANDS_NAME_ONLY:
            statements.append(Command(kind=head, name=used_name(), line=line))
        elif head in ("goodseq", "member"):
            name = used_name()
            element = cur.json_fragment("an element literal")
            statements.append(Command(kind=head, name=name, element=element, line=line))
        elif head == "freequotient":
            name = used_name()
            keep = cur.try_flag("--keep-zero")
            statements.append(Command(kind=head, name=name, keep_zero=keep, line=line))
        elif head == "check":
            cur.skip()
            target = cur.peek_word()
            if target == "all":
                cur.word()
                name, check_all = None, True
            else:
                name, check_all = used_name(), False
            flags: dict[str, int] = {}
            while True:
                cur.skip()
                flag_pos = cur.pos
                flag = next((f for f in ("--max-size", "--window") if cur.try_flag(f)), None)
                if flag is None:
                    break
                if flag in flags:
                    cur.error(ScriptSyntaxError, f"repeated flag {flag!r}", flag_pos)
                flags[flag] = cur.integer("an integer")
            statements.append(
                Command(
                    kind="check",
                    name=name,
                    check_all=check_all,
                    max_size=flags.get("--max-size"),
                    window=flags.get("--window"),
                    line=line,
                )
            )
        elif head == "export":
            name = used_name()
            statements.append(Command(kind="export", name=name, path=cur.path(), line=line))
        else:
            if head in KEYWORDS:
                cur.error(ScriptSyntaxError, f"{head!r} cannot start a statement", head_pos)
            cur.error(ScriptSyntaxError, f"unknown statement {head!r}", head_pos)
    return Script(statements=tuple(statements))
