"""JSON import/export for every value the package trades in.

Formats (all plain JSON, deterministic on export: sorted keys, two-space
indent, trailing newline):

  algebra    {"size": k, "oplus": [[...]], "neg": [...]}   zero is index 0
  morphism   {"dom": <algebra or name>, "cod": ..., "map": [...]}
  ideal      {"members": [indices]}
  spectrum   {"primes": [[indices], ...]} in canonical order
  element    {"coords": [{"m": int, "a": int}, ...]}
  group      {"fibers": [chain sizes], "u": <element>}
  snf report {"free_factors": [...], "star_factors": [...], "isomorphic": bool, ...}

Group elements are tuples of integers inside the package; in JSON each
fiber coordinate is the carry pair (m, a) of its chain.  An element is
written as a tuple of `ChangPair`s (`ProductLuGroup.to_pairs`) and read back
as one (it needs its group to become integers, `ProductLuGroup.from_pairs`);
a group's unit is converted here, in both directions.

`render` is the one point where package values are lowered: it writes the
text json's indent-2 encoder would give for `to_jsonable(value)` in one walk,
as pieces (text, count), the text written count times.  A list held as
`Runs` (count, value) is written out in full, but each run is one piece, and
each distinct group element is rendered once per nesting level.
`write_pieces` writes the pieces to a stream in blocks of bounded size, so
no writer holds a whole report; `dumps` joins them.

`loads` detects the kind from the key set and rebuilds the most structured
standalone value: algebras, morphisms, and groups come back as package
objects, elements as tuples of carry pairs; ideals and spectra come back as
member sets (they need an algebra for full reconstruction); reports come
back as dicts.  Schema violations raise SchemaError carrying a JSON
pointer to the offending spot; one nested past MAX_NESTING, to "/".
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, TextIO

from .equivalence import SNFReport
from .lgroup import ChangPair, ProductLuGroup, chain_fiber, make_product_group
from .mv_core import FiniteMVAlgebra, MVMorphism
from .spectrum import Ideal, Spectrum

__all__ = [
    "SchemaError",
    "Runs",
    "to_jsonable",
    "render",
    "dumps",
    "write_pieces",
    "export_json",
    "loads",
    "nested_too_deeply",
    "algebra_from_json",
    "morphism_from_json",
    "element_from_json",
    "group_from_json",
    "spectrum_members_from_json",
]


class SchemaError(ValueError):
    """A JSON value that does not fit any expected shape.

    `location` is a JSON pointer ("/u/coords/1/m") into the offending
    document.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location or "/"
        super().__init__(f"{message} (at {self.location})")


def _expect(cond: bool, message: str, where: str):
    if not cond:
        raise SchemaError(message, where)


def _int(value: Any, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), "expected an integer", where)
    return value


def _int_list(value: Any, where: str) -> list[int]:
    _expect(isinstance(value, list), "expected a list of integers", where)
    for i, v in enumerate(value):
        if type(v) is not int:
            raise SchemaError("expected an integer", f"{where}/{i}")
    return value


# -- export ---------------------------------------------------------------------


class Runs(tuple):
    """A list held as runs (count, value): its JSON form lists each value
    count times, in order."""

    __slots__ = ()


def to_jsonable(value: Any) -> Any:
    """Lower a package value to plain JSON-ready data."""
    if isinstance(value, FiniteMVAlgebra):
        return {
            "size": value.size,
            "oplus": [list(row) for row in value.oplus],
            "neg": list(value.neg),
        }
    if isinstance(value, MVMorphism):
        return {
            "dom": to_jsonable(value.dom),
            "cod": to_jsonable(value.cod),
            "map": list(value.map),
        }
    if isinstance(value, Ideal):
        return {"members": sorted(value.members)}
    if isinstance(value, Spectrum):
        return {"primes": [sorted(p.members) for p in value.primes]}
    if isinstance(value, ChangPair):
        return {"m": value.m, "a": value.a}
    if isinstance(value, Runs):
        return [x for n, v in value for x in [to_jsonable(v)] * n]
    if _is_element(value):
        return {"coords": [{"m": p.m, "a": p.a} for p in value]}
    if isinstance(value, ProductLuGroup):
        return {
            "fibers": [f.chain.size for f in value.fibers],
            "u": to_jsonable(value.to_pairs(value.u)),
        }
    if isinstance(value, SNFReport):
        return {
            "size": value.size,
            "identify_zero": value.identify_zero,
            "relation_rows": value.relation_rows,
            "spectrum_size": value.spectrum_size,
            "free_factors": list(value.free_factors),
            "star_factors": list(value.star_factors),
            "isomorphic": value.isomorphic,
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    # exactly: a record is a tuple subclass, and one with no branch above has no JSON form
    if type(value) in (list, tuple):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _is_element(value: Any) -> bool:
    """A group element as reports hold it: a nonempty tuple of carry pairs."""
    return isinstance(value, tuple) and bool(value) and all(isinstance(p, ChangPair) for p in value)


def render(value: Any) -> list[tuple[str, int]]:
    """The pieces of `dumps(value)`, in order: (text, count), the text
    written count times."""
    out: list[tuple[str, int]] = []
    _write(value, 0, out, {})
    out.append(("\n", 1))
    return out


def dumps(value: Any) -> str:
    """Deterministic JSON text: sorted keys, indent 2, one trailing newline."""
    return "".join(t * n for t, n in render(value))


def _write(value: Any, level: int, out: list, seen: dict) -> None:
    """Append `to_jsonable(value)` as json's indent-2 encoder writes it at
    nesting `level`, as pieces.  A container's items are (prefix, value,
    count), one per line: the value is rendered once, its text repeated is
    one piece.  `seen` maps (element, level) to a group element's text."""
    if type(value) is int:
        return out.append((int.__repr__(value), 1))
    if isinstance(value, str):  # json.dumps's own quoting, without its dispatch
        return out.append((_json_string(value), 1))
    if value is None or isinstance(value, int):  # bools and None keep json's text
        return out.append((json.dumps(value), 1))
    pairs = type(value) is tuple and {type(p) for p in value} == {ChangPair}
    if pairs and {type(c) for p in value for c in p} == {int}:  # equal ones write alike
        if (value, level) not in seen:
            pieces: list = []
            _write(to_jsonable(value), level, pieces, seen)
            seen[value, level] = ("".join(t * n for t, n in pieces), 1)
        return out.append(seen[value, level])
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        lowered = {str(k): v for k, v in value.items()}
        brackets, items = "{}", ((f"{_json_string(k)}: ", lowered[k], 1) for k in sorted(lowered))
    elif isinstance(value, Runs):
        brackets, items = "[]", (("", v, n) for n, v in value if n > 0)
    elif isinstance(value, list) or (type(value) is tuple and not _is_element(value)):
        if value and all(type(v) is int for v in value):
            text = f"[{inner}{(',' + inner).join(map(int.__repr__, value))}\n{'  ' * level}]"
            return out.append((text, 1))
        brackets, items = "[]", (("", v, 1) for v in value)
    else:
        return _write(to_jsonable(value), level, out, seen)
    sep = brackets[0] + inner
    for prefix, item, count in items:
        out.append((sep + prefix, 1))
        start = len(out)
        _write(item, level + 1, out, seen)
        if count > 1:
            out.append(("," + inner + "".join(t * n for t, n in out[start:]), count - 1))
        sep = "," + inner
    out.append((brackets if sep[0] == brackets[0] else f"\n{'  ' * level}{brackets[1]}", 1))


# Blocks of about this many characters: each write to an unbuffered stream is one system call.
_WRITE_SIZE = 1 << 16


def write_pieces(pieces: list[tuple[str, int]], stream: TextIO) -> None:
    """Write `render`'s pieces to a text stream in order, short ones joined up
    to _WRITE_SIZE characters.  A longer run is one block of whole copies, of
    at most that size, made once and written as often as it fits, then sliced."""
    held, size = [], 0
    for text, count in pieces:
        whole = len(text) * count
        if size and size + whole > _WRITE_SIZE:
            stream.write("".join(held))
            held, size = [], 0
        if count > 1 and whole > _WRITE_SIZE:
            block = text * (_WRITE_SIZE // len(text) or 1)
            full, whole = divmod(whole, len(block))
            for _ in range(full):
                stream.write(block)
            text, count = block[:whole], 1
        held.append(text * count)
        size += whole
    stream.write("".join(held))


def export_json(value: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_pieces(render(value), fh)


# -- import ---------------------------------------------------------------------


def algebra_from_json(obj: Any, where: str = "") -> FiniteMVAlgebra:
    _expect(isinstance(obj, dict), "expected an algebra object", where)
    for key in ("size", "oplus", "neg"):
        _expect(key in obj, f"missing key {key!r}", where)
    size = _int(obj["size"], f"{where}/size")
    _expect(size >= 2, "size must be at least 2", f"{where}/size")
    oplus = obj["oplus"]
    _expect(
        isinstance(oplus, list) and len(oplus) == size,
        f"oplus must be a {size}x{size} table",
        f"{where}/oplus",
    )
    rows = [_int_list(row, f"{where}/oplus/{i}") for i, row in enumerate(oplus)]
    for i, row in enumerate(rows):
        _expect(len(row) == size, f"row must have {size} entries", f"{where}/oplus/{i}")
    neg = _int_list(obj["neg"], f"{where}/neg")
    _expect(len(neg) == size, f"neg must have {size} entries", f"{where}/neg")
    try:
        return FiniteMVAlgebra(size, rows, neg)
    except ValueError as exc:
        raise SchemaError("table entry out of range", where) from exc


def morphism_from_json(obj: Any, where: str = "") -> MVMorphism:
    _expect(isinstance(obj, dict), "expected a morphism object", where)
    for key in ("dom", "cod", "map"):
        _expect(key in obj, f"missing key {key!r}", where)
    dom = algebra_from_json(obj["dom"], f"{where}/dom")
    cod = algebra_from_json(obj["cod"], f"{where}/cod")
    mp = _int_list(obj["map"], f"{where}/map")
    _expect(len(mp) == dom.size, f"map must have {dom.size} entries", f"{where}/map")
    _expect(all(0 <= v < cod.size for v in mp), "map entry out of range", f"{where}/map")
    return MVMorphism(dom, cod, tuple(mp))


def element_from_json(obj: Any, where: str = "") -> tuple[ChangPair, ...]:
    _expect(isinstance(obj, dict) and "coords" in obj, "expected an element object", where)
    coords = obj["coords"]
    _expect(isinstance(coords, list) and coords, "coords must be a nonempty list", f"{where}/coords")
    out = []
    for i, c in enumerate(coords):
        spot = f"{where}/coords/{i}"
        _expect(isinstance(c, dict) and set(c) >= {"m", "a"}, "expected {m, a}", spot)
        out.append(ChangPair(_int(c["m"], f"{spot}/m"), _int(c["a"], f"{spot}/a")))
    return tuple(out)


def group_from_json(obj: Any, where: str = "") -> ProductLuGroup:
    _expect(isinstance(obj, dict), "expected a group object", where)
    for key in ("fibers", "u"):
        _expect(key in obj, f"missing key {key!r}", where)
    sizes = _int_list(obj["fibers"], f"{where}/fibers")
    _expect(bool(sizes), "a group needs at least one fiber", f"{where}/fibers")
    _expect(all(s >= 2 for s in sizes), "fiber chain size must be at least 2", f"{where}/fibers")
    fibers = [chain_fiber(s - 1) for s in sizes]
    raw_u = element_from_json(obj["u"], f"{where}/u")
    try:
        return make_product_group(fibers, raw_u)
    except ValueError as exc:
        raise SchemaError(str(exc), f"{where}/u") from exc


def spectrum_members_from_json(obj: Any, where: str = "") -> tuple[frozenset[int], ...]:
    _expect(isinstance(obj, dict) and "primes" in obj, "expected a spectrum object", where)
    primes = obj["primes"]
    _expect(isinstance(primes, list), "primes must be a list", f"{where}/primes")
    return tuple(
        frozenset(_int_list(p, f"{where}/primes/{i}")) for i, p in enumerate(primes)
    )


_KIND_KEYS = (
    ({"size", "oplus", "neg"}, algebra_from_json),
    ({"dom", "cod", "map"}, morphism_from_json),
    ({"coords"}, element_from_json),
    ({"fibers", "u"}, group_from_json),
    ({"members"}, lambda o, w: frozenset(_int_list(o["members"], f"{w}/members"))),
    ({"primes"}, spectrum_members_from_json),
    ({"free_factors", "star_factors"}, lambda o, w: dict(o)),
)


MAX_NESTING = 700  # fixed, well below the 1,000 frames the decoder may recurse into
_BRACKETS = re.compile(r'[][{}]|"[^"\\]*(?:\\.[^"\\]*)*"')


def nested_too_deeply(text: str, pos: int = 0, end: int | None = None) -> bool:
    """Whether the JSON value at pos nests brackets more than MAX_NESTING deep:
    a scan that skips strings, made only if [pos, end) opens more than that."""
    opening = text.count("[", pos, end) + text.count("{", pos, end)
    if opening <= MAX_NESTING or not text.startswith(("[", "{"), pos):
        return False
    depth = 0
    for token in _BRACKETS.finditer(text, pos):
        depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(token.group(), 0)
        if not 0 < depth <= MAX_NESTING:
            return depth > 0
    return False


def loads(text: str):
    """Parse JSON text and rebuild the value whose key set it matches."""
    try:
        if nested_too_deeply(text.lstrip()):  # reported as the decoder's own overflow is
            raise RecursionError
        obj = json.loads(text)
    except RecursionError as exc:
        raise SchemaError("not JSON: nested too deeply", "/") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not JSON: {exc}", "/") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object", "/")
    for keys, build in _KIND_KEYS:
        if keys <= set(obj):
            return build(obj, "")
    raise SchemaError(f"unrecognized key set {sorted(obj)}", "/")

