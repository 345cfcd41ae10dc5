"""Span recording around mvgamma's layer boundaries, installed from outside.

`install()` replaces each traced function, wherever an `mvgamma.*` module
binds it, with a wrapper that records one span (name, start, end, parent)
per call.  Modules import each other with `from .x import f`, so the
function is found by identity in every namespace, including tuples of
functions such as the sweep's suite order.  Methods are replaced on their
class.  `Tracer.uninstall()` puts every original object back.

A call that re-enters the function its innermost open span belongs to
(`to_jsonable` and `ChangChainGroup.mul` recurse) is folded into that span,
so `.calls` counts outermost calls.  Spans live in flat arrays until the run
ends; `write()` stores them with the names and the per-name counters, and
`summarize()` turns a written trace into per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
from time import perf_counter

# (metric name, module, attribute path).  Names are module.function, except
# where a method or constructor stands for a layer.
TRACED = (
    ("cli.main", "mvgamma.cli", "main"),
    ("script.parse_script", "mvgamma.script", "parse_script"),
    ("interp.execute", "mvgamma.interp", "execute"),
    ("serialize.dumps", "mvgamma.serialize", "dumps"),
    ("serialize.to_jsonable", "mvgamma.serialize", "to_jsonable"),
    ("serialize.algebra_from_json", "mvgamma.serialize", "algebra_from_json"),
    ("sweeps.suite.axioms", "mvgamma.sweeps", "suite_axioms"),
    ("sweeps.suite.pair_groups", "mvgamma.sweeps", "suite_pair_groups"),
    ("sweeps.suite.chain_roundtrip", "mvgamma.sweeps", "suite_chain_roundtrip"),
    ("sweeps.suite.general_roundtrip", "mvgamma.sweeps", "suite_general_roundtrip"),
    ("sweeps.suite.good_sequences", "mvgamma.sweeps", "suite_good_sequences"),
    ("sweeps.suite.naturality", "mvgamma.sweeps", "suite_naturality"),
    ("sweeps.suite.segment_ideals", "mvgamma.sweeps", "suite_segment_ideals"),
    ("sweeps.suite.spectrum_oracle", "mvgamma.sweeps", "suite_spectrum_oracle"),
    ("sweeps.suite.free_quotient", "mvgamma.sweeps", "suite_free_quotient"),
    ("equivalence.star_algebra", "mvgamma.equivalence", "star_algebra"),
    ("equivalence.star_morphism", "mvgamma.equivalence", "star_morphism"),
    ("equivalence.coordinate_ideal_checks", "mvgamma.equivalence", "coordinate_ideal_checks"),
    ("equivalence.star_functoriality", "mvgamma.equivalence", "star_functoriality"),
    ("equivalence.upsilon_naturality", "mvgamma.equivalence", "upsilon_naturality"),
    ("equivalence.canonical_entries", "mvgamma.equivalence", "canonical_entries"),
    ("equivalence.generated_membership", "mvgamma.equivalence", "generated_membership"),
    ("equivalence.iota_roundtrip", "mvgamma.equivalence", "iota_roundtrip"),
    ("lgroup.gamma_segment", "mvgamma.lgroup", "gamma_segment"),
    ("lgroup.pair_add", "mvgamma.lgroup", "ChangChainGroup.add"),
    ("lgroup.pair_mul", "mvgamma.lgroup", "ChangChainGroup.mul"),
    ("spectrum.quotient", "mvgamma.spectrum", "quotient"),
    ("spectrum.spectrum", "mvgamma.spectrum", "spectrum"),
    ("spectrum.enumerate_ideals", "mvgamma.spectrum", "enumerate_ideals"),
    ("spectrum.restrict_morphism", "mvgamma.spectrum", "restrict_morphism"),
    ("mv_core.check_mv_axioms", "mvgamma.mv_core", "check_mv_axioms"),
    ("mv_core.find_morphisms", "mvgamma.mv_core", "find_morphisms"),
    ("mv_core.check_morphism", "mvgamma.mv_core", "check_morphism"),
    ("mv_core.table_build", "mvgamma.mv_core", "FiniteMVAlgebra.__init__"),
    ("snf.smith_diagonal", "mvgamma.snf", "smith_diagonal"),
)


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _segment_key(args, kwargs):
    group = args[0]
    u = _arg(args, kwargs, 1, "u")
    return tuple(f.chain for f in group.fibers), tuple(u if u is not None else group.u)


# Keys of the distinct arguments a call could have been answered from: the
# ratio distinct keys / calls is what a memo layer could at best achieve.
DISTINCT = {
    "spectrum.quotient": lambda args, kwargs: (
        args[0],
        _arg(args, kwargs, 1, "ideal").members,
    ),
    "equivalence.star_algebra": lambda args, kwargs: args[0],
    "lgroup.gamma_segment": _segment_key,
    "mv_core.check_mv_axioms": lambda args, kwargs: args[0],
}

# Work counted per call: (counter name, f(args, kwargs, result) -> int).
COUNTERS = {
    "equivalence.canonical_entries": ("entries", lambda args, kwargs, out: len(out)),
    "snf.smith_diagonal": ("rows", lambda args, kwargs, out: len(args[0])),
}


def _resolve(module: str, path: str):
    """The owner object and attribute name for a dotted path in a module.

    Modules come from importlib, not attribute access: the package re-exports
    the function `spectrum` over the submodule of the same name."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _mvgamma_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "mvgamma" or name.startswith("mvgamma."))
    ]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.counters: dict[str, int] = {
            f"{name}.{counter}": 0 for name, (counter, _) in COUNTERS.items()
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        for nid, (name, module, path) in enumerate(TRACED):
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(nid, name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            found = False
            for mod in _mvgamma_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
                        found = True
                    elif type(value) is tuple and any(v is original for v in value):
                        swapped = tuple(wrapper if v is original else v for v in value)
                        self._rebind(mod, key, swapped)
            if not found:
                raise RuntimeError(f"{module}.{path} is bound nowhere")

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, nid: int, name: str, fn):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        seen = self.distinct.get(name)
        key_of = DISTINCT.get(name)
        counter = COUNTERS.get(name)
        counters = self.counters
        counter_key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(key_of(args, kwargs))
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter_key] += counter[1](args, kwargs, out)
            return out

        return wrapper

    # -- output --

    def write(self, prefix: str) -> None:
        """Store the spans as <prefix>.<field> arrays and the names, distinct
        counts and counters as <prefix>.json."""
        for field in ("name", "parent", "start", "end"):
            with open(f"{prefix}.{field}", "wb") as fh:
                getattr(self, f"span_{field}").tofile(fh)
        meta = {
            "names": self.names,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "counters": self.counters,
            "spans": len(self.span_start),
        }
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def summarize(prefix: str) -> dict[str, float]:
    """Per-layer metrics from a written trace: `.calls` and `.self_s` for each
    traced name, `.distinct_ratio` where distinct arguments are tracked, the
    counters, and the number of spans.  Self time is a span's duration less its children's."""
    import numpy as np

    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    name = np.fromfile(f"{prefix}.name", dtype=np.uint16)
    parent = np.fromfile(f"{prefix}.parent", dtype=np.int32)
    dur = np.fromfile(f"{prefix}.end") - np.fromfile(f"{prefix}.start")
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = np.bincount(name, weights=dur - children, minlength=len(meta["names"]))
    calls = np.bincount(name, minlength=len(meta["names"]))
    total = np.bincount(name, weights=dur, minlength=len(meta["names"]))
    out: dict[str, float] = {}
    for nid, n in enumerate(meta["names"]):
        out[f"{n}.calls"] = int(calls[nid])
        out[f"{n}.self_s"] = float(self_time[nid])
        out[f"{n}.total_s"] = float(total[nid])
        if n in meta["distinct"]:
            out[f"{n}.distinct_ratio"] = meta["distinct"][n] / calls[nid] if calls[nid] else 0.0
    out.update(meta["counters"])
    out["trace.spans"] = meta["spans"]
    return out
