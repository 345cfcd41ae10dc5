"""The benchmark's tracer finds every layer it names in the package.

`perfbench/tracer.py` wraps functions by (module, attribute path); a
rename in the package would otherwise only show when the benchmark runs.
Each name is looked up as the tracer looks it up: its owner resolved by
`tracer._resolve`, then the attribute read from the owner's own namespace,
so a method the owner only inherits (say an `__init__` left to `object`)
counts as missing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for name, module, path in tracer.TRACED:
        owner, attr = tracer._resolve(module, path)
        if not callable(vars(owner).get(attr)):
            missing.append(name)
    assert tracer.TRACED
    assert missing == []
