"""The benchmark's tracer finds every layer it names in the package.

`perfbench/tracer.py` wraps functions by (module, attribute path); a
rename in the package would otherwise only show when the benchmark runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for name, module, path in tracer.TRACED:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert tracer.TRACED
    assert missing == []
