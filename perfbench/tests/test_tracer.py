"""Installing the wrappers reaches every binding, and uninstalling restores
every one of them."""

import io
import sys
from contextlib import redirect_stdout

import mvgamma
import mvgamma.cli
from mvgamma import interp, lgroup, mv_core

import tracer


def _bindings():
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "mvgamma" or name.startswith("mvgamma."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for cls in (mv_core.FiniteMVAlgebra, lgroup.ChangChainGroup):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        spectrum_module = sys.modules["mvgamma.spectrum"]
        # `from .spectrum import quotient` in other modules is reached too.
        assert interp.spectrum is not before[("mvgamma.spectrum", "spectrum")]
        assert spectrum_module.quotient is sys.modules["mvgamma.equivalence"].quotient
        assert spectrum_module.quotient is not before[("mvgamma.spectrum", "quotient")]
        assert mvgamma.spectrum is spectrum_module.spectrum
        suites = sys.modules["mvgamma.sweeps"].SUITE_ORDER
        assert all(hasattr(s, "__wrapped__") for s in suites)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _run(script_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mvgamma.cli.main(["run", str(script_path)])
    return code, buf.getvalue()


def test_traced_report_is_identical_and_counted(tmp_path):
    script = tmp_path / "s.mvg"
    script.write_text(
        "algebra A = chain 1 * chain 2\nspec A\nstar A\nfreequotient A\n"
        "group G = fibers [3] unit [(1, 0)]\ngoodseq G {\"coords\": [{\"m\": 5, \"a\": 1}]}\n"
    )
    plain = _run(script)
    t = tracer.Tracer()
    t.install()
    try:
        traced = _run(script)
    finally:
        t.uninstall()
    assert traced == plain
    t.write(str(tmp_path / "trace"))
    layers = tracer.summarize(str(tmp_path / "trace"))
    assert layers["cli.main.calls"] == 1
    assert layers["serialize.dumps.calls"] == 1
    assert layers["equivalence.canonical_entries.entries"] == 6
    assert layers["snf.smith_diagonal.calls"] >= 1
    assert 0 < layers["spectrum.quotient.distinct_ratio"] <= 1
    # Self times are parts of the one top-level span.
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert abs(total - layers["cli.main.total_s"]) < 1e-6
