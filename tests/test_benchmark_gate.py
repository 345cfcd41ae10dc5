"""The benchmark's correctness gate, run in process.

`perfbench/workloads.py` builds each workload's script with the answers
every command must give, computed without mvgamma.  The benchmark counts a
report as wrong when its header or any command differs from them, or when
its bytes differ from the first report of the same seed.  This applies the
same checks to the `digits` and `carriers` workloads at two seeds, so that
a writer that drops or garbles part of a report fails here first.  The
workloads module is imported as it is, the way `test_traced_names.py`
imports the tracer.
"""

import importlib
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mvgamma.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_report(argv, path):
    """Exit code and stdout bytes of one in-process run."""
    with open(path, "w", encoding="utf-8") as fh, redirect_stdout(fh):
        code = main(argv)
    return code, path.read_bytes()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", ["digits", "carriers"])
def test_workload_reports_pass_the_benchmark_check(monkeypatch, tmp_path, name, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.build(name, seed)
    script = tmp_path / "script.mvg"
    script.write_text(wl.script, encoding="utf-8")
    argv = [str(script) if a == workloads.SCRIPT else a for a in wl.argv]
    code, body = run_report(argv, tmp_path / "first.json")
    report = json.loads(body)
    assert (code, report["overall"], report["config"]) == (0, "pass", wl.config)
    assert report["commands"] == [
        {
            "command": exp.command,
            "line": exp.line,
            "target": exp.target,
            "status": "pass",
            "detail": exp.detail,
        }
        for exp in wl.expected
    ]
    assert run_report(argv, tmp_path / "second.json") == (0, body)
