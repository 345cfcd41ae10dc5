"""The mvgamma benchmark: time to a verified verdict, set-up and memory.

    python3 perfbench/run.py --workload {sweep,digits,carriers} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
Every measured run is a fresh single-threaded interpreter (child.py) that
imports mvgamma and calls `mvgamma.cli.main` once, a closed loop of one
caller.  Scripts and reports go to a work directory under perfbench/_work
that is removed at exit.

With --trace 0 the runs repeat until S seconds are used and the last stdout
line gives the medians of the end-to-end metrics:

* verdict_s   -- from calling cli.main to the complete report on stdout;
* setup_s     -- from process start until `import mvgamma` has finished,
                 over five import-only processes plus every measured run;
* peak_rss_mb -- peak resident memory of a measured run.

With --trace 1 the benchmark makes one untraced and one traced run, the
latter with span wrappers installed from tracer.py, and reports per-layer
call counts, self times and ratios plus the tracing overhead.

Every report is checked against answers computed without mvgamma
(oracle.py), and against the bytes of the first report of the same seed; the
traced report must match too.  A unit is one command of the report, the
report's header (exit code, verdict, config), or its bytes; `failed` counts
units that differ, and failed_share = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Each run must end well inside the three minutes a run is allowed.
RUN_DEADLINE_S = 170.0

# Per-layer metrics reported by the traced run: (name, unit, better).
_LAYERS_CALLS_SELF = (
    "spectrum.quotient",
    "spectrum.spectrum",
    "spectrum.enumerate_ideals",
    "spectrum.restrict_morphism",
    "equivalence.star_morphism",
    "equivalence.coordinate_ideal_checks",
    "equivalence.star_functoriality",
    "equivalence.upsilon_naturality",
    "equivalence.star_algebra",
    "lgroup.gamma_segment",
    "mv_core.check_mv_axioms",
    "mv_core.find_morphisms",
    "mv_core.check_morphism",
    "mv_core.table_build",
    "lgroup.pair_add",
    "lgroup.pair_mul",
    "equivalence.canonical_entries",
    "equivalence.generated_membership",
    "serialize.dumps",
    "serialize.to_jsonable",
    "serialize.algebra_from_json",
    "script.parse_script",
    "snf.smith_diagonal",
    "equivalence.iota_roundtrip",
)
_DISTINCT = (
    "spectrum.quotient",
    "equivalence.star_algebra",
    "lgroup.gamma_segment",
    "mv_core.check_mv_axioms",
)
_SUITES = (
    "axioms",
    "pair_groups",
    "chain_roundtrip",
    "general_roundtrip",
    "good_sequences",
    "naturality",
    "segment_ideals",
    "spectrum_oracle",
    "free_quotient",
)
PER_LAYER = (
    *((f"{n}.calls", "count", "lower") for n in _LAYERS_CALLS_SELF),
    *((f"{n}.self_s", "s", "lower") for n in _LAYERS_CALLS_SELF),
    *((f"{n}.distinct_ratio", "ratio", "higher") for n in _DISTINCT),
    ("equivalence.canonical_entries.entries", "count", "lower"),
    ("snf.smith_diagonal.rows", "count", "lower"),
    ("serialize.report_bytes", "bytes", "lower"),
    *((f"sweeps.suite.{s}.s", "s", "lower") for s in _SUITES),
    ("interp.execute.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, work: Path, wl: workloads.Workload, deadline: float):
        self.work = work
        self.wl = wl
        self.deadline = deadline
        self.script = work / "script.mvg"
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        if wl.script is not None:
            self.script.write_text(wl.script, encoding="utf-8")
        self.argv = [str(self.script) if a == workloads.SCRIPT else a for a in wl.argv]

    def spawn(self, cli: bool, trace_prefix: str | None = None) -> tuple[dict, bytes]:
        """Start one child, wait for it, return its measurements and stdout."""
        self.runs += 1
        result = self.work / f"result{self.runs}.json"
        report = self.work / f"report{self.runs}.json"
        options = ["--trace", trace_prefix] if trace_prefix else []
        if cli:
            options += ["--", *self.argv]
        timeout = self.deadline - time.monotonic()
        with open(report, "wb") as out:
            t0 = repr(time.monotonic())
            args = [sys.executable, str(HERE / "child.py"), str(ROOT), t0, str(result), *options]
            proc = subprocess.run(
                args, stdout=out, stderr=subprocess.PIPE, cwd=self.work, timeout=timeout
            )
        if proc.returncode != 0 or not result.exists():
            raise ChildFailed(proc.stderr.decode(errors="replace")[-2000:])
        data = json.loads(result.read_text(encoding="utf-8"))
        body = report.read_bytes()
        result.unlink()
        report.unlink()
        return data, body

    def check(self, data: dict, body: bytes) -> None:
        """Count the units of one report and those that are wrong."""
        digest = hashlib.sha256(body).hexdigest()
        units = len(self.wl.expected) + 1
        bad: list[str] = []
        try:
            report = json.loads(body)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            report = {}
        commands = report.get("commands") or []
        if (
            data.get("exit_code") != 0
            or report.get("overall") != "pass"
            or report.get("config") != self.wl.config
            or len(commands) != len(self.wl.expected)
        ):
            bad.append(f"header: exit {data.get('exit_code')}, overall {report.get('overall')}")
        for i, exp in enumerate(self.wl.expected):
            want = {
                "command": exp.command,
                "line": exp.line,
                "target": exp.target,
                "status": "pass",
                "detail": exp.detail,
            }
            if i >= len(commands) or commands[i] != want:
                bad.append(f"line {exp.line}: {exp.command} {exp.target}")
        if self.reference is None:
            self.reference = digest
        else:
            units += 1
            if digest != self.reference:
                bad.append("report bytes differ from the first run of this seed")
        self.attempted += units
        self.failed += len(bad)
        self.problems += bad


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _stamp(args, wl: workloads.Workload) -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _commit(),
        "loadavg": loadavg,
        "script_sha256": wl.script and hashlib.sha256(wl.script.encode()).hexdigest(),
    }


def measure(bench: Bench, seconds: int, trace: bool) -> dict[str, float]:
    start = time.monotonic()
    setup = []
    bench.spawn(cli=False)  # warms the file cache and the bytecode cache
    for _ in range(SETUP_SAMPLES):
        setup.append(bench.spawn(cli=False)[0]["setup_s"])
    if trace:
        data, body = bench.spawn(cli=True)
        bench.check(data, body)
        prefix = str(bench.work / "trace")
        traced, traced_body = bench.spawn(cli=True, trace_prefix=prefix)
        bench.check(traced, traced_body)
        import tracer

        layers = tracer.summarize(prefix)
        layers["serialize.report_bytes"] = len(traced_body)
        layers["trace.overhead_s"] = traced["verdict_s"] - data["verdict_s"]
        for s in _SUITES:
            layers[f"sweeps.suite.{s}.s"] = layers[f"sweeps.suite.{s}.total_s"]
        return {name: layers[name] for name, _, _ in PER_LAYER}
    verdicts, rss = [], []
    longest = 0.0
    while True:
        t = time.monotonic()
        data, body = bench.spawn(cli=True)
        bench.check(data, body)
        longest = max(longest, time.monotonic() - t)
        verdicts.append(data["verdict_s"])
        rss.append(data["peak_rss_mb"])
        setup.append(data["setup_s"])
        if time.monotonic() - start + longest > seconds:
            break
    print(
        f"# {len(verdicts)} measured runs, verdict_s min {min(verdicts):.4f} max {max(verdicts):.4f}; "
        f"{len(setup)} set-up samples",
    )
    return {
        "verdict_s": statistics.median(verdicts),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the running
    # child is killed and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "mvgamma" / "__init__.py").is_file():
        print(f"no mvgamma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    print("# stamp " + json.dumps(_stamp(args, wl), sort_keys=True))
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        bench = Bench(work, wl, deadline)
        metrics = measure(bench, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"a measured run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    for problem in bench.problems[:20]:
        print(f"# wrong: {problem}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(
        f"# failed_share = {bench.failed / bench.attempted:.6g} "
        f"({bench.failed} of {bench.attempted} checked units)"
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
