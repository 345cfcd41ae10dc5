"""One measured run of mvgamma in a fresh interpreter.

    python3 child.py ROOT T0 RESULT [--trace PREFIX] [-- CLI-ARGS...]

ROOT is the checkout whose `src/` holds the package, T0 the parent's
`time.monotonic()` just before it started this process, RESULT the JSON file
this run writes its measurements to.  With no CLI-ARGS the run stops after
the import (a set-up sample).  Otherwise it calls `mvgamma.cli.main` with
them; the report goes to this process's stdout, which the parent points at a
file.  With --trace the layer wrappers are installed after the import and
the spans are written to PREFIX.* when the report is complete.
"""

import sys
import time

if __name__ == "__main__":
    root, t0, result = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, f"{root}/src")
    import mvgamma.cli

    setup_s = time.monotonic() - t0

    import json
    import resource

    rest = sys.argv[4:]
    trace_prefix = None
    if rest[:1] == ["--trace"]:
        trace_prefix, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    out = {"setup_s": setup_s}
    if cli_args:
        tracer = None
        if trace_prefix:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        code = mvgamma.cli.main(cli_args)
        sys.stdout.flush()
        out["verdict_s"] = time.perf_counter() - start
        out["exit_code"] = code
        if tracer is not None:
            tracer.uninstall()
            tracer.write(trace_prefix)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
