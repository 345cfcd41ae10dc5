"""Command-line driver.

    mvgamma run <script> [--max-size N] [--window B] [--json-out PATH]
    mvgamma check-all [--max-size N] [--window B]

Exit codes: 0 every command passed; 1 at least one check failed; 2 the
script did not parse (or could not be read); 3 a statement was ill-formed,
or the report could not be written (to --json-out or to a closed stdout);
4 an internal invariant broke.  The report JSON goes to stdout; errors go to
stdout as a single {"error": ...} object so that callers always get JSON.
An error object that meets a closed stdout keeps its code (2, 3 or 4).  When
the process's own stdout is closed, main() points fd 1 at os.devnull for good.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InternalInvariantError
from .interp import RunConfig, SemanticError, execute
from .script import ScriptError, parse_script
from .serialize import dumps, render, write_pieces

__all__ = ["main"]


def _write(pieces: list[tuple[str, int]]) -> bool:
    """Write rendered pieces to stdout; False when its reader has gone."""
    try:
        write_pieces(pieces, sys.stdout)
        sys.stdout.flush()
        return True
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # the exit's flush of the buffered rest must not raise
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return False


def _error(exit_code: int, code: str, message: str, **fields) -> int:
    """Write the one {"error": ...} object of a failed run; its exit code."""
    error = {"code": code, "message": message, **fields}
    try:
        text = dumps({"error": error})
    except RecursionError:  # a counterexample nested too deeply to write
        text = dumps({"error": {**error, "counterexample": None}})
    _write([(text, 1)])
    return exit_code


def _run_text(text: str, config: RunConfig, json_out: str | None = None) -> int:
    try:
        script = parse_script(text)
    except ScriptError as exc:
        return _error(2, exc.code, str(exc), line=exc.line, column=exc.col)
    try:
        report = execute(script, config)
    except SemanticError as exc:
        return _error(3, "semantic", str(exc), line=exc.line, counterexample=exc.counterexample)
    except InternalInvariantError as exc:
        return _error(4, "internal", str(exc))
    except Exception as exc:  # noqa: BLE001 - anything unplanned is a breach
        return _error(4, "internal", f"{type(exc).__name__}: {exc}")
    pieces = render(report.as_json())
    if json_out:
        try:
            with open(json_out, "w", encoding="utf-8") as fh:
                write_pieces(pieces, fh)
        except OSError as exc:
            return _error(3, "semantic", f"cannot write report: {exc}")
    return report.exit_code if _write(pieces) else 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvgamma",
        description="Drive the finite segment/enveloping-group toolkit from scripts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-size", type=int, default=RunConfig().max_size)
    bounds.add_argument("--window", type=int, default=RunConfig().window)

    run = sub.add_parser("run", help="parse and execute a script file", parents=[bounds])
    run.add_argument("script", help="path to the script")
    run.add_argument("--json-out", default=None, dest="json_out")
    sub.add_parser(
        "check-all", help="run every suite over the generated families", parents=[bounds]
    )

    args = parser.parse_args(argv)
    config = RunConfig(max_size=args.max_size, window=args.window)
    if args.subcommand == "run":
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return _error(2, "io", f"cannot read script: {exc}")
        return _run_text(text, config, args.json_out)
    return _run_text("check all\n", config)


if __name__ == "__main__":
    sys.exit(main())
