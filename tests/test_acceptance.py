"""Top-level acceptance gate.

Each test drives one advertised guarantee at its full scale and budget,
prints a single PASS/FAIL line (visible under ``pytest -s``), and fails
loudly with the recorded counterexamples otherwise.  The suites run one
after another over one sweep context, the same way ``mvgamma check-all``
runs them, so later gates reuse the spectra, quotients, stars and segments
that earlier ones built (the builders are memoized by value).
"""

import io
import json
import time
from contextlib import redirect_stdout

import pytest

from mvgamma.cli import main
from mvgamma.sweeps import (
    SweepContext,
    suite_axioms,
    suite_chain_roundtrip,
    suite_free_quotient,
    suite_general_roundtrip,
    suite_good_sequences,
    suite_naturality,
    suite_pair_groups,
    suite_segment_ideals,
    suite_spectrum_oracle,
)

FULL_SIZE = 16
FULL_WINDOW = 4


@pytest.fixture(scope="module")
def ctx():
    return SweepContext(max_size=FULL_SIZE, window=FULL_WINDOW)


def drive(label, suite, context, budget):
    start = time.monotonic()
    result = suite(context)
    elapsed = time.monotonic() - start
    ok = result.ok and elapsed < budget
    print(
        f"[{'PASS' if ok else 'FAIL'}] {label}: {result.cases} cases "
        f"in {elapsed:.2f}s (budget {budget:.0f}s)"
    )
    assert result.ok, f"{label}: {result.failures}"
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over the {budget:.0f}s budget"


def test_01_axiom_sweep(ctx):
    drive("axiom sweep, all generated algebras", suite_axioms, ctx, 5)


def test_02_chain_group_laws(ctx):
    drive("chain group laws and order", suite_pair_groups, ctx, 5)


def test_03_chain_round_trip(ctx):
    drive("chain round trip", suite_chain_roundtrip, ctx, 5)


def test_04_general_round_trip(ctx):
    drive("general round trip", suite_general_roundtrip, ctx, 60)


def test_05_good_sequences(ctx):
    drive("good sequence extraction/uniqueness", suite_good_sequences, ctx, 30)


def test_06_naturality_and_functoriality(ctx):
    drive("naturality squares and composition", suite_naturality, ctx, 60)


def test_07_segment_ideal_quotients(ctx):
    drive("segment ideals and spectra", suite_segment_ideals, ctx, 10)


def test_08_ideal_enumeration_oracle(ctx):
    drive("ideal enumeration vs subset filter", suite_spectrum_oracle, ctx, 10)


def test_09_free_quotient_ranks(ctx):
    drive("free quotient invariant factors", suite_free_quotient, ctx, 30)


def run_cli(args):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def test_10_cli_contract(tmp_path):
    start = time.monotonic()
    scripts = {
        "ok.mvg": ("algebra A = chain 2\nroundtrip A\n", 0),
        "fail.mvg": ("algebra A = chain 1\nfreequotient A --keep-zero\n", 1),
        "parse.mvg": ("algebra A = chain", 2),
        "sem.mvg": (
            "algebra A = chain 1\nalgebra B = chain 2\nhom h : A -> B { 0->0, 1->1 }\n",
            3,
        ),
    }
    seen = {}
    for name, (text, expected) in scripts.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(["run", str(path)])
        assert code == expected, f"{name}: exit {code}, wanted {expected}\n{out}"
        json.loads(out)  # every outcome is well-formed JSON
        seen[name] = out
    again, _ = tmp_path / "ok.mvg", None
    code, out = run_cli(["run", str(again)])
    assert code == 0 and out == seen["ok.mvg"]

    first_code, first = run_cli(["check-all", "--max-size", "6"])
    second_code, second = run_cli(["check-all", "--max-size", "6"])
    assert first_code == 0 and second_code == 0
    assert first == second

    elapsed = time.monotonic() - start
    ok = elapsed < 5
    print(f"[{'PASS' if ok else 'FAIL'}] command-line contract: 4 exit classes, "
          f"byte-stable reports in {elapsed:.2f}s (budget 5s)")
    assert ok, f"command-line contract took {elapsed:.2f}s"
