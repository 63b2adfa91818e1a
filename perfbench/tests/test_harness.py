"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The smoke tests run one pass of each workload in a subprocess, exactly as the
benchmark command does, so they take about half a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    record, result = run_smoke(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert record["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["provenance"]["flagf_threads"] is None


def test_oracle_flags_a_wrong_verdict():
    members = {"kill": False, "nk": True, "g1": True}
    none = {"kill": False, "nk": False, "g1": False}
    # f4 is never NK: claiming membership contradicts the table.
    assert [k for k, _ in oracle.check_verdicts("f4", 2.0, 3.0, members, none)] == ["wrong"]
    assert oracle.check_verdicts("-f2", 2.0, 3.0, members, none) == []
    # f1 Kill holds only at (1, 4/3).
    kill = {"kill": True, "nk": True, "g1": True}
    assert oracle.check_verdicts("f1", 1.0, 4.0 / 3.0, kill, none) == []
    assert [k for k, _ in oracle.check_verdicts("f1", 1.0, 1.5, kill, none)] == ["wrong"]
    indet = dict(none, nk=True)
    assert [k for k, _ in oracle.check_verdicts("f1", 1.0, 1.5, members, indet)] == ["indeterminate"]


def test_oracle_flags_a_wrong_zero_set():
    two_points = {"kind": "points", "lines": [], "points": [[1.0, 0.25], [1.0, 2.08]], "description": "x"}
    assert oracle.check_zero_set("f1", "nk", two_points)[0][0] == "wrong"
    line = {"kind": "line", "lines": [{"axis": "s", "value": 1.0}], "points": [], "description": "x"}
    assert oracle.check_zero_set("f1", "nk", line) == []
    point = {"kind": "points", "lines": [], "points": [[1.0, 4.0 / 3.0]], "description": "x"}
    assert oracle.check_zero_set("f0", "kill", point) == []


def test_ledger_flags_a_byte_mismatch():
    ledger = oracle.Ledger()
    assert ledger.record(0, "aaa", [])
    assert ledger.record(1, "bbb", [])
    assert ledger.record(0, "aaa", [])
    assert not ledger.record(1, "ccc", [])
    assert ledger.attempted == 2 and ledger.failed == 1 and ledger.wrong == 0
    assert ledger.executions == 4
    assert ledger.by_kind["bytes-mismatch"] == 1
    assert not ledger.sound


def test_ledger_tally_does_not_depend_on_the_number_of_passes():
    """Runs of the same inputs that fit a different number of passes agree."""
    tallies = []
    for passes in (2, 5):
        ledger = oracle.Ledger()
        for _ in range(passes):
            ledger.record(0, "a", [("indeterminate", "x")])
            ledger.record(1, "b", [])
        tallies.append((ledger.attempted, ledger.failed, ledger.wrong))
    assert tallies == [(2, 1, 0), (2, 1, 0)]


def test_ledger_counts_wrong_and_failed_ops():
    ledger = oracle.Ledger()
    ledger.record(0, "a", [("indeterminate", "x")])
    ledger.record(1, "b", [("wrong", "y"), ("indeterminate", "z")])
    ledger.record(2, "c", [])
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 2, 1)
    assert ledger.sound


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
