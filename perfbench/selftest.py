"""Quick self-test of the benchmark: every workload at minimal size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each workload runs with ``--tiny``, once untraced and once traced.  The test
asserts that every metric ``BENCHMARK.json`` names is emitted with its unit
(in the final JSON line and in the printed lines above it), that the output
checks ran and passed, and that a directory holding only the benchmark's own
files makes the runner fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    completed = run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected, (workload, trace, emitted)
    for name, unit in expected.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with unit {unit}"
    record_path = os.path.join(HERE, "results", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(record_path) as handle:
        record = json.load(handle)
    assert record["checks"], f"{workload}: no output checks ran"
    failed = {name: c for name, c in record["checks"].items() if c["failed"]}
    assert not failed, failed
    provenance = record["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_sha", "seed", "trace"):
        assert key in provenance, key
    print(f"ok {workload} trace={trace}: {len(record['checks'])} kinds of output check")


def check_bare_directory() -> None:
    """Without the program's source the runner exits non-zero, printing no result."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        completed = run(bare, "design_sweep", 0)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory: runner refused without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
