"""Repository benchmark: four workloads, end-to-end metrics and a traced split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scale_characterize --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer split.  Metric names and units are BENCHMARK.json's.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name and unit, including each workload's own named numbers.  A
full record with provenance goes to ``perfbench/results/``.

``--heldout-seed N`` draws the inputs from ``N`` instead of ``--seed`` and
marks the record as held out, so a claim made on development seeds can be
re-checked on inputs nobody tuned against.

Every workload reports the same four end-to-end metrics, because each
metric must exist on every workload; what they measure per workload
(medians over the run, times in reference-host seconds -- see ``common``;
the record gives each one unscaled too, as ``<name>_wall``):

================== ============================== ===============================
workload           ``throughput_per_s``           ``latency_ms``
================== ============================== ===============================
scale_characterize Monte-Carlo die samples/s      SSTA study latency
design_sweep       design points/s                slowest design point's latency
sweep_fanout       cold-pass sweep points/s       resume-pass latency
serve_mix          unary goodput: requests        unary latency, timed from each
                   answered 200 within the        request's scheduled send time
                   latency limit, per s
================== ============================== ===============================

``setup_s`` is the median of several cold set-ups (pipeline build and
schedule compile; server boot to first 200; process-pool start) and
``peak_rss_mb`` the peak resident set of the process doing the work (the
server for serve_mix, the largest of coordinator and pool workers for
sweep_fanout).  Why each workload exists is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("scale_characterize", "design_sweep", "sweep_fanout", "serve_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="draw inputs from this seed instead and mark the record held out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal input sizes (the benchmark's self-test)")
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json", ".bench")):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    from common import nproc

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": args.seed if args.heldout_seed is None else args.heldout_seed,
        "seed_role": "development" if args.heldout_seed is None else "heldout",
        "trace": bool(args.trace),
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    import repro  # noqa: F401  (fail before any work if the program is broken)
    import repro.circuit.ingest  # noqa: F401  (registers the scale_logic kind)
    from common import EXACT, Run, median, metric_units, reap_children

    import serve_mix
    import workloads

    runners = {
        "scale_characterize": workloads.scale_characterize,
        "design_sweep": workloads.design_sweep,
        "sweep_fanout": workloads.sweep_fanout,
        "serve_mix": serve_mix.serve_mix,
    }
    seed = args.seed if args.heldout_seed is None else args.heldout_seed
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(seed, args.seconds, bool(args.trace), args.tiny, workdir)
    try:
        outcome = runners[args.workload](run)
    finally:
        reap_children()
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    kind, values = ("per_layer", outcome.layers) if args.trace else ("end_to_end", outcome.end_to_end())
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in metric_units(kind).items()
    }
    named = {name: {"value": v, "unit": u} for name, (v, u) in outcome.named_values().items()}
    # Host times (probe or reference seconds) the timings were scaled by.
    host_times = [host for pairs in run.samples.values() for _, host in pairs]
    record = {
        "workload": args.workload,
        "provenance": provenance(args),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(1, run.attempted),
        "host_s_median": median(host_times) if host_times else None,
        "checks": {name: {"passed": p, "failed": f} for name, (p, f) in sorted(run.checks.items())},
        "metrics": metrics,
        "named": named,
        # (wall seconds, host seconds) of every timed operation.
        "samples": run.samples,
    }
    os.makedirs(RESULTS, exist_ok=True)
    record_path = os.path.join(
        RESULTS, f"{args.workload}-seed{seed}-trace{args.trace}.json"
    )
    # Exact counts must also repeat from one invocation to the next; a
    # change that moves one on purpose shows here as drift to explain.
    record["exact"] = {
        name: value
        for counts in run.round_counts
        for name, value in counts.items() if name in EXACT
    }
    try:
        with open(record_path) as handle:
            previous = json.load(handle).get("exact", {})
    except (OSError, ValueError):
        previous = {}
    record["exact_drift"] = {
        name: [previous[name], value]
        for name, value in record["exact"].items()
        if name in previous and previous[name] != value
    }
    for name, (before, after) in record["exact_drift"].items():
        print(f"perfbench: exact count {name} drifted from the previous run of this "
              f"workload and seed: {before} -> {after}", file=sys.stderr)
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=2)

    print(f"workload {args.workload} seed {seed} trace {args.trace}")
    for name, metric in list(metrics.items()) + list(named.items()):
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(f"  error_rate = {record['error_rate']!r} fraction "
          f"({run.failed} of {run.attempted} operations and checks)")
    for name, counts in record["checks"].items():
        print(f"  check {name}: {counts['passed']} passed, {counts['failed']} failed")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
