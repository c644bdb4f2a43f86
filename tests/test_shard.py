"""Shard-parallel sweeps: digest partition, exact merge, kill/resume, CLI.

The shard CLI's whole contract is *bit-identity*: however a sweep is split
-- 2 or 3 shards, separate processes or the commands called in process,
killed and resumed or not -- the merged result must equal an uninterrupted
serial run, point for point, byte for byte.  Every end-to-end test here
compares against the serial reference rather than asserting shapes.  The
kill/resume test spawns (and SIGKILLs) real interpreter processes and
carries the strict ``slow`` marker.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api.canonical import resolved_store_spec, spec_digest, spec_to_wire
from repro.api.session import Session
from repro.api.spec import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec
from repro.api.sweep import ScenarioSweep, SweepResult
from repro.robust import ExecutionPolicy
from repro.robust.shard import (
    main as shard_main,
    merge_shard_results,
    partition_tasks,
    shard_for_digest,
)

AXES = {"pipeline.n_stages": [2, 3], "variation.sigma_scale": [0.5, 1.0]}


@pytest.fixture(scope="module")
def base_spec() -> StudySpec:
    return StudySpec(
        pipeline=PipelineSpec(n_stages=2, logic_depth=3),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=200, seed=11),
    )


@pytest.fixture(scope="module")
def reference(base_spec):
    """Uninterrupted serial run under the legacy (no-policy) contract."""
    return ScenarioSweep(base_spec, AXES).run(session=Session())


def point_identity(result):
    """Everything about a result's points except wall-clock trace fields."""
    return [(p.index, p.coords, p.spec, p.report) for p in result]


class TestPartition:
    def test_shard_for_digest_is_pure_modulo(self):
        digest = "ab" * 32
        assert shard_for_digest(digest, 1) == 0
        assert shard_for_digest(digest, 7) == int(digest, 16) % 7

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            shard_for_digest("ab" * 32, 0)

    def test_partition_is_deterministic_and_covers_every_task(self, base_spec):
        session = Session()
        tasks = ScenarioSweep(base_spec, AXES).tasks(session)
        first = partition_tasks(tasks, session, 3)
        second = partition_tasks(tasks, session, 3)
        assert [[t.index for t in s] for s in first] == [
            [t.index for t in s] for s in second
        ]
        flat = sorted(t.index for shard in first for t in shard)
        assert flat == [t.index for t in tasks]

    def test_partition_agrees_with_digest(self, base_spec):
        session = Session()
        tasks = ScenarioSweep(base_spec, AXES).tasks(session)
        partition = partition_tasks(tasks, session, 4)
        for shard_id, shard_tasks in enumerate(partition):
            for task in shard_tasks:
                digest = spec_digest(resolved_store_spec(task.spec, session))
                assert shard_for_digest(digest, 4) == shard_id

    def test_duplicate_points_land_on_one_shard(self, base_spec):
        # A zip sweep over a constant axis yields identical specs modulo
        # seed; with a fixed seed policy the specs (and digests) coincide.
        session = Session()
        sweep = ScenarioSweep(
            base_spec,
            {"variation.sigma_scale": [0.5, 0.5, 0.5]},
            mode="zip",
            seed_policy="fixed",
        )
        tasks = sweep.tasks(session)
        digests = {
            spec_digest(resolved_store_spec(t.spec, session)) for t in tasks
        }
        assert len(digests) == 1  # genuinely duplicate work
        for n_shards in (2, 3, 5):
            partition = partition_tasks(tasks, session, n_shards)
            occupied = [shard for shard in partition if shard]
            assert len(occupied) == 1


class TestShardedRun:
    """Every shard's ``run`` then ``merge``, through the CLI in process."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_result_is_bit_identical_to_serial(
        self, base_spec, reference, tmp_path, shards
    ):
        result = run_cli_in_process(tmp_path, base_spec, AXES, shards)
        assert point_identity(result) == point_identity(reference)
        assert not result.failures
        assert result.trace.n_shards == shards
        assert result.trace.pool_kind == "shard"

    def test_failures_merge_bit_identical_to_serial(self, base_spec, tmp_path):
        # The same failing point produces the same structured failure
        # whether it runs serially or inside one shard of the split.
        axes = {
            "pipeline.n_stages": [2, 3],
            "analysis.backend": ["montecarlo", "no-such-backend"],
        }
        serial = ScenarioSweep(base_spec, axes).run(
            session=Session(), policy=ExecutionPolicy()
        )
        sharded = run_cli_in_process(tmp_path, base_spec, axes, 2)
        assert point_identity(sharded) == point_identity(serial)

        def failure_identity(result):
            # everything except the wall-clock elapsed field
            records = [f.to_dict() for f in result.failures]
            for record in records:
                record.pop("elapsed")
            return records

        assert failure_identity(sharded) == failure_identity(serial)
        assert sharded.trace.n_failed == serial.trace.n_failed == 2

    def test_duplicates_coalesce_within_their_shard(self, base_spec, tmp_path):
        result = run_cli_in_process(
            tmp_path,
            base_spec,
            {"variation.sigma_scale": [0.5, 0.5, 0.5]},
            2,
            mode="zip",
            seed_policy="fixed",
        )
        assert len(result) == 3
        reports = [p.report for p in result]
        assert reports[0] == reports[1] == reports[2]
        # one computed + two checkpoint hits, never three computations
        assert result.trace.checkpoint_writes == 1
        assert result.trace.checkpoint_hits == 2

    def test_resume_from_shared_store_recomputes_nothing(
        self, base_spec, reference, tmp_path
    ):
        first = run_cli_in_process(tmp_path, base_spec, AXES, 2)
        assert first.trace.checkpoint_writes == 4
        second = run_cli_in_process(tmp_path, base_spec, AXES, 2)
        assert point_identity(second) == point_identity(reference)
        assert second.trace.checkpoint_hits == 4
        assert second.trace.checkpoint_writes == 0

    def test_merge_shard_results_reassembles_index_order(self):
        from repro.robust.failures import ExecutionTrace, PointFailure

        class FakePoint:
            def __init__(self, index):
                self.index = index

        part_a = ([FakePoint(3), FakePoint(0)], [], ExecutionTrace(n_completed=2))
        failure = PointFailure(
            index=1, coords=(), error_type="RuntimeError", message="boom"
        )
        part_b = ([FakePoint(2)], [failure], ExecutionTrace(n_completed=1, n_failed=1))
        points, failures, trace = merge_shard_results(
            [part_a, part_b], n_points=4, n_shards=2
        )
        assert [p.index for p in points] == [0, 2, 3]
        assert [f.index for f in failures] == [1]
        assert trace.pool_kind == "shard"
        assert trace.n_shards == 2
        assert trace.n_points == 4
        assert (trace.n_completed, trace.n_failed) == (3, 1)


# ----------------------------------------------------------------------
# Standalone CLI: independently-launched shard processes
# ----------------------------------------------------------------------
def cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def shard_cmd(*args):
    return [sys.executable, "-m", "repro.robust.shard", *args]


def write_request(path, base_spec, axes, policy=None, **fields):
    payload = {"base": spec_to_wire(base_spec), "axes": axes, **fields}
    if policy is not None:
        payload["policy"] = policy.to_dict()
    path.write_text(json.dumps(payload))
    return path


def run_cli_in_process(tmp_path, base_spec, axes, n_shards, **fields):
    """``run`` every shard against one store, then ``merge`` them."""
    req = str(write_request(tmp_path / "sweep.json", base_spec, axes, **fields))
    common = ["--store", str(tmp_path / "store"), "--shards", str(n_shards)]
    for shard in range(n_shards):
        assert shard_main(["run", req, *common, "--shard", str(shard)]) == 0
    merged = tmp_path / "merged.json"
    assert shard_main(["merge", req, *common, "--out", str(merged)]) == 0
    return SweepResult.from_json(merged.read_text())


class TestShardCLI:
    def test_plan_prints_the_partition(self, base_spec, tmp_path):
        req = write_request(tmp_path / "sweep.json", base_spec, AXES)
        out = subprocess.run(
            shard_cmd("plan", str(req), "--shards", "2"),
            capture_output=True,
            text=True,
            env=cli_env(),
            check=True,
        )
        plan = json.loads(out.stdout)
        assert plan["n_points"] == 4
        assert plan["n_shards"] == 2
        covered = sorted(
            i for shard in plan["shards"] for i in shard["indices"]
        )
        assert covered == [0, 1, 2, 3]

    def test_run_and_merge_round_trip_equals_serial(
        self, base_spec, reference, tmp_path
    ):
        req = write_request(tmp_path / "sweep.json", base_spec, AXES)
        store = tmp_path / "store"
        for shard in ("0", "1"):
            subprocess.run(
                shard_cmd(
                    "run", str(req), "--store", str(store),
                    "--shards", "2", "--shard", shard,
                ),
                capture_output=True,
                env=cli_env(),
                check=True,
            )
        merged_path = tmp_path / "merged.json"
        subprocess.run(
            shard_cmd(
                "merge", str(req), "--store", str(store),
                "--shards", "2", "--out", str(merged_path),
            ),
            capture_output=True,
            env=cli_env(),
            check=True,
        )
        merged = SweepResult.from_json(merged_path.read_text())
        assert [
            (p.index, p.coords, p.spec, p.report.to_dict()) for p in merged
        ] == [
            (p.index, p.coords, p.spec, p.report.to_dict()) for p in reference
        ]
        assert merged.trace.pool_kind == "shard"
        assert merged.trace.n_shards == 2

    def test_merge_refuses_incomplete_shard_set(self, base_spec, tmp_path):
        req = write_request(tmp_path / "sweep.json", base_spec, AXES)
        store = tmp_path / "store"
        subprocess.run(
            shard_cmd(
                "run", str(req), "--store", str(store),
                "--shards", "2", "--shard", "0",
            ),
            capture_output=True,
            env=cli_env(),
            check=True,
        )
        out = subprocess.run(
            shard_cmd("merge", str(req), "--store", str(store), "--shards", "2"),
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert out.returncode == 2
        assert "missing shard output" in out.stderr

    def test_run_rejects_out_of_range_shard_id(self, base_spec, tmp_path):
        req = write_request(tmp_path / "sweep.json", base_spec, AXES)
        out = subprocess.run(
            shard_cmd(
                "run", str(req), "--store", str(tmp_path / "store"),
                "--shards", "2", "--shard", "2",
            ),
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert out.returncode != 0
        assert "--shard must be in [0, 2)" in out.stderr


@pytest.mark.slow
class TestKillResume:
    """SIGKILL a shard mid-sweep; the relaunch must recompute nothing stored.

    This is the exact-resume acceptance test: the only state a killed shard
    leaves behind is the checkpoint store, and that must be enough for the
    relaunched process to skip every already-persisted point (store hit
    accounting proves it) and for the final merge to remain bit-identical
    to a never-interrupted serial run.
    """

    def test_sigkill_resume_is_exact(self, tmp_path):
        heavy = StudySpec(
            pipeline=PipelineSpec(n_stages=3, logic_depth=6),
            variation=VariationSpec.combined(),
            analysis=AnalysisSpec(
                backend="montecarlo", n_samples=40_000, seed=7
            ),
        )
        axes = {
            "pipeline.n_stages": [2, 3, 4, 5],
            "variation.sigma_scale": [0.5, 0.75, 1.0, 1.25],
        }
        req = write_request(tmp_path / "sweep.json", heavy, axes)
        store = tmp_path / "store"
        n_shards = 2

        session = Session()
        tasks = ScenarioSweep(heavy, axes).tasks(session)
        shard0 = partition_tasks(tasks, session, n_shards)[0]
        assert len(shard0) >= 4, "partition too lopsided for a mid-sweep kill"

        def stored_count():
            return (
                sum(1 for _ in store.rglob("*.json")) if store.exists() else 0
            )

        victim = subprocess.Popen(
            shard_cmd(
                "run", str(req), "--store", str(store),
                "--shards", str(n_shards), "--shard", "0",
            ),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=cli_env(),
        )
        try:
            # Kill once at least one point is persisted but (normally) well
            # before the shard finishes.
            deadline = time.monotonic() + 120.0
            while stored_count() < 1 and victim.poll() is None:
                if time.monotonic() > deadline:
                    pytest.fail("shard never wrote a checkpoint")
                time.sleep(0.005)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
        survived = stored_count()
        assert survived >= 1
        shard0_out = store / "shards" / f"shard-0-of-{n_shards}.json"
        assert not shard0_out.exists()  # killed before writing its result

        # Relaunch the dead shard: it must resume, not recompute.
        subprocess.run(
            shard_cmd(
                "run", str(req), "--store", str(store),
                "--shards", str(n_shards), "--shard", "0",
            ),
            capture_output=True,
            env=cli_env(),
            check=True,
        )
        resumed = SweepResult.from_json(shard0_out.read_text())
        assert resumed.trace.checkpoint_hits >= survived
        assert resumed.trace.checkpoint_hits + resumed.trace.checkpoint_writes == len(
            shard0
        )

        subprocess.run(
            shard_cmd(
                "run", str(req), "--store", str(store),
                "--shards", str(n_shards), "--shard", "1",
            ),
            capture_output=True,
            env=cli_env(),
            check=True,
        )
        merged_path = tmp_path / "merged.json"
        subprocess.run(
            shard_cmd(
                "merge", str(req), "--store", str(store),
                "--shards", str(n_shards), "--out", str(merged_path),
            ),
            capture_output=True,
            env=cli_env(),
            check=True,
        )
        merged = SweepResult.from_json(merged_path.read_text())
        serial = ScenarioSweep(heavy, axes).run(session=Session())
        assert [
            (p.index, p.coords, p.spec, p.report.to_dict()) for p in merged
        ] == [
            (p.index, p.coords, p.spec, p.report.to_dict()) for p in serial
        ]
        assert not merged.failures
