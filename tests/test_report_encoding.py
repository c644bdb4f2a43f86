"""Report JSON: Monte-Carlo samples as exact float64 hex, and the reads around it.

``DelayReport.to_dict`` writes ``samples`` as the hex of the samples'
little-endian float64 bytes, and ``from_dict`` reads that back bit for bit
while still accepting the list of numbers that stores and responses written
before the hex encoding hold.  Every JSON path (checkpoint store, served
responses, sweep streams, ``SweepResult`` and shard files) goes through
those two methods, so the round trips below cover them all.

The store half checks that old list-form entries still resume, and that a
corrupt entry -- bad hex, a wrong byte count, a wrong type, an integer
beyond float range -- reads as a miss that the sweep recomputes.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.backends import DelayReport
from repro.api.canonical import (
    report_from_wire,
    report_to_wire,
    resolved_store_spec,
    spec_digest,
    spec_store_payload,
)
from repro.api.session import Session
from repro.api.spec import (
    AnalysisSpec,
    DesignStudySpec,
    PipelineSpec,
    StudySpec,
    VariationSpec,
)
from repro.api.sweep import ScenarioSweep, SweepPoint, SweepResult
from repro.robust import CheckpointStore, ExecutionPolicy

#: float64 bit patterns a decimal list or a careless codec would lose:
#: signed zeros, the smallest subnormals, the largest finite value, both
#: infinities, and NaNs with sign bits and payloads (quiet and signalling).
SPECIAL_BITS = np.array(
    [
        0x0000000000000000,  # +0.0
        0x8000000000000000,  # -0.0
        0x0000000000000001,  # smallest subnormal
        0x800FFFFFFFFFFFFF,  # largest negative subnormal
        0x7FEFFFFFFFFFFFFF,  # largest finite
        0x7FF0000000000000,  # +inf
        0xFFF0000000000000,  # -inf
        0x7FF8000000000000,  # quiet NaN
        0xFFF8000000000000,  # negative quiet NaN
        0x7FF0000000000001,  # signalling NaN
        0x7FF8DEAD0000BEEF,  # NaN with a payload
    ],
    dtype=np.uint64,
)
SPECIALS = SPECIAL_BITS.view(np.float64)

#: Every float64 bit pattern, NaN payloads included.
any_float64_arrays = hnp.arrays(
    np.uint64, st.integers(0, 48), elements=st.integers(0, 2**64 - 1)
).map(lambda bits: np.concatenate([bits.view(np.float64), SPECIALS]))

STUDY = StudySpec(
    pipeline=PipelineSpec(n_stages=2, logic_depth=3),
    variation=VariationSpec.combined(),
    analysis=AnalysisSpec(backend="montecarlo", n_samples=200, seed=11),
)
AXES = {"analysis.backend": ["montecarlo", "ssta"], "pipeline.n_stages": [2, 3]}


def delay_report(samples) -> DelayReport:
    return DelayReport(
        backend="montecarlo",
        stage_names=("s0", "s1"),
        stage_means=(1.0e-10, 1.1e-10),
        stage_stds=(5.0e-12, 6.0e-12),
        correlation=((1.0, 0.5), (0.5, 1.0)),
        pipeline_mean=1.15e-10,
        pipeline_std=5.5e-12,
        samples=samples,
    )


def through_json(data):
    return json.loads(json.dumps(data))


def legacy_delay_dict(report: DelayReport) -> dict:
    data = report.to_dict()
    if report.samples is not None:
        data["samples"] = report.samples.tolist()
    return data


def legacy_report_dict(report) -> dict:
    """``report.to_dict()`` as written before the hex encoding: list samples."""
    if isinstance(report, DelayReport):
        return legacy_delay_dict(report)
    data = report.to_dict()
    for name in ("validation", "validation_baseline"):
        if getattr(report, name) is not None:
            data[name] = legacy_delay_dict(getattr(report, name))
    return data


def rewrite_store_in_legacy_form(store: CheckpointStore) -> int:
    """Rewrite every entry as the store wrote it before the hex encoding.

    Returns how many entries carry list samples afterwards.
    """
    from repro.api.design import DesignReport

    with_lists = 0
    for digest in store.digests():
        path = store.path_for(digest)
        payload = json.loads(path.read_text())
        loader = DesignReport.from_dict if payload["kind"] == "design" else DelayReport.from_dict
        payload["report"] = legacy_report_dict(loader(payload["report"]))
        with_lists += isinstance(payload["report"].get("samples"), list)
        with open(path, "w") as stream:
            json.dump(payload, stream)
    return with_lists


def point_identity(result):
    return [(p.index, p.coords, p.spec, p.report) for p in result]


@pytest.fixture(scope="module")
def design_report():
    return Session().run(
        DesignStudySpec(
            pipeline=PipelineSpec(n_stages=2, logic_depth=3),
            validation=AnalysisSpec(n_samples=50, seed=3),
        )
    )


# ----------------------------------------------------------------------
# The encoding
# ----------------------------------------------------------------------
class TestSampleEncoding:
    def test_samples_are_little_endian_float64_hex(self):
        data = delay_report([1.0, -2.0]).to_dict()
        assert data["samples"] == "000000000000f03f" "00000000000000c0"
        assert DelayReport.from_dict(data).samples.tolist() == [1.0, -2.0]

    def test_no_samples_and_excluded_samples_are_none(self):
        assert delay_report(None).to_dict()["samples"] is None
        assert delay_report([1.0]).to_dict(include_samples=False)["samples"] is None
        assert DelayReport.from_dict(delay_report(None).to_dict()).samples is None

    def test_empty_samples_round_trip(self):
        data = delay_report(np.array([])).to_dict()
        assert data["samples"] == ""
        samples = DelayReport.from_dict(through_json(data)).samples
        assert samples.shape == (0,) and samples.dtype == np.float64

    def test_decoded_samples_are_a_read_only_copy(self):
        samples = DelayReport.from_dict(delay_report(SPECIALS).to_dict()).samples
        assert samples.dtype == np.float64 and samples.ndim == 1
        assert not samples.flags.writeable
        assert samples.base is None or samples.base.flags.owndata

    def test_list_samples_still_load(self):
        """The form stores and responses written before the hex encoding hold."""
        report = delay_report([1.5e-10, 1.25e-10, -0.0])
        data = legacy_report_dict(report)
        assert isinstance(data["samples"], list)
        loaded = DelayReport.from_dict(through_json(data))
        assert loaded == report
        assert loaded.samples.tobytes() == report.samples.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(any_float64_arrays)
    def test_every_json_path_round_trips_bit_for_bit(self, samples):
        report = delay_report(samples)
        expected = report.samples.tobytes()
        assert DelayReport.from_dict(report.to_dict()).samples.tobytes() == expected
        assert DelayReport.from_json(report.to_json()).samples.tobytes() == expected
        wire = report_from_wire(through_json(report_to_wire(report)))
        assert wire.samples.tobytes() == expected
        point = SweepPoint(index=0, coords=(("pipeline.n_stages", 2),), spec=STUDY, report=report)
        swept = SweepResult.from_json(SweepResult([point]).to_json())
        assert swept.points[0].report.samples.tobytes() == expected

    @settings(max_examples=40, deadline=None)
    @given(any_float64_arrays)
    def test_design_report_validations_round_trip(self, design_report, samples):
        from repro.api.design import DesignReport

        report = dataclasses.replace(
            design_report,
            validation=delay_report(samples),
            validation_baseline=delay_report(samples[::-1]),
        )
        loaded = DesignReport.from_json(report.to_json())
        assert loaded.validation.samples.tobytes() == report.validation.samples.tobytes()
        assert (
            loaded.validation_baseline.samples.tobytes()
            == report.validation_baseline.samples.tobytes()
        )
        wire = report_from_wire(through_json(report_to_wire(report)))
        assert wire.validation.samples.tobytes() == report.validation.samples.tobytes()

    def test_design_report_with_list_samples_still_loads(self, design_report):
        from repro.api.design import DesignReport

        data = legacy_report_dict(design_report)
        assert isinstance(data["validation"]["samples"], list)
        assert DesignReport.from_dict(through_json(data)) == design_report


# ----------------------------------------------------------------------
# Stores written before the hex encoding
# ----------------------------------------------------------------------
class TestOldStores:
    def test_pooled_sweep_resumes_from_list_form_entries(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        cold = ScenarioSweep(STUDY, AXES).run(session=Session(), policy=policy)
        assert cold.trace.checkpoint_writes == 4 and not cold.failures
        store = CheckpointStore(tmp_path)
        # Two Monte-Carlo points carry samples; the SSTA points carry none.
        assert rewrite_store_in_legacy_form(store) == 2
        resumed = ScenarioSweep(STUDY, AXES).run(session=Session(), n_jobs=2, policy=policy)
        assert (resumed.trace.checkpoint_hits, resumed.trace.checkpoint_writes) == (4, 0)
        assert point_identity(resumed) == point_identity(cold)
        for old, new in zip(cold.points, resumed.points):
            if old.report.samples is not None:
                assert new.report.samples.tobytes() == old.report.samples.tobytes()

    def test_list_form_design_entry_is_a_hit(self, tmp_path, design_report):
        spec = DesignStudySpec(
            pipeline=PipelineSpec(n_stages=2, logic_depth=3),
            validation=AnalysisSpec(n_samples=50, seed=3),
        )
        store = CheckpointStore(tmp_path)
        assert store.put(spec, design_report) == spec_digest(spec)
        rewrite_store_in_legacy_form(store)
        assert store.get(spec) == design_report
        assert (store.hits, store.misses) == (1, 0)


# ----------------------------------------------------------------------
# Corrupt entries
# ----------------------------------------------------------------------
CORRUPT_SAMPLES = {
    "non-hex characters": "zz" * 8,
    "odd digit count": "000000000000f03f0",
    "byte count not a multiple of 8": "00" * 12,
    "a number": 5,
    "an object": {"hex": "000000000000f03f"},
}

#: An integer literal beyond float range, in each numeric field it can reach.
HUGE = "9" * 400
OVERFLOW_FIELDS = ("samples", "stage_means", "correlation", "pipeline_mean")


def with_huge_literal(data: dict, name: str) -> str:
    """``data`` as JSON text with a 400-digit integer in field ``name``."""
    data = dict(data)
    sentinel = "@HUGE@"
    if name == "samples":
        data[name] = [sentinel]
    elif name == "stage_means":
        data[name] = [sentinel] + list(data[name][1:])
    elif name == "correlation":
        data[name] = [[sentinel] + list(data[name][0][1:])] + data[name][1:]
    else:
        data[name] = sentinel
    return json.dumps(data).replace(f'"{sentinel}"', HUGE)


def write_entry(store: CheckpointStore, spec, report_text: str) -> None:
    """A store entry for ``spec`` whose report is the raw JSON ``report_text``."""
    payload = spec_store_payload(spec)
    path = store.path_for(store.digest(spec))
    path.parent.mkdir(parents=True, exist_ok=True)
    spec_text = json.dumps(payload)
    path.write_text(f'{{"kind": "{payload["kind"]}", "spec": {spec_text}, "report": {report_text}}}')


@pytest.fixture(scope="module")
def mc_report():
    return Session().run(STUDY)


class TestCorruptEntries:
    @pytest.mark.parametrize("label", sorted(CORRUPT_SAMPLES))
    def test_decoder_rejects(self, mc_report, label):
        data = dict(mc_report.to_dict(), samples=CORRUPT_SAMPLES[label])
        with pytest.raises((ValueError, TypeError)):
            DelayReport.from_dict(data)

    @pytest.mark.parametrize("label", sorted(CORRUPT_SAMPLES))
    def test_store_reads_a_miss_and_the_sweep_rewrites_it(self, tmp_path, label):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        axes = {"pipeline.n_stages": [2, 3]}
        cold = ScenarioSweep(STUDY, axes).run(session=Session(), policy=policy)
        spec = resolved_store_spec(cold.points[0].spec, Session())
        store = CheckpointStore(tmp_path)
        data = dict(cold.points[0].report.to_dict(), samples=CORRUPT_SAMPLES[label])
        write_entry(store, spec, json.dumps(data))

        assert store.get(spec) is None
        assert (store.hits, store.misses) == (0, 1)
        resumed = ScenarioSweep(STUDY, axes).run(session=Session(), policy=policy)
        assert (resumed.trace.checkpoint_hits, resumed.trace.checkpoint_writes) == (1, 1)
        assert point_identity(resumed) == point_identity(cold)
        assert store.get(spec) == cold.points[0].report

    @pytest.mark.parametrize("name", OVERFLOW_FIELDS)
    def test_integer_beyond_float_range_is_an_overflow(self, mc_report, name):
        text = with_huge_literal(mc_report.to_dict(), name)
        with pytest.raises(OverflowError):
            DelayReport.from_dict(json.loads(text))

    @pytest.mark.parametrize("name", OVERFLOW_FIELDS)
    def test_integer_beyond_float_range_reads_as_a_miss(self, tmp_path, mc_report, name):
        store = CheckpointStore(tmp_path)
        write_entry(store, STUDY, with_huge_literal(mc_report.to_dict(), name))
        assert store.get(STUDY) is None
        assert (store.hits, store.misses) == (0, 1)

    @pytest.mark.parametrize("text", ["[]", "null", '"study"', "7", '{"kind": "study"}'])
    def test_an_entry_that_is_not_an_object_reads_as_a_miss(self, tmp_path, text):
        store = CheckpointStore(tmp_path)
        path = store.path_for(store.digest(STUDY))
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert store.get(STUDY) is None
        assert (store.hits, store.misses) == (0, 1)


# ----------------------------------------------------------------------
# Fuzzed reads
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
HEX_EDIT_CHARS = "0123456789abcdefABCDEF xg-é"


@st.composite
def mutated_hex(draw):
    """A valid samples encoding with one edit: replace, insert, delete or cut."""
    text = draw(any_float64_arrays.map(lambda s: s.tobytes().hex()))
    position = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
    char = draw(st.sampled_from(HEX_EDIT_CHARS))
    if edit == "replace" and position < len(text):
        return text[:position] + char + text[position + 1 :]
    if edit == "insert":
        return text[:position] + char + text[position:]
    if edit == "delete":
        return text[:position] + text[position + 1 :]
    return text[:position]


REPORT_FIELDS = [f.name for f in dataclasses.fields(DelayReport)]
ACCEPTED_ERRORS = (ValueError, TypeError, KeyError, OverflowError)


def load_or_none(load, data):
    """The loaded report, or ``None`` when ``load`` raised an accepted error."""
    try:
        report = load(data)
    except ACCEPTED_ERRORS:
        return None
    assert isinstance(report, DelayReport)
    if report.samples is not None:
        assert report.samples.ndim == 1 and report.samples.dtype == np.float64
    return report


class TestFuzzedReads:
    @pytest.fixture(scope="class")
    def valid(self):
        return delay_report(SPECIALS).to_dict()

    def check_store(self, tmp_path_factory, text, expected):
        store = CheckpointStore(tmp_path_factory.getbasetemp() / "fuzzed-store")
        path = store.path_for(store.digest(STUDY))
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        got = store.get(STUDY)
        if expected is None:
            assert got is None and (store.hits, store.misses) == (0, 1)
        else:
            assert (store.hits, store.misses) == (1, 0)
            assert got.to_json() == expected.to_json()

    def check(self, tmp_path_factory, data):
        expected = load_or_none(DelayReport.from_dict, data)
        wired = load_or_none(report_from_wire, {"kind": "delay", "data": data})
        assert (wired is None) == (expected is None)
        if expected is not None:
            assert wired.to_json() == expected.to_json()
        payload = {"kind": "study", "spec": spec_store_payload(STUDY), "report": data}
        self.check_store(tmp_path_factory, json.dumps(payload), expected)

    @settings(max_examples=150, deadline=None)
    @given(samples=mutated_hex())
    def test_mutated_hex_samples(self, tmp_path_factory, valid, samples):
        self.check(tmp_path_factory, dict(valid, samples=samples))

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(REPORT_FIELDS + ["extra"]), value=json_values)
    def test_any_json_value_in_any_field(self, tmp_path_factory, valid, name, value):
        self.check(tmp_path_factory, dict(valid, **{name: value}))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(REPORT_FIELDS))
    def test_missing_field(self, tmp_path_factory, valid, name):
        data = {key: value for key, value in valid.items() if key != name}
        self.check(tmp_path_factory, data)

    @settings(max_examples=100, deadline=None)
    @given(entry=json_values)
    def test_any_json_value_as_the_whole_entry(self, tmp_path_factory, entry):
        self.check_store(tmp_path_factory, json.dumps(entry), None)
