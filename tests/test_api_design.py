"""Tests for the Design API: specs, optimizer registry, session design runs.

Everything runs on tiny inverter-chain pipelines with the greedy sizer so
the whole module stays fast; the paper-scale design flows live in
``benchmarks/``.
"""

import numpy as np
import pytest

from repro.api import (
    AnalysisSpec,
    DesignReport,
    DesignSpec,
    DesignStudySpec,
    PipelineSpec,
    ScenarioSweep,
    Session,
    StudySpec,
    VariationSpec,
    available_optimizers,
    get_optimizer,
    register_optimizer,
    run_study,
    run_sweep,
)
from repro.api.sweep import apply_axis
from repro.optimize.sizers import available_sizers, make_sizer
from repro.process.technology import default_technology
from repro.process.variation import VariationModel

PIPE = PipelineSpec(kind="inverter_chain", n_stages=2, logic_depth=4)
VAR = VariationSpec.combined()
FAST_DESIGN = DesignSpec(
    optimizer="balanced",
    sizer="greedy",
    sizer_options={"max_moves": 300},
    yield_target=0.85,
    delay_policy="stage_min",
    delay_scale=0.9,
    curve_points=2,
)


def design_spec(**overrides) -> DesignStudySpec:
    fields = dict(
        pipeline=PIPE,
        variation=VAR,
        design=FAST_DESIGN,
        validation=AnalysisSpec(n_samples=200, seed=7),
    )
    fields.update(overrides)
    return DesignStudySpec(**fields)


@pytest.fixture(scope="module")
def session() -> Session:
    return Session()


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestDesignSpec:
    def test_defaults_are_valid(self):
        spec = DesignSpec()
        assert spec.optimizer == "global"
        assert spec.sizer == "lagrangian"

    def test_sizer_options_accepts_mapping_and_stays_hashable(self):
        spec = DesignSpec(sizer_options={"max_outer": 10, "min_size": 1.0})
        assert dict(spec.sizer_options) == {"max_outer": 10, "min_size": 1.0}
        hash(spec)  # must not raise

    def test_sizer_options_order_insensitive(self):
        # Specs are cache keys: the same options in a different order must
        # compare and hash equal.
        a = DesignSpec(sizer_options={"max_outer": 10, "min_size": 1.0})
        b = DesignSpec(sizer_options={"min_size": 1.0, "max_outer": 10})
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"optimizer": ""},
            {"sizer": ""},
            {"yield_target": 1.2},
            {"stage_yield": 0.0},
            {"delay_target": -1.0},
            {"delay_policy": "nope"},
            {"delay_scale": 0.0},
            {"delay_probe": 1.5},
            {"curve_points": 0},
            {"ordering": "sideways"},
            {"rounds": 0},
            {"max_stage_yield": 0.4},
            {"fraction": 0.95},
            {"mode": "middling"},
        ],
    )
    def test_validation_errors(self, kwargs):
        with pytest.raises(ValueError):
            DesignSpec(**kwargs)

    def test_json_round_trip(self):
        spec = DesignSpec(
            optimizer="redistribute",
            sizer="greedy",
            sizer_options={"max_moves": 123},
            yield_target=0.9,
            stage_yield=0.97,
            delay_policy="sized",
            fraction=0.2,
            mode="worst",
        )
        assert DesignSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown DesignSpec field"):
            DesignSpec.from_dict({"optimiser": "global"})

    def test_balance_key_ignores_optimizer_knobs(self):
        a = DesignSpec(optimizer="balanced", fraction=0.1, mode="best")
        b = DesignSpec(optimizer="redistribute", fraction=0.3, mode="worst",
                       ordering="pipeline", curve_points=9)
        assert a.balance_key() == b.balance_key()
        assert a.balance_key() != DesignSpec(yield_target=0.7).balance_key()

    def test_with_optimizer(self):
        assert DesignSpec().with_optimizer("balanced").optimizer == "balanced"


class TestDesignStudySpec:
    def test_json_round_trip_with_validation(self):
        spec = design_spec(name="roundtrip")
        assert DesignStudySpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_without_validation(self):
        spec = design_spec(validation=None)
        restored = DesignStudySpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.validation is None

    def test_specs_are_hashable_cache_keys(self):
        assert len({design_spec(), design_spec()}) == 1


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class TestRegistries:
    def test_builtin_optimizers_registered(self):
        assert {"balanced", "redistribute", "global"} <= set(available_optimizers())

    def test_unknown_optimizer_raises(self):
        with pytest.raises(KeyError, match="no pipeline optimizer"):
            get_optimizer("simulated_annealing")

    def test_duplicate_registration_rejected(self):
        existing = get_optimizer("balanced")
        with pytest.raises(ValueError, match="already registered"):
            register_optimizer(existing)
        register_optimizer(existing, replace=True)  # replace is explicit

    def test_builtin_sizers_registered(self):
        assert {"lagrangian", "greedy"} <= set(available_sizers())

    def test_make_sizer_forwards_options(self):
        sizer = make_sizer(
            "greedy", default_technology(), VariationModel.combined(), max_moves=42
        )
        assert sizer.max_moves == 42


# ----------------------------------------------------------------------
# Design runs through the facade
# ----------------------------------------------------------------------
class TestDesignRuns:
    @pytest.mark.parametrize("optimizer", ["balanced", "redistribute", "global"])
    def test_every_optimizer_by_name_returns_design_report(self, session, optimizer):
        report = run_study(design_spec().with_optimizer(optimizer), session=session)
        assert isinstance(report, DesignReport)
        assert report.optimizer == optimizer
        assert report.stage_names == ("stage0", "stage1")
        assert report.total_area > 0.0
        assert 0.0 <= report.predicted_yield <= 1.0
        assert report.validation is not None
        assert DesignReport.from_json(report.to_json()) == report

    def test_design_report_is_cached(self, session):
        spec = design_spec()
        assert session.design(spec) is session.design(spec)

    def test_balanced_trace_and_baseline(self, session):
        report = session.design(design_spec())
        assert len(report.trace) == 2
        assert report.baseline is not None
        # Sizing for a reachable target grows area relative to min size.
        assert report.total_area >= report.baseline.total_area

    def test_redistribute_roles_disjoint(self, session):
        report = session.design(design_spec(), optimizer="redistribute")
        assert report.donor_stages and report.receiver_stages
        assert not set(report.donor_stages) & set(report.receiver_stages)

    def test_global_stage_order_is_permutation(self, session):
        report = session.design(design_spec(), optimizer="global")
        assert sorted(report.stage_order) == sorted(report.stage_names)
        assert report.validation_baseline is not None

    def test_curves_shared_between_modes(self, session):
        spec_best = design_spec().with_optimizer("redistribute")
        curves_a = session.area_delay_curves(spec_best, 0.9)
        curves_b = session.area_delay_curves(
            spec_best.replace(design=spec_best.design.with_optimizer("global")), 0.9
        )
        assert curves_a is curves_b

    def test_balanced_baseline_shared_between_optimizers(self, session):
        balanced_a = session.balanced_design(design_spec())
        balanced_b = session.balanced_design(
            design_spec().with_optimizer("global")
        )
        assert balanced_a is balanced_b

    def test_stage_relative_policy_rejected_outside_balanced(self, session):
        relative = design_spec(
            design=DesignSpec(
                optimizer="global",
                sizer="greedy",
                sizer_options={"max_moves": 100},
                delay_policy="stage_relative",
                delay_scale=0.9,
            )
        )
        with pytest.raises(ValueError, match="stage_relative"):
            session.design(relative)

    def test_stage_relative_policy_gives_per_stage_targets(self, session):
        relative = design_spec(
            pipeline=PipelineSpec(kind="inverter_chain", n_stages=2,
                                  logic_depth=(3, 6)),
            design=DesignSpec(
                optimizer="balanced",
                sizer="greedy",
                sizer_options={"max_moves": 100},
                delay_policy="stage_relative",
                delay_scale=0.9,
            ),
            validation=None,
        )
        report = session.design(relative)
        assert report.stage_targets[0] != report.stage_targets[1]
        assert report.target_delay == max(report.stage_targets)


# ----------------------------------------------------------------------
# The pipeline-mutation footgun (regression)
# ----------------------------------------------------------------------
class TestDesignIsolation:
    def test_design_does_not_perturb_cached_pipeline_or_analysis(self):
        session = Session()
        study = StudySpec(
            pipeline=PIPE,
            variation=VAR,
            analysis=AnalysisSpec(n_samples=300, seed=11),
        )
        before = session.analyze(study)
        sizes_before = [
            stage.netlist.sizes().copy()
            for stage in session.pipeline(PIPE).stages
        ]

        # Run every optimizer against the SAME pipeline spec on the SAME
        # session; each resizes gates aggressively.
        for optimizer in ("balanced", "redistribute", "global"):
            session.design(design_spec(validation=None), optimizer=optimizer)

        sizes_after = [
            stage.netlist.sizes() for stage in session.pipeline(PIPE).stages
        ]
        for old, new in zip(sizes_before, sizes_after):
            assert np.array_equal(old, new)

        # Recompute the analysis from the cached pipeline (drop only the
        # memoized reports/characterisations, keeping the shared pipeline):
        # a mutated pipeline would produce different samples here.
        session._reports.clear()
        session._mc_runs.clear()
        after = session.analyze(study)
        assert after == before

    def test_pipeline_copy_is_fresh(self):
        session = Session()
        copy_a = session.pipeline_copy(PIPE)
        copy_b = session.pipeline_copy(PIPE)
        assert copy_a is not copy_b
        assert copy_a is not session.pipeline(PIPE)
        copy_a.stages[0].netlist.set_sizes(
            np.full(copy_a.stages[0].netlist.n_gates, 9.0)
        )
        assert not np.array_equal(
            copy_a.stages[0].netlist.sizes(),
            session.pipeline(PIPE).stages[0].netlist.sizes(),
        )


# ----------------------------------------------------------------------
# Design sweeps
# ----------------------------------------------------------------------
class TestDesignSweeps:
    def test_design_axes_compose_with_variation_axes(self, session):
        result = run_sweep(
            design_spec(validation=None),
            {
                "design.optimizer": ["balanced", "global"],
                "variation.sigma_scale": [1.0, 1.5],
            },
            session=session,
        )
        assert len(result) == 4
        assert all(isinstance(point.report, DesignReport) for point in result)
        records = result.to_records()
        assert {record["design.optimizer"] for record in records} == {
            "balanced", "global",
        }
        # More variation should not improve the predicted yield.
        by_coords = {
            (p.coord("design.optimizer"), p.coord("variation.sigma_scale")): p.report
            for p in result
        }
        assert (
            by_coords[("balanced", 1.5)].predicted_yield
            <= by_coords[("balanced", 1.0)].predicted_yield + 1e-9
        )

    def test_optimizer_axis_points_share_validation_stream(self):
        sweep = ScenarioSweep(
            design_spec(),
            {
                "design.optimizer": ["balanced", "global"],
                "design.yield_target": [0.7, 0.8],
            },
        )
        specs = sweep.specs()
        # Grid order: optimizer-major.  Points differing only in optimizer
        # share a validation seed; points differing in yield target do not.
        assert specs[0].validation.seed == specs[2].validation.seed
        assert specs[1].validation.seed == specs[3].validation.seed
        assert specs[0].validation.seed != specs[1].validation.seed

    def test_zip_sizer_axis_shares_validation_stream(self):
        # The sizer-ablation pattern: sizer and its options zipped together
        # must still validate every sizer on one sample stream.
        sweep = ScenarioSweep(
            design_spec(),
            {
                "design.sizer": ["lagrangian", "greedy"],
                "design.sizer_options": [{}, {"max_moves": 2500}],
            },
            mode="zip",
        )
        seeds = {spec.validation.seed for spec in sweep.specs()}
        assert len(seeds) == 1

    def test_yield_target_axis_changes_reports(self, session):
        result = run_sweep(
            design_spec(validation=None),
            {"design.yield_target": [0.6, 0.9]},
            session=session,
        )
        loose, strict = result[0].report, result[1].report
        assert loose.target_yield == 0.6
        assert strict.target_yield == 0.9

    def test_apply_axis_design_sections(self):
        spec = design_spec()
        assert apply_axis(spec, "design.mode", "worst").design.mode == "worst"
        assert apply_axis(spec, "validation.n_samples", 50).validation.n_samples == 50
        with pytest.raises(ValueError, match="axis path"):
            apply_axis(spec, "analysis.backend", "ssta")


class TestDesignSweepSSTAWork:
    """Each distinct stage form of the benchmark's design sweep is computed once.

    The base sweep of the ``design_sweep`` benchmark workload (c432 + c499,
    3 optimizers x 2 sizers) asks its sizers' engines for 164 stage-form
    rows; 56 are memo hits, and the other 108 run in 59 SSTA passes (the
    full counts are in DESIGN.md, "One SSTA pass per distinct sizing").  A
    rise in passes or computed rows means a form is computed twice again;
    a fall needs no change here.  The design flow does not depend on the
    validation seed.
    """

    def test_passes_and_rows(self, monkeypatch):
        from repro.timing.ssta import MemoizedTimingAnalyzer, StatisticalTimingAnalyzer

        passes, asked = [], []
        plan_arrivals = StatisticalTimingAnalyzer._plan_arrivals
        stage_delay = MemoizedTimingAnalyzer.stage_delay

        def counted_pass(self, netlist, sizes, lanes=None):
            passes.append(lanes)
            return plan_arrivals(self, netlist, sizes, lanes)

        def counted_call(self, netlist, flipflop=None, flipflop_position=None, sizes=None):
            asked.append(1 if sizes is None or np.ndim(sizes) == 1 else len(sizes))
            return stage_delay(self, netlist, flipflop, flipflop_position, sizes)

        monkeypatch.setattr(StatisticalTimingAnalyzer, "_plan_arrivals", counted_pass)
        monkeypatch.setattr(MemoizedTimingAnalyzer, "stage_delay", counted_call)
        base = DesignStudySpec(
            pipeline=PipelineSpec(kind="iscas", benchmarks=("c432", "c499")),
            variation=VariationSpec.combined(),
            design=DesignSpec(yield_target=0.80),
            validation=AnalysisSpec(n_samples=200, seed=11),
        )
        axes = {
            "design.optimizer": ["balanced", "redistribute", "global"],
            "design.sizer": ["lagrangian", "greedy"],
        }
        points = list(ScenarioSweep(base, axes).iter_results(Session()))
        assert len(points) == 6
        computed = sum(1 if lanes is None else lanes for lanes in passes)
        assert len(passes) <= 59
        assert computed <= 108
        assert sum(asked) - computed > 0  # memo hits
