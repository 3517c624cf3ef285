"""The schedule subsystem: specs, registry, lowering effects, cache identity.

Covers the searchable-schedule layer end to end:

* :class:`~repro.schedule.ScheduleSpec` knob validation and the planning-time
  semantics (column permutation, task emission, repeat splitting);
* the registry and the ``<family>@<args>`` spec-string grammar;
* fingerprints — aliases with equal knobs share one, any knob change moves it;
* the lowering knobs against the *machine*: ``hoisted`` emits strictly fewer
  µops, stays verifier-clean and computes bit-equal addresses; ``unroll``
  stays numerically exact because the accumulator persists across dispatches;
* the verify-then-simulate gate (:func:`~repro.schedule.verify_schedule`);
* the cache-identity regression (jobs differing only in schedule never share
  a cache or layer-memo entry) and the DSE schedule axis.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.serialization import layer_fingerprint
from repro.config import ArchitectureConfig, SimulationOptions
from repro.core.compiler import GanaxLayerExecutor, compile_layer_programs
from repro.dse import DesignSpaceExplorer
from repro.dse.space import SCHEDULE_DIMENSION, DesignPoint, DesignSpace, Dimension
from repro.errors import ConfigurationError, ScheduleError, UnknownScheduleError
from repro.nn.functional import transposed_conv2d
from repro.runner import (
    DiskResultCache,
    SimulationJob,
    SimulationRunner,
)
from repro.schedule import (
    DEFAULT_SCHEDULE,
    ScheduleSpec,
    canonical_schedule_name,
    describe_schedule,
    describe_schedules,
    register_schedule,
    resolve_schedule,
    schedule_families,
    schedule_fingerprint,
    schedule_is_feasible,
    schedule_names,
    unregister_schedule,
    verify_schedule,
)
from repro.staticcheck import MachineModel, Severity, verify_program
from repro.workloads.registry import get_workload


def _dcgan_binding(layer_name: str):
    model = get_workload("dcgan")
    for net in (model.generator, model.discriminator):
        for binding in net.bindings:
            if binding.name == layer_name:
                return binding
    raise AssertionError(f"no dcgan layer named {layer_name}")


def _compile(binding, schedule, **kw):
    kw.setdefault("num_pvs", 16)
    kw.setdefault("pes_per_pv", 16)
    kw.setdefault("max_waves", 1)
    return compile_layer_programs(binding, schedule=schedule, **kw)


def _total_uops(programs):
    return sum(len(p.global_uops) for p in programs)


# ----------------------------------------------------------------------
# ScheduleSpec semantics
# ----------------------------------------------------------------------
class TestScheduleSpec:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"row_order": "zigzag"},
            {"pv_policy": "random"},
            {"column_order": "shuffled"},
            {"column_tile": -1},
            {"column_tile": 5000},
            {"column_tile": True},
            {"repeat_unroll": 0},
            {"repeat_unroll": 9},
            {"hoist_invariant_cfg": 1},
        ],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ScheduleError):
            ScheduleSpec(name="bad", **knobs)

    def test_empty_name_rejected(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(name="  ")

    def test_permute_columns_descending(self):
        spec = ScheduleSpec(name="t", column_order="descending")
        assert spec.permute_columns((0, 1, 2, 3)) == (3, 2, 1, 0)

    def test_permute_columns_tile_interleaves(self):
        spec = ScheduleSpec(name="t", column_tile=2)
        # column-major over 2-wide tiles: phase 0 of every tile, then phase 1
        assert spec.permute_columns((0, 1, 2, 3, 4, 5)) == (0, 2, 4, 1, 3, 5)

    def test_permute_columns_tile_wider_than_row_is_identity(self):
        spec = ScheduleSpec(name="t", column_tile=64)
        assert spec.permute_columns((0, 1, 2)) == (0, 1, 2)

    def test_permute_columns_default_is_identity(self):
        assert DEFAULT_SCHEDULE.permute_columns((3, 1, 2)) == (3, 1, 2)

    def test_task_emission_roundrobin(self):
        assert DEFAULT_SCHEDULE.task_emission(5, 2) == (
            (0, 0), (1, 1), (2, 0), (3, 1), (4, 0)
        )

    def test_task_emission_blocked_fills_waves_with_distinct_pvs(self):
        spec = ScheduleSpec(name="t", pv_policy="blocked")
        emission = spec.task_emission(6, 2)
        # every planned index appears exactly once
        assert sorted(i for i, _ in emission) == list(range(6))
        # PV p owns the contiguous block [p*3, p*3+3)
        for index, pv in emission:
            assert pv == index // 3
        # consecutive emissions alternate PVs, so wave chunking never stalls
        pvs = [pv for _, pv in emission]
        assert pvs == [0, 1, 0, 1, 0, 1]

    def test_task_emission_empty(self):
        assert DEFAULT_SCHEDULE.task_emission(0, 4) == ()

    @pytest.mark.parametrize("taps,parts", [(7, 2), (7, 3), (3, 8), (1, 4)])
    def test_split_repeat_balanced_and_exact(self, taps, parts):
        spec = ScheduleSpec(name="t", repeat_unroll=parts)
        split = spec.split_repeat(taps)
        assert len(split) == parts
        assert sum(split) == taps
        assert split[0] >= 1
        assert max(split) - min(split) <= 1
        assert list(split) == sorted(split, reverse=True)

    def test_analytic_hooks(self):
        assert DEFAULT_SCHEDULE.dispatch_event_multiplier() == 1
        assert ScheduleSpec(name="t", repeat_unroll=3).dispatch_event_multiplier() == 3
        assert DEFAULT_SCHEDULE.uop_fetches_per_event(16) == 17
        hoisted = resolve_schedule("hoisted")
        assert hoisted.uop_fetches_per_event(16) == 9


# ----------------------------------------------------------------------
# Registry and spec-string grammar
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = schedule_names()
        for name in ("default", "hoisted", "raster", "blocked"):
            assert name in names
        assert set(schedule_families()) >= {"colmajor", "unroll"}

    def test_resolve_none_is_default(self):
        assert resolve_schedule(None) is DEFAULT_SCHEDULE

    def test_resolve_spec_passthrough(self):
        spec = ScheduleSpec(name="inline", column_tile=3)
        assert resolve_schedule(spec) is spec

    def test_resolve_is_case_and_space_insensitive(self):
        assert resolve_schedule(" Hoisted ") is resolve_schedule("hoisted")

    def test_family_points_and_default_point(self):
        assert resolve_schedule("colmajor@tile64").column_tile == 64
        assert resolve_schedule("colmajor@tile2").column_tile == 2
        assert resolve_schedule("colmajor").column_tile == 64
        assert resolve_schedule("unroll@u3").repeat_unroll == 3
        assert resolve_schedule("unroll").repeat_unroll == 2

    def test_canonical_schedule_name(self):
        assert canonical_schedule_name(None) == "default"
        assert canonical_schedule_name("colmajor") == "colmajor@tile64"
        assert canonical_schedule_name("unroll@u4") == "unroll@u4"

    def test_unknown_schedule_lists_registry(self):
        with pytest.raises(UnknownScheduleError) as excinfo:
            resolve_schedule("no-such-schedule")
        message = str(excinfo.value)
        assert "default" in message and "hoisted" in message
        assert "colmajor" in message
        assert excinfo.value.registered == schedule_names()

    def test_unknown_schedule_error_pickles(self):
        """Cross-process safety: the error must survive a worker round-trip."""
        err = UnknownScheduleError("typo", schedule_names(), schedule_families())
        clone = pickle.loads(pickle.dumps(err))
        assert clone.name == "typo"
        assert clone.registered == err.registered
        assert str(clone) == str(err)

    def test_bad_family_args_rejected(self):
        with pytest.raises(ScheduleError):
            resolve_schedule("colmajor@banana")
        with pytest.raises(ScheduleError):
            resolve_schedule("unroll@tile4")  # wrong key for the family
        with pytest.raises(ScheduleError):
            resolve_schedule("unroll@u0")  # parsed, but out of range

    def test_register_duplicate_rejected(self):
        with pytest.raises(ScheduleError):
            register_schedule(ScheduleSpec(name="default"))

    def test_register_unregister_roundtrip(self):
        spec = register_schedule(ScheduleSpec(name="TestOnly", column_tile=4))
        try:
            assert spec.name == "testonly"  # normalized
            assert resolve_schedule("testonly") is spec
        finally:
            unregister_schedule("testonly")
        with pytest.raises(UnknownScheduleError):
            resolve_schedule("testonly")

    def test_describe_schedules_is_json_shaped(self):
        catalog = describe_schedules()
        assert {entry["name"] for entry in catalog["schedules"]} == set(
            schedule_names()
        )
        for entry in catalog["schedules"]:
            assert set(entry) == {"name", "description", "fingerprint", "knobs"}
        assert {f["family"] for f in catalog["families"]} == set(schedule_families())


class TestFingerprint:
    def test_aliases_share_a_fingerprint(self):
        """Name and description are identity-free: equal knobs, equal hash."""
        a = ScheduleSpec(name="a", description="one", column_tile=8)
        b = ScheduleSpec(name="b", description="two", column_tile=8)
        assert schedule_fingerprint(a) == schedule_fingerprint(b)

    def test_every_knob_moves_the_fingerprint(self):
        base = schedule_fingerprint(DEFAULT_SCHEDULE)
        variants = [
            ScheduleSpec(name="v", row_order="raster"),
            ScheduleSpec(name="v", pv_policy="blocked"),
            ScheduleSpec(name="v", column_order="descending"),
            ScheduleSpec(name="v", column_tile=2),
            ScheduleSpec(name="v", repeat_unroll=2),
            ScheduleSpec(name="v", hoist_invariant_cfg=True),
        ]
        prints = [schedule_fingerprint(v) for v in variants]
        assert base not in prints
        assert len(set(prints)) == len(prints)

    def test_describe_schedule_carries_fingerprint(self):
        info = describe_schedule("hoisted")
        assert info["fingerprint"] == schedule_fingerprint(
            resolve_schedule("hoisted")
        )


# ----------------------------------------------------------------------
# Lowering effects against the machine
# ----------------------------------------------------------------------
class TestLoweringEffects:
    def _verify_clean(self, binding, schedule):
        for program in _compile(binding, schedule, max_columns=4):
            model = MachineModel.for_executor(
                ArchitectureConfig.paper_default().with_updates(
                    num_pvs=16, pes_per_pv=16
                ),
                num_pvs=16,
                pes_per_pv=16,
                output_columns=binding.output_shape.spatial[-1],
            )
            findings = [
                f
                for f in verify_program(program, model)
                if f.severity is Severity.ERROR
            ]
            assert findings == []

    def test_hoisted_emits_strictly_fewer_uops(self):
        binding = _dcgan_binding("tconv1")
        default = _compile(binding, "default")
        hoisted = _compile(binding, "hoisted")
        assert _total_uops(hoisted) < _total_uops(default)

    def test_hoisted_is_verifier_clean(self):
        self._verify_clean(_dcgan_binding("tconv1"), "hoisted")
        self._verify_clean(_dcgan_binding("conv1"), "hoisted")

    def test_unroll_emits_more_dispatches(self):
        binding = _dcgan_binding("tconv1")
        default = _compile(binding, "default", max_columns=4)
        unrolled = _compile(binding, "unroll@u2", max_columns=4)
        assert _total_uops(unrolled) > _total_uops(default)

    @pytest.mark.parametrize("schedule", ["hoisted", "unroll@u2", "unroll@u3",
                                          "colmajor@tile2", "raster", "blocked",
                                          "descending"])
    def test_machine_output_matches_reference(self, schedule):
        """Every non-default lowering computes the exact same layer.

        ``descending`` is not registered — passed as an inline spec — to also
        cover the spec-instance path through the executor.
        """
        if schedule == "descending":
            schedule = ScheduleSpec(name="descending", column_order="descending")
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((5, 5))
        reference = transposed_conv2d(x[None], w[None, None], stride=2, padding=2)[0]
        executor = GanaxLayerExecutor(
            num_pvs=4, pes_per_pv=4, skip_zeros=True, schedule=schedule
        )
        result = executor.run_transposed_conv(x, w, stride=2, padding=2)
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_hoisted_machine_output_bit_equal_to_default(self):
        """Eliding redundant cfg writes must not change a single bit."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4))
        w = rng.standard_normal((5, 5))
        runs = {}
        for name in ("default", "hoisted"):
            executor = GanaxLayerExecutor(
                num_pvs=4, pes_per_pv=4, skip_zeros=True, schedule=name
            )
            runs[name] = executor.run_transposed_conv(x, w, stride=2, padding=2)
        assert np.array_equal(runs["hoisted"].output, runs["default"].output)
        assert runs["hoisted"].executed_pe_uops == runs["default"].executed_pe_uops


# ----------------------------------------------------------------------
# The verify-then-simulate gate
# ----------------------------------------------------------------------
class TestVerifyGate:
    @pytest.mark.parametrize("schedule", [None, "default", "hoisted", "raster",
                                          "blocked", "colmajor@tile2",
                                          "colmajor@tile64", "unroll@u2"])
    def test_registered_schedules_feasible_on_paper_geometry(self, schedule):
        feasibility = verify_schedule(schedule, num_pvs=16, pes_per_pv=16)
        assert feasibility
        assert feasibility.feasible
        assert feasibility.findings == 0
        assert feasibility.programs > 0
        assert feasibility.reason == ""

    def test_unfit_geometry_is_infeasible_with_reason(self):
        # 4 PEs per PV cannot host the probe's 5-tap kernel rows.
        feasibility = verify_schedule("default", num_pvs=4, pes_per_pv=4)
        assert not feasibility
        assert feasibility.reason

    def test_schedule_is_feasible_shorthand(self):
        assert schedule_is_feasible("hoisted", num_pvs=16, pes_per_pv=16)
        assert not schedule_is_feasible("hoisted", num_pvs=4, pes_per_pv=4)

    def test_unknown_schedule_still_raises(self):
        with pytest.raises(UnknownScheduleError):
            verify_schedule("no-such", num_pvs=16, pes_per_pv=16)


# ----------------------------------------------------------------------
# Cache identity (satellite: the collision regression)
# ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_jobs_differing_only_in_schedule_never_share_a_cache_key(self):
        config = ArchitectureConfig.paper_default()
        keys = {
            schedule: SimulationJob(
                model="dcgan",
                accelerator="ganax",
                config=config,
                options=SimulationOptions(schedule=schedule),
            ).cache_key
            for schedule in ("default", "hoisted", "colmajor@tile64", "unroll@u2")
        }
        assert len(set(keys.values())) == len(keys)

    def test_layer_memo_entries_differ_by_schedule(self):
        binding = _dcgan_binding("tconv1")
        config = ArchitectureConfig.paper_default()
        prints = {
            schedule: layer_fingerprint(
                binding,
                "ganax",
                "1",
                config,
                SimulationOptions(schedule=schedule),
            )
            for schedule in ("default", "hoisted", "raster")
        }
        assert len(set(prints.values())) == len(prints)

    def test_reregistered_name_with_new_knobs_moves_the_key(self):
        """The knob fingerprint rides in the cache key alongside the name, so
        re-registering a name with different knobs can never collide with
        *persisted* results computed under the old knobs.

        The in-process memo layers are keyed by the spec string and must be
        cleared after a registry swap (mid-process re-registration is a
        test-only operation); the property under test here is the one that
        protects disk caches across processes.
        """
        from repro.analysis.serialization import _simulation_context_fingerprint

        binding = _dcgan_binding("tconv1")
        config = ArchitectureConfig.paper_default()

        def fingerprint():
            layer_fingerprint.cache_clear()
            _simulation_context_fingerprint.cache_clear()
            return layer_fingerprint(
                binding, "ganax", "1", config, SimulationOptions(schedule="tuned-x")
            )

        register_schedule(ScheduleSpec(name="tuned-x", column_tile=2))
        try:
            before = fingerprint()
        finally:
            unregister_schedule("tuned-x")
        register_schedule(ScheduleSpec(name="tuned-x", column_tile=4))
        try:
            after = fingerprint()
        finally:
            unregister_schedule("tuned-x")
        assert before != after

    def test_reregistered_name_with_new_knobs_moves_the_job_key(self):
        """The job key's memo is keyed by the *resolved* spec, not the name:
        a job over a re-registered name never reuses the key composed under
        the old knobs, although its options (and so the name) are equal."""

        def key():
            return SimulationJob(
                model="dcgan",
                accelerator="ganax",
                config=ArchitectureConfig.paper_default(),
                options=SimulationOptions(schedule="tuned-x"),
            ).cache_key

        register_schedule(ScheduleSpec(name="tuned-x", column_tile=2))
        try:
            before = key()
        finally:
            unregister_schedule("tuned-x")
        register_schedule(ScheduleSpec(name="tuned-x", column_tile=4))
        try:
            after = key()
        finally:
            unregister_schedule("tuned-x")
        assert before != after

    def test_options_canonicalize_family_points(self):
        options = SimulationOptions(schedule="colmajor")
        assert options.schedule == "colmajor@tile64"
        with pytest.raises(UnknownScheduleError):
            SimulationOptions(schedule="no-such-schedule")


# ----------------------------------------------------------------------
# The DSE schedule axis
# ----------------------------------------------------------------------
class TestDseScheduleAxis:
    def test_dimension_canonicalizes_and_dedups(self):
        dim = Dimension(SCHEDULE_DIMENSION, ("colmajor", "colmajor@tile64", "hoisted"))
        assert dim.values == ("colmajor@tile64", "hoisted")

    def test_dimension_rejects_unknown_schedule(self):
        with pytest.raises(UnknownScheduleError):
            Dimension(SCHEDULE_DIMENSION, ("default", "no-such"))

    def test_design_point_apply_ignores_schedule(self):
        base = ArchitectureConfig.paper_default()
        point = DesignPoint.from_mapping(
            {"num_pvs": 8, SCHEDULE_DIMENSION: "hoisted"}
        )
        applied = point.apply(base)
        assert applied.num_pvs == 8
        assert point.schedule == "hoisted"
        schedule_only = DesignPoint.from_mapping({SCHEDULE_DIMENSION: "hoisted"})
        assert schedule_only.apply(base) is base

    def test_schedule_insensitive_accelerator_rejects_the_axis(self):
        for accelerator in ("eyeriss", "ideal"):
            with pytest.raises(ConfigurationError):
                DesignSpace.for_accelerator(
                    accelerator, fields=(SCHEDULE_DIMENSION,)
                )

    def test_schedule_axis_defaults_to_the_registry(self):
        space = DesignSpace.for_accelerator(
            "ganax", fields=("num_pvs", SCHEDULE_DIMENSION),
            overrides={"num_pvs": (8, 16)},
        )
        schedule_dim = next(
            d for d in space.dimensions if d.name == SCHEDULE_DIMENSION
        )
        assert set(schedule_dim.values) == set(schedule_names())

    def test_infeasible_schedules_are_pruned_not_simulated(self, monkeypatch):
        space = DesignSpace.for_accelerator(
            "ganax",
            fields=("num_pvs", SCHEDULE_DIMENSION),
            overrides={"num_pvs": (16,), SCHEDULE_DIMENSION: ("default", "hoisted")},
        )
        import repro.schedule as schedule_module

        monkeypatch.setattr(
            schedule_module,
            "schedule_is_feasible",
            lambda schedule, **kw: canonical_schedule_name(schedule) != "hoisted",
        )
        surviving = {point.schedule for point in space.points()}
        assert surviving == {"default"}

    def test_explore_ranks_geometry_x_schedule_with_warm_cache(self, tmp_path):
        """Acceptance: schedule-aware keys — a warm re-search is 100% hits."""
        space_args = dict(
            fields=("num_pvs", SCHEDULE_DIMENSION),
            overrides={
                "num_pvs": (8, 16),
                SCHEDULE_DIMENSION: ("default", "hoisted"),
            },
        )
        models = [get_workload("MAGAN")]

        def search(runner):
            explorer = DesignSpaceExplorer(models=models, runner=runner)
            return explorer.explore(space=explorer.space(**space_args))

        cold = search(
            SimulationRunner(cache=DiskResultCache(tmp_path / "c"))
        )
        assert len(cold.evaluated) == 4
        labels = {p.point.label for p in cold.evaluated}
        assert any("schedule=hoisted" in label for label in labels)
        # the schedule axis must actually move the ganax objective values
        by_schedule = {}
        for p in cold.evaluated:
            by_schedule.setdefault(p.point.values["num_pvs"], {})[
                p.point.schedule
            ] = p.metrics
        for metrics in by_schedule.values():
            assert metrics["default"] != metrics["hoisted"]

        warm = search(
            SimulationRunner(cache=DiskResultCache(tmp_path / "c"))
        )
        assert warm.cache_stats.lookups > 0
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate == 1.0
        assert warm.frontier.summary() == cold.frontier.summary()
