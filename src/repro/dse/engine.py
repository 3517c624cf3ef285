"""The design-space exploration engine: streamed evaluation + Pareto analysis.

:class:`DesignSpaceExplorer` turns a candidate :class:`~repro.dse.space.
DesignPoint` into multi-objective measurements by simulating every workload on
the explored accelerator *and* on the baseline at that point's configuration,
all submitted as **one batch** of :class:`~repro.runner.SimulationJob` objects
through the shared :class:`~repro.runner.SimulationRunner` — so identical
candidates deduplicate within a search and repeated searches replay from
the content-addressed cache across the whole (point x model x accelerator)
grid.

The default objectives span the three axes the ISSUE and the paper's
evaluation care about:

* ``speedup`` (max) — geomean generator speedup over the baseline across the
  evaluated workloads, both simulated at the candidate configuration;
* ``energy_pj`` (min) — total generator energy of the explored accelerator
  across the workloads;
* ``area_mm2`` (min) — accelerator area from :class:`~repro.hw.area.AreaModel`
  at the candidate's PE count.

:meth:`DesignSpaceExplorer.explore` runs a
:class:`~repro.dse.strategies.SearchStrategy` over a
:class:`~repro.dse.space.DesignSpace` and returns an
:class:`ExplorationResult`: the evaluation trace, the
:class:`~repro.dse.pareto.ParetoFrontier`, and the
:class:`~repro.runner.CacheStats` delta of the search (a warm-cache re-search
reports 100% hits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..accelerators.registry import get_accelerator
from ..analysis.metrics import geometric_mean
from ..analysis.report import format_frontier
from ..analysis.results import GanResult
from ..config import ArchitectureConfig, SimulationOptions
from ..errors import AnalysisError
from ..hw.area import AreaModel
from ..nn.network import GANModel
from ..runner import CacheStats, SimulationJob, SimulationRunner, get_default_runner
from ..workloads.registry import all_workloads, get_workload
from .pareto import EvaluatedPoint, Objective, ParetoFrontier
from .space import Constraint, DesignPoint, DesignSpace
from .strategies import ExhaustiveSearch, SearchStrategy

#: The stock three-objective setup: performance, energy, silicon.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective(
        "speedup",
        "max",
        "geomean generator speedup over the baseline (same configuration)",
    ),
    Objective(
        "energy_pj",
        "min",
        "total generator energy across the evaluated workloads (pJ)",
    ),
    Objective("area_mm2", "min", "accelerator area at the candidate PE count"),
)


@dataclass(frozen=True)
class ExplorationResult:
    """Everything one design-space search produced.

    Attributes
    ----------
    accelerator / baseline:
        The explored registry entry and the one speedups are taken against.
    strategy:
        Name of the strategy that drove the search.
    objectives:
        The optimization criteria, in reporting order.
    space:
        JSON-friendly description of the searched space
        (:meth:`DesignSpace.describe`).
    evaluated:
        Every evaluated point, in evaluation order (the search trace).
    frontier:
        The Pareto partition over ``evaluated``.
    cache_stats:
        Cache accounting for exactly this search (a delta, not the runner's
        lifetime counters): a re-search against a warm cache shows
        ``misses == 0`` and ``hit_rate == 1.0``.
    """

    accelerator: str
    baseline: str
    strategy: str
    objectives: Tuple[Objective, ...]
    space: Dict[str, Any]
    evaluated: Tuple[EvaluatedPoint, ...]
    frontier: ParetoFrontier
    cache_stats: CacheStats

    def best(self, objective_name: str) -> EvaluatedPoint:
        """The frontier point optimizing one objective."""
        return self.frontier.best(objective_name)

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly record of the whole search.

        Deliberately excludes :attr:`cache_stats`: the summary describes the
        *search outcome*, while cache accounting is execution metadata that
        differs between cold and warm runs (``--cache-stats`` prints it
        separately).  Exhaustive and random searches evaluate a fixed point
        set, so their summaries are byte-comparable across cold and warm
        runs.  A hill climb's is not: it advances on the first improving
        neighbour to complete, and cache-warm neighbours complete first, so
        its walk, and with it its frontier, depends on the cache state.
        """
        return {
            "accelerator": self.accelerator,
            "baseline": self.baseline,
            "strategy": self.strategy,
            "space": dict(self.space),
            "evaluations": len(self.evaluated),
            **self.frontier.summary(),
        }

    def report(self, title: Optional[str] = None) -> str:
        """Rendered frontier table (see :func:`repro.analysis.report.format_frontier`)."""
        title = title or (
            f"Design-space exploration: {self.accelerator} vs {self.baseline} "
            f"({self.strategy}, {len(self.evaluated)} points)"
        )
        rows = [
            {
                "label": p.label,
                "objectives": dict(p.objectives),
                "on_frontier": self.frontier.is_on_frontier(p),
            }
            for p in (*self.frontier.frontier, *self.frontier.dominated)
        ]
        return format_frontier(
            title, rows, [(o.name, o.sense) for o in self.objectives]
        )


class _TraceEvaluator:
    """The memoizing evaluation facade the engine hands to strategies.

    Calling it evaluates a batch and returns the results in the order of the
    points (:meth:`DesignSpaceExplorer.evaluate`); :meth:`stream` yields
    them as they complete (:meth:`DesignSpaceExplorer.evaluate_stream`).
    Both read the explorer's one stream and share one memo — a strategy
    revisiting a point (hill-climb restarts, duplicated random draws) costs
    nothing — and append each fresh result to the engine's trace exactly
    once, in the order the strategy observed it.
    """

    def __init__(
        self,
        explorer: "DesignSpaceExplorer",
        memo: Dict[DesignPoint, EvaluatedPoint],
        trace: List[EvaluatedPoint],
    ) -> None:
        self._explorer = explorer
        self._memo = memo
        self._trace = trace

    def __call__(self, points: Sequence[DesignPoint]) -> List[EvaluatedPoint]:
        # dict.fromkeys: drop repeats *within* the batch too, so the
        # trace holds each point exactly once whatever the strategy sends
        fresh = [p for p in dict.fromkeys(points) if p not in self._memo]
        for result in self._explorer.evaluate(fresh):
            self._record(result)
        return [self._memo[p] for p in points]

    def stream(self, points: Sequence[DesignPoint]) -> Iterator[EvaluatedPoint]:
        """Yield evaluations as they land; memoized points come first.

        Fresh points stream through
        :meth:`DesignSpaceExplorer.evaluate_stream`; closing the iterator
        early cancels the in-flight simulations, and points that were never
        consumed never enter the trace (they were not evaluated).
        """
        ordered = list(dict.fromkeys(points))
        for point in ordered:
            if point in self._memo:
                yield self._memo[point]
        fresh = [p for p in ordered if p not in self._memo]
        for result in self._explorer.evaluate_stream(fresh):
            self._record(result)
            yield result

    def _record(self, result: EvaluatedPoint) -> None:
        if result.point not in self._memo:
            self._memo[result.point] = result
            self._trace.append(result)


class DesignSpaceExplorer:
    """Evaluate design points of one accelerator against a baseline.

    Parameters
    ----------
    accelerator:
        Registry name of the explored architecture (default ``"ganax"``).
    baseline:
        Registry name speedups are measured against (default ``"eyeriss"``);
        simulated at every candidate configuration alongside the candidate.
    models:
        Workloads driving the evaluation — built models, registry names or
        family spec strings (``"synthetic@d8c256"``); all six paper GANs
        when omitted.
    base_config / options:
        The configuration design points are applied onto, and the shared
        simulation options (paper defaults when omitted).
    objectives:
        Optimization criteria; :data:`DEFAULT_OBJECTIVES` when omitted.
    runner:
        The :class:`~repro.runner.SimulationRunner` every candidate batch
        submits through; the process-wide cached runner when omitted.
    """

    def __init__(
        self,
        accelerator: str = "ganax",
        baseline: str = "eyeriss",
        models: Optional[Sequence[Union[str, GANModel]]] = None,
        base_config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
        objectives: Optional[Sequence[Objective]] = None,
        runner: Optional[SimulationRunner] = None,
    ) -> None:
        self._accelerator = get_accelerator(accelerator).name
        self._baseline = get_accelerator(baseline).name
        # Which area model prices the candidate's silicon is a property of
        # the explored architecture family, not of its relation to the
        # baseline (exploring eyeriss against ganax must cost EYERISS area).
        self._candidate_ganax_area = bool(
            getattr(
                get_accelerator(self._accelerator).create(),
                "ganax_area_model",
                True,
            )
        )
        self._models = (
            [get_workload(m) if isinstance(m, str) else m for m in models]
            if models is not None
            else list(all_workloads())
        )
        if not self._models:
            raise AnalysisError("exploration needs at least one model")
        self._base_config = base_config or ArchitectureConfig.paper_default()
        self._options = options or SimulationOptions()
        self._objectives = tuple(objectives or DEFAULT_OBJECTIVES)
        self._runner = runner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accelerator(self) -> str:
        return self._accelerator

    @property
    def baseline(self) -> str:
        return self._baseline

    @property
    def objectives(self) -> Tuple[Objective, ...]:
        return self._objectives

    @property
    def runner(self) -> SimulationRunner:
        if self._runner is None:
            self._runner = get_default_runner()
        return self._runner

    # ------------------------------------------------------------------
    # Space construction
    # ------------------------------------------------------------------
    def space(
        self,
        fields: Optional[Sequence[str]] = None,
        overrides: Optional[Mapping[str, Sequence[Any]]] = None,
        constraints: Sequence[Constraint] = (),
    ) -> DesignSpace:
        """The explored accelerator's ``config_space()``-driven design space."""
        return DesignSpace.for_accelerator(
            self._accelerator,
            fields=fields,
            overrides=overrides,
            base_config=self._base_config,
            constraints=constraints,
        )

    # ------------------------------------------------------------------
    # Evaluation: one index-carrying stream, collected by evaluate()
    # ------------------------------------------------------------------
    def _build_jobs(
        self, points: Sequence[DesignPoint]
    ) -> Tuple[List[SimulationJob], List[Tuple[int, int, bool]], List[ArchitectureConfig]]:
        """The (point x model x {candidate, baseline}) grid for one batch.

        Returns the jobs, a parallel slot list mapping each job back to
        ``(point index, model position, is_candidate)``, and each point's
        applied configuration.

        A point carrying a schedule axis value runs its jobs with that
        schedule substituted into the shared options; the job's cache key
        folds the schedule's knob fingerprint, so (geometry × schedule)
        points never collide in the cache while a schedule-insensitive
        accelerator (whose ``canonical_options`` collapses the schedule)
        still shares one entry per geometry.
        """
        jobs: List[SimulationJob] = []
        slots: List[Tuple[int, int, bool]] = []
        configs: List[ArchitectureConfig] = []
        for point_index, point in enumerate(points):
            config = point.apply(self._base_config)
            configs.append(config)
            options = self._options
            if point.schedule is not None:
                options = options.with_updates(schedule=point.schedule)
            for position, model in enumerate(self._models):
                for name, is_candidate in (
                    (self._accelerator, True),
                    (self._baseline, False),
                ):
                    jobs.append(
                        SimulationJob(
                            model=model,
                            accelerator=name,
                            config=config,
                            options=options,
                        )
                    )
                    slots.append((point_index, position, is_candidate))
        return jobs, slots, configs

    def _stream(
        self, points: Sequence[DesignPoint]
    ) -> Iterator[Tuple[int, EvaluatedPoint]]:
        """Yield ``(point index, evaluation)`` as each point's jobs complete.

        The whole :meth:`_build_jobs` grid joins one runner submission; a
        point is scored the moment *its* simulations have all landed, in
        completion order (cache-warm points first, then submission order).
        Closing the iterator early cancels every simulation that has not
        started.
        """
        if not points:
            return
        jobs, slots, configs = self._build_jobs(points)
        handle = self.runner.submit(jobs)
        remaining = [2 * len(self._models)] * len(points)
        landed: List[Dict[Tuple[int, bool], GanResult]] = [{} for _ in points]
        try:
            for completion in handle.as_completed():
                point_index, position, is_candidate = slots[completion.index]
                landed[point_index][position, is_candidate] = completion.result
                remaining[point_index] -= 1
                if remaining[point_index] == 0:
                    results = landed[point_index]
                    candidate, reference = (
                        {m.name: results[i, side] for i, m in enumerate(self._models)}
                        for side in (True, False)
                    )
                    yield point_index, self._score(
                        points[point_index], configs[point_index], candidate, reference
                    )
        finally:
            handle.cancel()

    def evaluate_stream(
        self, points: Sequence[DesignPoint]
    ) -> Iterator[EvaluatedPoint]:
        """Yield each point's :class:`EvaluatedPoint` as its jobs complete.

        An adaptive strategy can react to the first finished candidate
        instead of waiting for the whole batch; see :meth:`_stream`.
        """
        stream = self._stream(list(points))
        try:
            for _index, evaluated in stream:
                yield evaluated
        finally:
            stream.close()  # cancels the unstarted simulations when closed early

    def evaluate(self, points: Sequence[DesignPoint]) -> List[EvaluatedPoint]:
        """Measure every point's objectives; one runner batch for all of them.

        The stream behind :meth:`evaluate_stream`, collected back into the
        order of ``points``.
        For each point the batch carries ``len(models)`` candidate jobs plus
        ``len(models)`` baseline jobs at the same configuration; the runner
        deduplicates overlapping candidates and answers repeats from cache.
        """
        points = list(points)
        evaluated = dict(self._stream(points))
        return [evaluated[index] for index in range(len(points))]

    def _score(
        self,
        point: DesignPoint,
        config: ArchitectureConfig,
        candidate: Mapping[str, GanResult],
        reference: Mapping[str, GanResult],
    ) -> EvaluatedPoint:
        """Fold one point's raw simulation results into objective values."""
        speedups = {}
        for name in candidate:
            cycles = candidate[name].generator.cycles
            if cycles == 0:
                raise AnalysisError(
                    f"{point.label}: {self._accelerator} generator cycles are "
                    f"zero for {name}"
                )
            speedups[name] = reference[name].generator.cycles / cycles
        energy_pj = sum(r.generator.energy_pj for r in candidate.values())
        area = AreaModel(num_pes=config.num_pes)
        area_mm2 = area.total_area_mm2(ganax=self._candidate_ganax_area)
        measured = {
            "speedup": geometric_mean(list(speedups.values())),
            "energy_pj": energy_pj,
            "area_mm2": area_mm2,
        }
        unknown = [o.name for o in self._objectives if o.name not in measured]
        if unknown:
            raise AnalysisError(
                f"objectives without an evaluator: {unknown}; "
                f"measured: {', '.join(measured)}"
            )
        return EvaluatedPoint(
            point=point,
            objectives={o.name: measured[o.name] for o in self._objectives},
            metrics={
                "speedups": speedups,
                "generator_energy_pj": {
                    name: r.generator.energy_pj for name, r in candidate.items()
                },
                "num_pes": config.num_pes,
            },
        )

    # ------------------------------------------------------------------
    # Search entry point
    # ------------------------------------------------------------------
    def explore(
        self,
        space: Optional[DesignSpace] = None,
        strategy: Optional[SearchStrategy] = None,
        budget: Optional[int] = None,
    ) -> ExplorationResult:
        """Run one search: strategy picks points, the runner evaluates them.

        Evaluations are memoized per point, so a strategy revisiting a point
        (hill-climb restarts, duplicated random draws) costs nothing and the
        trace holds each point once.
        """
        space = space if space is not None else self.space()
        strategy = strategy if strategy is not None else ExhaustiveSearch()
        before = dict(self.runner.stats.as_dict())
        memo: Dict[DesignPoint, EvaluatedPoint] = {}
        trace: List[EvaluatedPoint] = []
        strategy.search(
            space, _TraceEvaluator(self, memo, trace), self._objectives, budget
        )
        after = self.runner.stats.as_dict()
        delta = CacheStats(
            hits=int(after["hits"] - before["hits"]),
            misses=int(after["misses"] - before["misses"]),
            stores=int(after["stores"] - before["stores"]),
            deduplicated=int(after["deduplicated"] - before["deduplicated"]),
        )
        return ExplorationResult(
            accelerator=self._accelerator,
            baseline=self._baseline,
            strategy=strategy.name,
            objectives=self._objectives,
            space=space.describe(),
            evaluated=tuple(trace),
            frontier=ParetoFrontier(self._objectives, trace),
            cache_stats=delta,
        )


def explore(
    accelerator: str = "ganax",
    baseline: str = "eyeriss",
    strategy: Optional[SearchStrategy] = None,
    budget: Optional[int] = None,
    space: Optional[DesignSpace] = None,
    models: Optional[Sequence[GANModel]] = None,
    base_config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
    objectives: Optional[Sequence[Objective]] = None,
    runner: Optional[SimulationRunner] = None,
) -> ExplorationResult:
    """One-call exploration through a fresh :class:`DesignSpaceExplorer`."""
    explorer = DesignSpaceExplorer(
        accelerator=accelerator,
        baseline=baseline,
        models=models,
        base_config=base_config,
        options=options,
        objectives=objectives,
        runner=runner,
    )
    return explorer.explore(space=space, strategy=strategy, budget=budget)
