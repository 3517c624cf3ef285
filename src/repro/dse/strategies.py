"""Pluggable search strategies for design-space exploration.

A strategy decides *which* points of a :class:`~repro.dse.space.DesignSpace`
to evaluate and in what batches; it never runs a simulation itself.  The
engine hands it an ``evaluate`` callback that turns a batch of design points
into :class:`~repro.dse.pareto.EvaluatedPoint` values — behind the callback
every candidate becomes a set of :class:`~repro.runner.SimulationJob` objects
submitted through the shared :class:`~repro.runner.SimulationRunner`, so a
strategy should prefer few large batches over many small ones: a batch
deduplicates internally and hits the content-addressed cache.  The engine's
evaluator also exposes ``evaluate.stream(points)``, yielding evaluations *as
they complete*; ``evaluate(points)`` is that stream collected in the order
of the points.  The one-batch strategies (exhaustive, random) call
``evaluate`` and accept any plain callable; hill climbing reads
``evaluate.stream`` to react to early results (closing the stream cancels
whatever has not started).

Three strategies are built in:

* :class:`ExhaustiveSearch` — every feasible point, one batch.  The reference
  everything else is measured against; equivalent to a
  :class:`~repro.analysis.sweep.ParameterSweep` over the same grid.
* :class:`RandomSearch` — a uniform sample without replacement, one batch.
* :class:`HillClimbSearch` — adaptive: walk the one-step neighbourhood of the
  incumbent towards a better scalarized objective, restarting on local
  optima.  One stream per neighbourhood, closed at the first improvement.

All strategies are deterministic for a fixed seed, so searches are exactly
reproducible; exhaustive and random re-runs replay the identical job set
warm, while a hill climb on a partly warm cache can walk elsewhere (see
:class:`HillClimbSearch`).
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from ..errors import AnalysisError, ConfigurationError
from .pareto import EvaluatedPoint, Objective
from .space import DesignPoint, DesignSpace

#: Batched evaluation callback supplied by the engine.
EvaluateFn = Callable[[Sequence[DesignPoint]], List[EvaluatedPoint]]

#: Evaluation budget a strategy falls back to when the caller gives none.
DEFAULT_BUDGET = 16


class SearchStrategy(Protocol):
    """Structural interface of a design-space search strategy."""

    @property
    def name(self) -> str:
        """Short identifier used in reports and the CLI's ``--strategy``."""
        ...

    def search(
        self,
        space: DesignSpace,
        evaluate: EvaluateFn,
        objectives: Sequence[Objective],
        budget: Optional[int] = None,
    ) -> None:
        """Evaluate up to ``budget`` distinct points via ``evaluate``.

        A strategy only *proposes* batches; the engine driving it owns the
        evaluation trace (memoized per point), so there is nothing to return.
        ``evaluate(points)`` returns results in the order of ``points``;
        :class:`HillClimbSearch` reads ``evaluate.stream(points)`` instead,
        while exhaustive and random search accept any plain callable.
        """
        ...


def _check_budget(budget: Optional[int]) -> Optional[int]:
    if budget is not None and budget <= 0:
        raise AnalysisError(f"search budget must be positive, got {budget}")
    return budget


def scalar_score(
    point: EvaluatedPoint, objectives: Sequence[Objective]
) -> float:
    """Scalarize a point's objectives for ranking: sum of sense-signed logs.

    Equivalent to ranking by the product of improving ratios, so a 2x gain on
    any one objective weighs the same regardless of the objectives' units.
    Non-positive values (a degenerate model reporting zero energy) push the
    score to ``-inf`` so such points never win.
    """
    score = 0.0
    for objective in objectives:
        value = point.objective(objective.name)
        if value <= 0:
            return float("-inf")
        log_value = math.log(value)
        score += log_value if objective.sense == "max" else -log_value
    return score


class ExhaustiveSearch:
    """Evaluate every feasible point of the space as one batch."""

    name = "exhaustive"

    def search(
        self,
        space: DesignSpace,
        evaluate: EvaluateFn,
        objectives: Sequence[Objective],
        budget: Optional[int] = None,
    ) -> None:
        budget = _check_budget(budget)
        points = list(space.points())
        if budget is not None and len(points) > budget:
            raise AnalysisError(
                f"exhaustive search needs {len(points)} evaluations but the "
                f"budget is {budget}; raise the budget, shrink the space, or "
                "use the random/hillclimb strategy"
            )
        if not points:
            raise AnalysisError("the design space has no feasible points")
        evaluate(points)


class RandomSearch:
    """Evaluate a uniform sample of the space (without replacement), one batch."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def search(
        self,
        space: DesignSpace,
        evaluate: EvaluateFn,
        objectives: Sequence[Objective],
        budget: Optional[int] = None,
    ) -> None:
        budget = _check_budget(budget) or DEFAULT_BUDGET
        points = space.sample(budget, Random(self._seed))
        if not points:
            raise AnalysisError("the design space has no feasible points")
        evaluate(points)


class HillClimbSearch:
    """Adaptive neighbourhood search over the scalarized objectives.

    Starts from a random feasible point, submits the incumbent's whole
    one-step neighbourhood through ``evaluate.stream`` (so ``evaluate`` must
    be the engine's evaluator, not a plain callable), and **advances on the
    first strictly improving neighbour to complete**: the climb consumes
    evaluations as they land and cancels the rest of the ring the moment an
    improving move arrives, instead of paying for every neighbour.  Restarts
    from a fresh random point when stuck, until ``budget`` distinct
    evaluations have been spent.

    With the default multiplicative scalarization (:func:`scalar_score`)
    the climb targets the balanced region of the frontier; the engine's
    trace still sees every *consumed* point, so the Pareto analysis covers
    the whole walk.  A cold ring completes in submission order (each job
    runs in the consuming thread), so a search is exactly reproducible for
    a fixed seed and cache state; cache-warm neighbours land first, so a
    partly warm cache can steer the climb to a different walk.
    """

    name = "hillclimb"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def search(
        self,
        space: DesignSpace,
        evaluate: EvaluateFn,
        objectives: Sequence[Objective],
        budget: Optional[int] = None,
    ) -> None:
        budget = _check_budget(budget) or DEFAULT_BUDGET
        rng = Random(self._seed)
        evaluated: Dict[DesignPoint, EvaluatedPoint] = {}
        stream = evaluate.stream  # type: ignore[attr-defined]

        def spend(point: DesignPoint) -> EvaluatedPoint:
            (result,) = evaluate([point])
            evaluated[point] = result
            return result

        def climb(
            current: EvaluatedPoint, moves: Sequence[DesignPoint]
        ) -> Optional[EvaluatedPoint]:
            """The first improving neighbour to complete, if any."""
            target = scalar_score(current, objectives)
            results = stream(moves)
            try:
                for result in results:
                    evaluated[result.point] = result
                    if scalar_score(result, objectives) > target:
                        return result  # closing the stream cancels the rest
            finally:
                results.close()
            return None

        def random_unvisited() -> Optional[DesignPoint]:
            for candidate in space.sample(len(evaluated) + 1, rng):
                if candidate not in evaluated:
                    return candidate
            return None

        start = random_unvisited()
        if start is None:
            raise AnalysisError("the design space has no feasible points")
        current = spend(start)
        while len(evaluated) < budget:
            frontier_moves = [
                p
                for p in space.neighbors(current.point)
                if p not in evaluated
            ][: budget - len(evaluated)]
            if frontier_moves:
                improved = climb(current, frontier_moves)
                if improved is not None:
                    current = improved
                    continue
            # local optimum (or neighbourhood exhausted): restart — unless
            # the budget is already spent, in which case a restart would
            # overshoot it by one evaluation
            if len(evaluated) >= budget:
                break
            restart = random_unvisited()
            if restart is None:
                break
            current = spend(restart)


#: Strategy name -> factory, for the CLI's ``--strategy`` flag.
STRATEGIES: Dict[str, Callable[..., SearchStrategy]] = {
    ExhaustiveSearch.name: lambda seed=0: ExhaustiveSearch(),
    RandomSearch.name: RandomSearch,
    HillClimbSearch.name: HillClimbSearch,
}


def get_strategy(name: str, seed: int = 0) -> SearchStrategy:
    """Build a strategy by name (``exhaustive``, ``random``, ``hillclimb``)."""
    key = str(name).strip().lower()
    factory = STRATEGIES.get(key)
    if factory is None:
        raise ConfigurationError(
            f"unknown search strategy '{name}'; "
            f"available: {', '.join(sorted(STRATEGIES))}"
        )
    return factory(seed=seed)
