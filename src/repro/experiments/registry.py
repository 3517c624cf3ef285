"""Registry and full-suite runner for the paper's tables and figures.

Every experiment module registers its ``run`` function under its experiment
id.  The CLI (``repro-experiments``) and the benchmark harness look
experiments up here, and :func:`run_all` regenerates the whole evaluation
section with one shared :class:`~repro.experiments.base.ExperimentContext`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ExperimentError
from ..runner import SimulationRunner
from . import (
    ablation,
    dse,
    figure1,
    figure8,
    figure9,
    figure10,
    figure11,
    headline,
    table1,
    table2,
    table3,
)
from .base import ExperimentContext, ExperimentResult, ExperimentRunner

#: Experiment id -> (title, runner), ordered as in the paper.
EXPERIMENTS: Dict[str, Tuple[str, ExperimentRunner]] = {
    headline.EXPERIMENT_ID: (headline.TITLE, headline.run),
    figure1.EXPERIMENT_ID: (figure1.TITLE, figure1.run),
    table1.EXPERIMENT_ID: (table1.TITLE, table1.run),
    table2.EXPERIMENT_ID: (table2.TITLE, table2.run),
    table3.EXPERIMENT_ID: (table3.TITLE, table3.run),
    figure8.EXPERIMENT_ID: (figure8.TITLE, figure8.run),
    figure9.EXPERIMENT_ID: (figure9.TITLE, figure9.run),
    figure10.EXPERIMENT_ID: (figure10.TITLE, figure10.run),
    figure11.EXPERIMENT_ID: (figure11.TITLE, figure11.run),
    ablation.EXPERIMENT_ID: (ablation.TITLE, ablation.run),
    dse.EXPERIMENT_ID: (dse.TITLE, dse.run),
}


def experiment_ids() -> Tuple[str, ...]:
    """All registered experiment ids, in paper order."""
    return tuple(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Look up one experiment's runner by id."""
    key = experiment_id.strip().lower()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment '{experiment_id}'; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key][1]


def run_experiment(
    experiment_id: str, context: Optional[ExperimentContext] = None
) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id)(context)


def run_all(
    context: Optional[ExperimentContext] = None,
    runner: Optional[SimulationRunner] = None,
) -> List[ExperimentResult]:
    """Run every experiment with a shared context (built once).

    When ``runner`` is given (and no explicit context), every experiment
    submits its simulations through it, sharing one result cache across the
    whole evaluation section.
    """
    context = context or ExperimentContext(runner=runner)
    return [run_fn(context) for _title, run_fn in EXPERIMENTS.values()]
