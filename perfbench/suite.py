"""The four benchmark workloads, each drawn from a seed.

A workload prepares its inputs (:meth:`Workload.setup`), fills the caches a
long-running caller would have warm (:meth:`Workload.warmup`), then sends
closed-loop batches through the public ``repro`` API for a fixed time
(:meth:`Workload.run`) and checks its outputs (:meth:`Workload.check`).  The
seed never reaches ``repro``: it only sees the generated jobs or cells.

* ``paper-grid`` -- the six paper GANs on every registered accelerator, job
  cache and layer memo off, so every job pays estimation, pricing and
  aggregation.
* ``dse-sweep`` -- design-space searches as the repository's ``dse`` callers
  run them: ``DesignSpaceExplorer.explore`` with a registered strategy, in
  exploration sessions that each start from a fresh cached runner.
* ``served-sweep`` -- the design points of such searches, each sent by one of
  two closed-loop clients as a ``Client.compare`` request to an in-process
  ``SimulationServer`` with an fsync'd journal.
* ``program-check`` -- compile and statically verify seeded layer x schedule
  x skip_zeros cells, gate a schedule, and run the cycle-level machine on a
  shrunk transposed-convolution slice checked against the NumPy reference.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import calibration
from repro.accelerators import accelerator_names
from repro.analysis.metrics import geometric_mean
from repro.analysis.results import GanResult, MultiComparison
from repro.config import ArchitectureConfig, SimulationOptions
from repro.core.compiler import GanaxLayerExecutor
from repro.dse.engine import DEFAULT_OBJECTIVES, DesignSpaceExplorer
from repro.dse.space import SCHEDULE_DIMENSION, DesignPoint
from repro.dse.strategies import get_strategy
from repro.errors import AdmissionError
from repro.experiments.paper_data import HEADLINE_ENERGY_REDUCTION, HEADLINE_SPEEDUP
from repro.nn.functional import transposed_conv2d
from repro.runner import SimulationJob, SimulationRunner
from repro.runner.cache import configure_layer_memo, get_layer_memo
from repro.runner.events import RunnerEvent
from repro.schedule import schedule_names
from repro.schedule.verify import verify_schedule
from repro.service import Client, JobSpec, SimulationServer, grid_specs
from repro.staticcheck.programs import check_binding, iter_compilable_bindings
from repro.workloads import expand_workload_family, get_workload, workload_families, workload_names

#: Batches (or rounds) whose simulated statistics feed the digest.  Fixed, so
#: the digest does not depend on how many batches a run managed.
DIGEST_BATCHES = 16
#: Most jobs a workload keeps aside for its after-the-run correctness check.
CHECK_SAMPLES = 40
#: Failure messages kept for the report (the count is always exact).
MAX_FAILURE_NOTES = 5
#: A batch time is scaled by the calibrations this close to it (seconds).
NEAR_S = 0.25

# -- design-space searches (dse-sweep, served-sweep) -------------------------
# Every value here is one the repository's own DSE callers use: the ``dse``
# CLI mode and ``Session.explore`` explore one accelerator against the
# ``eyeriss`` baseline, over the six paper GANs or one workload family's
# declared default variants, with the default search fields or
# ``--fields num_pvs,schedule``, and with one of the registered strategies at
# its default budget.
BASELINE = "eyeriss"
#: The explored accelerator: the ``dse`` CLI's default ``--accelerator``.
EXPLORED = "ganax"
#: ``None`` is the default search fields the explored accelerator reacts to.
FIELD_SETS: Tuple[Optional[Tuple[str, ...]], ...] = (None, ("num_pvs", SCHEDULE_DIMENSION))
#: The strategies a session runs, in this order, once per field set each.
STRATEGIES = ("random", "hillclimb", "exhaustive")
#: Strategies that evaluate all their points in one batch (whose points are
#: known before any result is).
ONE_BATCH = ("exhaustive", "random")
#: Requests per client drawn before the run (more than a 15 s run sends).
PREFETCH_REQUESTS = 4000

# -- program-check -----------------------------------------------------------
CELLS_PER_ROUND = 2
#: Geometries the schedule gate is asked about; with the schedules this gives
#: 360 distinct gate questions, so a run does not repeat one and the gate's
#: own memo does not answer for it.  Every point is feasible: at most 16 PVs
#: (4-bit indices in a 64-bit µop) and at least 6 PEs (the 5-row probe).
GATE_PVS = tuple(range(2, 17))
GATE_PES = (6, 8, 12, 16, 24, 32)
#: Input sizes of the machine slices (single channel, square).
SLICE_SIZES = (4, 5)
SLICE_PVS = (2, 4)


def aggregate(result: GanResult) -> Tuple[int, float]:
    """What a caller reads off one job: whole-GAN cycles and energy."""
    return result.total_cycles, result.total_energy_pj


def result_digest(results: Sequence[GanResult]) -> str:
    """SHA-256 over every LayerResult field of every result, in order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr((result.model_name, result.accelerator)).encode())
        for network in (result.generator, result.discriminator):
            if network is None:
                digest.update(b"-")
                continue
            for layer in network.layer_results:
                digest.update(repr(dataclasses.astuple(layer)).encode())
    return digest.hexdigest()


def paper_accuracy(results: Dict[Tuple[str, str], GanResult]) -> Tuple[float, float]:
    """(speedup_err, energy_err): the generator geomeans against the paper."""
    speedups, reductions = [], []
    for name in workload_names():
        multi = MultiComparison(
            model_name=name,
            baseline="eyeriss",
            results={a: results[(name, a)] for a in ("eyeriss", "ganax")},
        )
        speedups.append(multi.generator_speedup("ganax"))
        reductions.append(multi.generator_energy_reduction("ganax"))
    return (
        abs(geometric_mean(speedups) - HEADLINE_SPEEDUP) / HEADLINE_SPEEDUP,
        abs(geometric_mean(reductions) - HEADLINE_ENERGY_REDUCTION)
        / HEADLINE_ENERGY_REDUCTION,
    )


def paper_jobs(pairs: Sequence[Tuple[str, str]]) -> List[SimulationJob]:
    config = ArchitectureConfig.paper_default()
    options = SimulationOptions()
    return [
        SimulationJob(model=w, accelerator=a, config=config, options=options)
        for w, a in pairs
    ]


def spread_order(items: Sequence, seed: int, salt: str) -> List:
    """``items`` in a seeded order that samples them evenly from the start.

    A golden-ratio stride through the fixed order, from a seeded offset: any
    run of consecutive picks covers the fixed order about evenly, so runs
    with different seeds see different items but about the same mix of costs.
    """
    count = len(items)
    stride = round(count * 0.6180339887)
    while math.gcd(stride, count) != 1:
        stride += 1
    offset = random.Random(f"{seed}:{salt}").randrange(count)
    return [items[(offset + i * stride) % count] for i in range(count)]


class Search(NamedTuple):
    """One design-space search, as a ``dse`` caller asks for it."""

    models: Tuple[str, ...]
    fields: Optional[Tuple[str, ...]]
    strategy: str
    seed: int

    def explorer(self, runner: Optional[SimulationRunner] = None) -> DesignSpaceExplorer:
        return DesignSpaceExplorer(
            accelerator=EXPLORED, baseline=BASELINE, models=self.models, runner=runner
        )

    def explore(self, runner: SimulationRunner):
        """Run the search the way the ``dse`` CLI mode does."""
        explorer = self.explorer(runner)
        return explorer.explore(
            space=explorer.space(fields=self.fields),
            strategy=get_strategy(self.strategy, seed=self.seed),
        )

    def points(self) -> List[DesignPoint]:
        """The points a one-batch strategy hands the explorer, in its order."""
        captured: List[DesignPoint] = []

        def evaluate(points):
            captured.extend(points)
            return []

        space = self.explorer().space(fields=self.fields)
        get_strategy(self.strategy, seed=self.seed).search(space, evaluate, DEFAULT_OBJECTIVES)
        return captured


def model_sets() -> List[Tuple[str, ...]]:
    """The six paper GANs, then each workload family's default variants."""
    return [tuple(workload_names())] + [
        tuple(expand_workload_family(family)) for family in workload_families()
    ]


def sessions(seed: int, stream: str) -> Iterator[List[Search]]:
    """An endless stream of exploration sessions, the strategy seeds seeded.

    A session explores :data:`EXPLORED` over one model set: for every field
    set, a random search, a hill climb, then the exhaustive search.  The
    sessions take the model sets in turn, so every cycle through them sends
    the same mix; the seed only picks which points the random searches and
    hill climbs visit.
    """
    rng = random.Random(f"{seed}:{stream}")
    for models in itertools.cycle(model_sets()):
        yield [
            Search(models, fields, strategy, rng.randrange(1 << 16))
            for fields in FIELD_SETS
            for strategy in STRATEGIES
        ]


def searches_per_cycle() -> int:
    """Searches in one cycle of :func:`sessions` through every model set."""
    return len(model_sets()) * len(FIELD_SETS) * len(STRATEGIES)


def point_request(models: Sequence[str], point: DesignPoint) -> Dict:
    """The ``Client.compare`` arguments that evaluate one design point.

    The same (model x {candidate, baseline}) jobs the explorer builds for the
    point: its config fields as overrides, its schedule as an option.
    """
    schedule = point.schedule
    return {
        "workloads": tuple(models),
        "accelerators": (EXPLORED, BASELINE),
        "config": {name: value for name, value in point.items if name != SCHEDULE_DIMENSION},
        "options": {} if schedule is None else {"schedule": schedule},
    }


def request_specs(request: Dict) -> List[JobSpec]:
    return grid_specs(**request)


def point_stream(seed: int, stream: str) -> Iterator[Dict]:
    """An endless seeded stream of ``Client.compare`` requests.

    The design points of the one-batch searches of the six paper GANs on
    :data:`EXPLORED`, search after search, one request per point.
    """
    rng = random.Random(f"{seed}:{stream}")
    models = tuple(workload_names())
    while True:
        searches = [
            Search(models, fields, strategy, rng.randrange(1 << 16))
            for fields in FIELD_SETS
            for strategy in ONE_BATCH
        ]
        rng.shuffle(searches)
        for search in searches:
            for point in search.points():
                yield point_request(models, point)


def served_universe() -> List[JobSpec]:
    """Every job :func:`point_stream` can request, once."""
    models = tuple(workload_names())
    specs = []
    for fields in FIELD_SETS:
        for point in Search(models, fields, "exhaustive", 0).points():
            specs.extend(request_specs(point_request(models, point)))
    return specs


def chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


class Cell(NamedTuple):
    """One program-check cell: a compilable layer under a schedule."""

    workload: str
    network: str
    layer: str
    schedule: str
    skip_zeros: bool


def program_cells(seed: int) -> List[Cell]:
    """Every workload layer x schedule x skip_zeros cell, in seeded order."""
    cells = [
        Cell(workload, network, binding.name, schedule, skip)
        for workload in workload_names()
        for network, binding in iter_compilable_bindings(get_workload(workload))
        for schedule in schedule_names()
        for skip in (True, False)
    ]
    return spread_order(cells, seed, "cells")


def gate_points(seed: int) -> List[Tuple[str, int, int]]:
    """Schedule-gate questions (schedule, num_pvs, pes_per_pv), seeded order.

    The schedule changes with every question (gating under ``default``
    costs twice ``hoisted``), and every geometry comes once before any comes
    again; no question repeats.
    """
    geometries = spread_order([(p, e) for p in GATE_PVS for e in GATE_PES], seed, "gates")
    schedules = schedule_names()
    return [
        (schedules[(i + i // len(geometries)) % len(schedules)],
         *geometries[i % len(geometries)])
        for i in range(len(geometries) * len(schedules))
    ]


class Phase:
    """What one timed stretch of closed-loop batches measured."""

    def __init__(self) -> None:
        #: (start, end, jobs) per batch, ``time.perf_counter`` seconds.
        self.batches: List[Tuple[float, float, int]] = []
        #: (start, end, jobs) per grid submitted to the runner, when a batch
        #: submits several (dse-sweep: a search); batch latency is per grid.
        self.grids: List[Tuple[float, float, int]] = []
        #: (when, seconds) per calibration loop run between batches.
        self.calibrations: List[Tuple[float, float]] = []
        #: Workload-specific totals (programs verified, machine cycles, ...).
        self.totals: Dict[str, float] = {}
        #: served-sweep: (start time, request) per answered request.
        self.requests: List[Tuple[float, Dict]] = []
        #: Peak RSS once the loop had done a fixed amount of work.
        self.rss_mb: Optional[float] = None
        #: Closed-loop callers whose batches these are.
        self.callers = 1

    @property
    def jobs(self) -> int:
        return sum(jobs for _start, _end, jobs in self.batches)

    @property
    def wall_s(self) -> float:
        if not self.batches:
            return 0.0
        return max(e for _s, e, _j in self.batches) - min(s for s, _e, _j in self.batches)

    def add_total(self, key: str, amount: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + amount

    def merge(self, other: "Phase") -> None:
        self.batches.extend(other.batches)
        self.grids.extend(other.grids)
        self.calibrations.extend(other.calibrations)
        self.requests.extend(other.requests)
        if other.rss_mb is not None:
            self.rss_mb = max(self.rss_mb or 0.0, other.rss_mb)
        for key, value in other.totals.items():
            self.add_total(key, value)

    # -- statistics ------------------------------------------------------
    def host_speed(self) -> float:
        """The calibration loop's reference time over its median time here.

        1.0 is the reference host; 0.6 means this host ran at 60% of it.
        """
        return calibration.REFERENCE_S / statistics.median(
            seconds for _when, seconds in self.calibrations
        )

    def batch_s(self, normalized: bool = True, grids: bool = False) -> List[float]:
        """Batch (or, with ``grids``, grid) times, scaled to the reference host.

        Each time is scaled by the median of the calibrations within
        :data:`NEAR_S` of its midpoint (the nearest one if none is), since
        the host's speed changes within seconds.  ``grids`` falls back to
        the batches of a workload whose batch is one grid.
        """
        spans = self.grids if grids and self.grids else self.batches
        if not normalized:
            return [end - start for start, end, _jobs in spans]
        calibrations = sorted(self.calibrations)
        times = [when for when, _seconds in calibrations]
        scaled = []
        for start, end, _jobs in spans:
            middle = (start + end) / 2
            low = bisect.bisect_left(times, middle - NEAR_S)
            high = bisect.bisect_right(times, middle + NEAR_S)
            near = [seconds for _when, seconds in calibrations[low:high]]
            if not near:
                near = [calibrations[min(low, len(calibrations) - 1)][1]]
            scaled.append((end - start) * calibration.REFERENCE_S / statistics.median(near))
        return scaled

    def rate(self, normalized: bool = True) -> float:
        """Jobs completed per second of the callers' batch time.

        Each caller of a closed loop is busy with a batch all the time but
        for the calibration pauses, so this is the throughput the callers
        together see, scaled to the reference host like :meth:`batch_s`.
        """
        return self.callers * self.jobs / sum(self.batch_s(normalized))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(
    batch: Callable[[Phase], int],
    seconds: float,
    rss_at: int = 0,
    limit: Optional[int] = None,
) -> Phase:
    """Call ``batch`` back to back for ``seconds`` (or ``limit`` calls).

    Between batches, every :data:`calibration.INTERVAL_S`, the calibration
    loop runs (outside any batch).  The peak RSS is read once ``rss_at``
    batches are done, so it measures a fixed amount of work: a long-running
    runner's caches grow with every job, and a faster program would
    otherwise read as a hungrier one.
    """
    phase = Phase()
    now = time.perf_counter()
    deadline = now + seconds
    next_calibration = now
    while now < deadline and len(phase.batches) != limit:
        if now >= next_calibration:
            phase.calibrations.append((now, calibration.calibrate()))
            next_calibration = now + calibration.INTERVAL_S
            now = time.perf_counter()
        jobs = batch(phase)
        done = time.perf_counter()
        phase.batches.append((now, done, jobs))
        if len(phase.batches) == rss_at:
            phase.rss_mb = peak_rss_mb()
        now = done
    return phase


def lockstep(batches: Sequence[Callable[[Phase], int]], seconds: float, rss_at: int) -> Phase:
    """Closed loops of several callers, one thread each, in rounds.

    Each round lasts :data:`calibration.INTERVAL_S`: every caller sends
    batches back to back until the round is over, then waits for the others.
    Between rounds no batch is in flight, and the calling thread runs the
    calibration loop then, so it never times the program under test.
    """
    phases = [Phase() for _ in batches]
    merged = Phase()
    barrier = threading.Barrier(len(batches) + 1)
    round_end = [0.0]
    stop = [False]
    errors: List[BaseException] = []

    def caller(batch: Callable[[Phase], int], phase: Phase) -> None:
        try:
            while True:
                barrier.wait()
                if stop[0]:
                    return
                now = time.perf_counter()
                while now < round_end[0]:
                    jobs = batch(phase)
                    done = time.perf_counter()
                    phase.batches.append((now, done, jobs))
                    now = done
                barrier.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=caller, args=(batch, phase), name=f"perfbench-caller-{i}")
        for i, (batch, phase) in enumerate(zip(batches, phases))
    ]
    for thread in threads:
        thread.start()
    timeout = seconds + 120
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            now = time.perf_counter()
            merged.calibrations.append((now, calibration.calibrate()))
            round_end[0] = time.perf_counter() + calibration.INTERVAL_S
            barrier.wait(timeout)  # the round starts
            barrier.wait(timeout)  # every caller is done with it
            if merged.rss_mb is None and sum(len(p.batches) for p in phases) >= rss_at:
                merged.rss_mb = peak_rss_mb()
        stop[0] = True
        barrier.wait(timeout)
    except threading.BrokenBarrierError:
        pass
    finally:
        barrier.abort()
        for thread in threads:
            thread.join(timeout)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop callers did not finish in time")
    for phase in phases:
        merged.merge(phase)
    merged.callers = len(batches)
    return merged


class Workload:
    """Base class: a closed loop from one caller over :meth:`batch`."""

    name = ""
    why = ""
    #: Batches after which the peak RSS is read (about 3 s on 2 vCPUs).
    rss_batches = 0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        #: Operations checked after the run, and what failed anywhere.
        self.checked = 0
        self.failures = 0
        self.notes: List[str] = []
        self._fail_lock = threading.Lock()
        self.runner: Optional[SimulationRunner] = None
        self._digest_results: List[GanResult] = []

    # -- life cycle ------------------------------------------------------
    def setup(self) -> None:
        """Registry resolution and model builds before the first timed call."""

    def warmup(self) -> int:
        """Fill the caches a long-running caller has warm (untimed).

        Returns how many operations it attempted; they count in ``attempted``.
        """
        return 0

    def run(self, seconds: float) -> Phase:
        return closed_loop(self.batch, seconds, self.rss_batches)

    def batch(self, phase: Phase) -> int:
        """Run one batch; return its job count (failures go through fail())."""
        raise NotImplementedError

    def check(self) -> None:
        """After-the-run correctness checks (count into checked/failures)."""

    def digest(self) -> str:
        return result_digest(self._digest_results)

    def accuracy(self) -> Tuple[float, float]:
        """The model's paper error, from an untimed six-GAN anchor grid."""
        pairs = [(w, a) for w in workload_names() for a in ("eyeriss", "ganax")]
        with SimulationRunner(use_cache=False) as runner:
            results = runner.run_jobs(paper_jobs(pairs))
        return paper_accuracy(dict(zip(pairs, results)))

    def counters(self) -> Dict[str, float]:
        """Cache and dedup counters, read before and after a traced phase."""
        counts = dict.fromkeys(
            ("job_hits", "job_lookups", "dedup", "submitted", "memo_hits", "memo_lookups"),
            0.0,
        )
        runner = self.runner
        if runner is not None:
            stats = runner.stats
            counts["dedup"] = stats.deduplicated
            counts["submitted"] = stats.hits + stats.misses + stats.deduplicated
            if runner.cache is not None:
                counts["job_hits"] = stats.hits
                counts["job_lookups"] = stats.hits + stats.misses
        memo = get_layer_memo()
        if memo is not None:
            counts["memo_hits"] = memo.stats.hits
            counts["memo_lookups"] = memo.stats.lookups
        return counts

    def traced_extras(self, plain: Phase) -> Dict[str, float]:
        """Per-layer numbers a workload measures outside the span tree."""
        return {}

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()

    # -- helpers -----------------------------------------------------------
    def fail(self, message: str, count: int = 1) -> None:
        with self._fail_lock:  # served-sweep clients fail from two threads
            self.failures += count
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(message)

    def _drain(self, jobs: Sequence[SimulationJob]) -> List[Optional[GanResult]]:
        """Submit one grid and read every result, in submission order.

        A failed job leaves None in its slot and counts as a failure.
        """
        results: List[Optional[GanResult]] = [None] * len(jobs)
        for completion in self.runner.submit(jobs).as_completed(raise_on_error=False):
            if completion.error is not None:
                self.fail(f"{completion.job.model_name}/{completion.job.accelerator}: "
                          f"{completion.error}")
                continue
            results[completion.index] = completion.result
        return results


class PaperGrid(Workload):
    name = "paper-grid"
    rss_batches = 100
    why = ("six paper GANs x every accelerator with both caches off: every job pays "
           "estimation, pricing and aggregation")

    def setup(self) -> None:
        configure_layer_memo(enabled=False)
        for name in workload_names():
            get_workload(name)
        self.pairs = [(w, a) for w in workload_names() for a in accelerator_names()]
        self.runner = SimulationRunner(use_cache=False)
        self._index = 0

    def _grid(self) -> List[Tuple[str, str]]:
        order = list(self.pairs)
        random.Random(f"{self.seed}:paper-grid:{self._index}").shuffle(order)
        self._index += 1
        return order

    def warmup(self) -> int:
        pairs = self._grid()
        results = self._drain(paper_jobs(pairs))
        self.reference = {pair: aggregate(r) for pair, r in zip(pairs, results)}
        self._by_pair = dict(zip(pairs, results))
        self._digest_results = [self._by_pair[pair] for pair in self.pairs]
        for _ in range(2):
            self._drain(paper_jobs(self._grid()))
        return 3 * len(pairs)

    def batch(self, phase: Phase) -> int:
        pairs = self._grid()
        for pair, result in zip(pairs, self._drain(paper_jobs(pairs))):
            if result is not None and aggregate(result) != self.reference[pair]:
                self.fail(f"{pair}: result differs from the first batch")
        return len(pairs)

    def accuracy(self) -> Tuple[float, float]:
        return paper_accuracy(self._by_pair)


class DseSweep(Workload):
    name = "dse-sweep"
    rss_batches = 25
    why = ("seeded design-space searches through DesignSpaceExplorer.explore, in sessions "
           "on a fresh cached runner: cache keys, fingerprints and memo lookups")

    def setup(self) -> None:
        for models in model_sets():
            for name in models:
                get_workload(name)
        self._sessions = sessions(self.seed, "dse")
        self._session: List[Search] = []
        self._sample_rng = random.Random(f"{self.seed}:dse-sample")
        self._samples: List[Tuple[SimulationJob, GanResult]] = []
        self._searches = 0
        self._retired: Dict[str, float] = {}
        #: [start, jobs scheduled, jobs ended] of the grid in flight.
        self._grid: List = [0.0, 0, 0]
        self._phase = Phase()

    def counters(self) -> Dict[str, float]:
        """Counted over every session so far, not only the current one."""
        counts = super().counters()
        return {key: value + self._retired.get(key, 0.0) for key, value in counts.items()}

    def _new_session(self) -> None:
        """A fresh default runner and layer memo, as a new exploring process has."""
        if self.runner is not None:
            self._retired = self.counters()
            self.runner.close()
        configure_layer_memo(enabled=True)
        self.runner = SimulationRunner()
        self.runner.subscribe(self._listen)
        self._session = next(self._sessions)

    def _listen(self, event: RunnerEvent) -> None:
        """Time each grid the explorer submits; keep results for the checks.

        The explorer's grids never overlap: each is drained or cancelled
        before the next is submitted.  A grid starts with its first
        ``scheduled`` event, which the runner emits before it computes any
        cache key, and ends with its last terminal event.
        """
        grid = self._grid
        if event.kind == "scheduled":
            if event.index == 0:
                grid[:] = [time.perf_counter(), 0, 0]
            grid[1] += 1
            return
        if not event.is_terminal:
            return
        grid[2] += 1
        if grid[2] == grid[1]:
            self._phase.grids.append((grid[0], time.perf_counter(), grid[1]))
        if event.result is None:
            return
        if self._searches < DIGEST_BATCHES:
            self._digest_results.append(event.result)
        if len(self._samples) < CHECK_SAMPLES and self._sample_rng.random() < 0.002:
            self._samples.append((event.job, event.result))

    def warmup(self) -> int:
        """One session of its own stream, so code paths and imports are warm."""
        warm = sessions(self.seed, "dse-warm")
        configure_layer_memo(enabled=True)
        with SimulationRunner() as runner:
            for search in next(warm):
                search.explore(runner)
            stats = runner.stats
            return stats.hits + stats.misses + stats.deduplicated

    def run(self, seconds: float) -> Phase:
        """Closed-loop searches, counted over whole cycles through the model sets.

        Searches differ twentyfold in cost, so a run that stops mid-cycle
        would weigh the model sets unevenly, and by how fast it went.  The
        searches outside the complete cycles are run but not counted, unless
        the run completed no cycle.
        """
        start = self._searches
        phase = closed_loop(self.batch, seconds, self.rss_batches)
        cycle = searches_per_cycle()
        first = -(-start // cycle) * cycle - start
        last = (start + len(phase.batches)) // cycle * cycle - start
        if last - first >= cycle:
            phase.batches = phase.batches[first:last]
            began, ended = phase.batches[0][0], phase.batches[-1][1]
            phase.grids = [g for g in phase.grids if began <= g[0] and g[1] <= ended]
        return phase

    def batch(self, phase: Phase) -> int:
        if not self._session:
            self._new_session()
        search = self._session.pop(0)
        self._phase = phase
        stats = self.runner.stats
        before = stats.hits + stats.misses + stats.deduplicated
        try:
            search.explore(self.runner)
        except Exception as exc:  # a failed job fails the whole search
            self.fail(f"search {search}: {exc!r}")
        self._searches += 1
        stats = self.runner.stats
        return stats.hits + stats.misses + stats.deduplicated - before

    def check(self) -> None:
        """Sampled memo-on results must equal a memo-off, cache-off rerun."""
        configure_layer_memo(enabled=False)
        with SimulationRunner(use_cache=False) as runner:
            fresh = runner.run_jobs([job for job, _ in self._samples])
        for (job, got), want in zip(self._samples, fresh):
            self.checked += 1
            if result_digest([got]) != result_digest([want]):
                self.fail(f"{job.model_name}/{job.accelerator}: memo-on result "
                          "differs from memo-off")


class ServedSweep(Workload):
    name = "served-sweep"
    rss_batches = 300
    why = ("design points of seeded searches as Client.compare requests from two closed-loop "
           "clients to an in-process server with a journal: the service path")

    #: Closed-loop clients; equals nproc on the reference machine.
    clients_count = 2
    #: Requests the traced run replays to measure the service overhead.
    overhead_requests = 200

    def setup(self) -> None:
        # One vCPU for the server, the clients and the calibration loop.
        # The interpreter lock lets the process run Python on one CPU at a
        # time anyway; with its threads spread over both vCPUs, a slow vCPU
        # slowed the server while the clients calibrated on the fast one
        # (raw batch p50 26-46 ms at one calibrated speed).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        configure_layer_memo(enabled=True)
        for name in workload_names():
            get_workload(name)
        self._tmp = Path(tempfile.mkdtemp(prefix="served-", dir=self.scratch))
        self.server = SimulationServer(
            port=0, journal_path=self._tmp / "journal.jsonl", heartbeat_seconds=0
        )
        self.server.start_in_thread()
        self.runner = self.server.runner
        self.clients = [
            Client(port=self.server.port, client_id=f"perfbench-{i}").connect()
            for i in range(self.clients_count)
        ]
        self._streams = [
            point_stream(self.seed, f"served-{i}") for i in range(self.clients_count)
        ]
        self._sample_rngs = [
            random.Random(f"{self.seed}:served-sample-{i}")
            for i in range(self.clients_count)
        ]
        self._samples: List[List[Tuple[JobSpec, Dict]]] = [[] for _ in self.clients]
        self._digest_keys: List[List[str]] = [[] for _ in self.clients]
        self._requests = [0] * self.clients_count

    def warmup(self) -> int:
        """The server has already answered every job its clients can ask.

        A long-running server's cache holds the design space its clients
        explore, so the run measures the service path around cache reads.
        """
        specs = served_universe()
        for chunk in chunks(specs, 64):
            for result in self.runner.submit([spec.build() for spec in chunk]).as_completed(
                raise_on_error=False
            ):
                if result.error is not None:
                    self.fail(f"warm-up job failed: {result.error}")
        # Draw the first requests now: a search's points cost milliseconds
        # to draw, which would otherwise land in one request's time.
        self._streams = [
            itertools.chain(list(itertools.islice(stream, PREFETCH_REQUESTS)), stream)
            for stream in self._streams
        ]
        return len(specs)

    def run(self, seconds: float) -> Phase:
        return lockstep(
            [lambda phase, i=i: self.request(i, phase) for i in range(self.clients_count)],
            seconds,
            self.rss_batches,
        )

    def request(self, index: int, phase: Phase) -> int:
        """One closed-loop request from client ``index`` (its own thread)."""
        began = time.perf_counter()
        request = next(self._streams[index])
        specs = request_specs(request)
        phase.add_total("requests", 1)
        try:
            records = self.clients[index].compare(**request)
        except AdmissionError as exc:
            phase.add_total("rejected", 1)
            self.fail(f"request rejected: {exc}", count=len(specs))
            return len(specs)
        phase.requests.append((began, request))
        by_index = {record.get("index"): record for record in records}
        samples, rng = self._samples[index], self._sample_rngs[index]
        for position, spec in enumerate(specs):
            record = by_index.get(position)
            if record is None or record.get("event") not in ("completed", "cache-hit"):
                self.fail(f"{spec.workload}/{spec.accelerator}: "
                          f"{record.get('error') if record else 'no event record'}")
                continue
            if len(samples) < CHECK_SAMPLES // self.clients_count and rng.random() < 0.01:
                samples.append((spec, record))
            if self._requests[index] < DIGEST_BATCHES // self.clients_count:
                self._digest_keys[index].append(record["cache_key"])
        self._requests[index] += 1
        return len(specs)

    def traced_extras(self, plain: Phase) -> Dict[str, float]:
        """Served minus direct for the same requests, from one caller.

        The first requests of the untimed phase are sent again by one client
        while the other is idle, then run on a direct runner that has seen
        them once too, so both sides answer from cache and the difference is
        the wire, admission, dispatch and journal path.
        """
        requests = [request for _began, request in sorted(plain.requests, key=lambda r: r[0])]
        requests = requests[:self.overhead_requests]
        client = self.clients[0]

        def served(_phase: Phase) -> int:
            request = requests[len(_phase.batches)]
            for record in client.compare(**request):
                if record.get("event") not in ("completed", "cache-hit"):
                    self.fail(f"overhead request: {record.get('error')}")
            return 2 * len(request["workloads"])

        direct = SimulationRunner()

        def replay(_phase: Phase) -> int:
            request = requests[len(_phase.batches)]
            for result in direct.run_jobs([spec.build() for spec in request_specs(request)]):
                aggregate(result)
            return 2 * len(request["workloads"])

        try:
            for request in requests:
                direct.run_jobs([spec.build() for spec in request_specs(request)])
            direct_phase = closed_loop(replay, float("inf"), limit=len(requests))
            served_phase = closed_loop(served, float("inf"), limit=len(requests))
        finally:
            direct.close()
        return {"service.request_overhead_ms": (
            statistics.median(served_phase.batch_s())
            - statistics.median(direct_phase.batch_s())) * 1e3}

    def digest(self) -> str:
        cache = self.server.runner.cache
        return result_digest(
            [cache.get(key) for per_client in self._digest_keys for key in per_client]
        )

    def check(self) -> None:
        """Served records must equal a direct submit() of the same jobs."""
        configure_layer_memo(enabled=False)
        samples = [sample for per_client in self._samples for sample in per_client]
        with SimulationRunner(use_cache=False) as runner:
            direct = runner.run_jobs([spec.build() for spec, _ in samples])
        fields = ("generator_cycles", "generator_energy_pj", "total_cycles", "total_energy_pj")
        for (spec, record), result in zip(samples, direct):
            self.checked += 1
            want = (result.generator.cycles, result.generator.energy_pj,
                    result.total_cycles, result.total_energy_pj)
            if tuple(record.get(field) for field in fields) != want:
                self.fail(f"{spec.workload}/{spec.accelerator}: served record differs "
                          "from direct submit()")

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if hasattr(self, "server"):
            self.server.shutdown(timeout=60)
        if hasattr(self, "_tmp"):
            shutil.rmtree(self._tmp, ignore_errors=True)


class ProgramCheck(Workload):
    name = "program-check"
    rss_batches = 20
    why = ("compile and staticcheck seeded layer x schedule x skip_zeros cells, gate a "
           "schedule, run the cycle machine: the codegen path CI pays for")

    def setup(self) -> None:
        self.config = ArchitectureConfig.paper_default()
        self.models = {name: get_workload(name) for name in workload_names()}
        self.bindings = {
            (workload, network, binding.name): binding
            for workload, model in self.models.items()
            for network, binding in iter_compilable_bindings(model)
        }
        self.cells = program_cells(self.seed)
        self.gates = gate_points(self.seed)
        self.slice_layers = {
            workload: [b for b in model.generator.bindings if b.is_transposed]
            for workload, model in self.models.items()
        }
        self._round = 0
        self._digest_rows: List[Tuple] = []

    def warmup(self) -> int:
        # One cell and one machine slice; the gate is left cold on purpose so
        # every timed round asks it a fresh question.
        cell = self.cells[-1]
        _programs, _uops, findings = check_binding(
            self.bindings[cell[:3]], config=self.config,
            skip_zeros=cell.skip_zeros, schedule=cell.schedule,
        )
        if findings:
            self.fail(f"{cell}: {len(findings)} staticcheck findings")
        self._machine_slice(-1)
        return 2

    def batch(self, phase: Phase) -> int:
        index = self._round
        self._round += 1
        rows: List[Tuple] = []
        for offset in range(CELLS_PER_ROUND):
            cell = self.cells[(index * CELLS_PER_ROUND + offset) % len(self.cells)]
            programs, uops, findings = check_binding(
                self.bindings[cell[:3]],
                config=self.config,
                skip_zeros=cell.skip_zeros,
                schedule=cell.schedule,
            )
            phase.add_total("programs", programs)
            phase.add_total("uops", uops)
            rows.append((tuple(cell), programs, uops, len(findings)))
            if findings:
                self.fail(f"{cell}: {len(findings)} staticcheck findings")
        schedule, pvs, pes = self.gates[index % len(self.gates)]
        gate = verify_schedule(schedule, num_pvs=pvs, pes_per_pv=pes)
        phase.add_total("programs", gate.programs)
        rows.append((schedule, pvs, pes, gate.feasible, gate.programs, gate.findings))
        if not gate.feasible:
            self.fail(f"schedule gate {schedule} at {pvs}x{pes}: {gate.reason}")
        stats = self._machine_slice(index)
        phase.add_total("machine_cycles", stats[0])
        rows.append(stats)
        if index < DIGEST_BATCHES // 4:
            self._digest_rows.extend(rows)
        return CELLS_PER_ROUND + 2

    def _machine_slice(self, index: int) -> Tuple:
        """Run one shrunk tconv slice on the machine; compare with NumPy.

        Round ``index`` takes the GANs in turn and rotates size, PV count
        and schedule, so every stretch of rounds has the same mix; the seed
        picks the layer and the data.
        """
        names = workload_names()
        workload = names[index % len(names)]
        turn = index // len(names)
        binding = random.Random(f"{self.seed}:slice:{index}").choice(
            self.slice_layers[workload]
        )
        layer = binding.layer
        kernel, stride, padding = layer.kernel[-2:], layer.stride[-1], layer.padding[-1]
        size = SLICE_SIZES[turn % len(SLICE_SIZES)]
        data = np.random.default_rng([self.seed, index % (1 << 31)])
        x = data.standard_normal((size, size))
        w = data.standard_normal(kernel)
        schedules = schedule_names()
        executor = GanaxLayerExecutor(
            num_pvs=SLICE_PVS[(turn // len(SLICE_SIZES)) % len(SLICE_PVS)],
            pes_per_pv=4,
            schedule=schedules[(turn + self.seed) % len(schedules)],
        )
        run = executor.run_transposed_conv(x, w, stride=stride, padding=padding)
        reference = transposed_conv2d(x[None], w[None, None], stride=stride, padding=padding)[0]
        if run.output.shape != reference.shape or not np.allclose(
            run.output, reference, rtol=0, atol=1e-9
        ):
            self.fail(f"machine slice {workload}/{binding.name}: output differs from "
                      "transposed_conv2d")
        cycles = sum(s.cycles for s in run.statistics)
        busy = sum(s.pe_busy_cycles for s in run.statistics)
        stalls = sum(s.pe_stall_cycles for s in run.statistics)
        return (cycles, busy, stalls, run.executed_pe_uops,
                hashlib.sha256(run.output.tobytes()).hexdigest())

    def digest(self) -> str:
        return hashlib.sha256(repr(self._digest_rows).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (PaperGrid, DseSweep, ServedSweep, ProgramCheck)}


def make(name: str, seed: int, scratch: Path) -> Workload:
    return WORKLOADS[name](seed, scratch)
