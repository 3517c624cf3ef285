"""repro - a reproduction of GANAX (ISCA 2018) as a Python library.

GANAX is a unified MIMD-SIMD accelerator for Generative Adversarial Networks.
This package implements, from scratch:

* the neural-network substrate (layers, shapes, functional reference,
  structural zero analysis) and the six GAN workloads the paper evaluates,
* an EYERISS-style row-stationary baseline accelerator model,
* the GANAX architecture itself: the reorganized dataflow, the uop ISA, the
  decoupled access-execute processing engines, the hierarchical uop buffers,
  a cycle-level machine, and an analytical performance/energy model,
* the analysis and experiment harness that regenerates every table and figure
  of the paper's evaluation section,
* a pluggable accelerator registry (:mod:`repro.accelerators`) with variants
  beyond the paper's pair — ``ganax-noskip`` (zero skipping disabled) and
  ``ideal`` (consequential-MACs roofline) — and the :class:`Session` facade
  for N-way comparisons across any registered set of architecture points,
* a pluggable **workload registry** (:mod:`repro.workloads`) mirroring the
  accelerator one: register custom GANs, or address parameterized workload
  *families* via spec strings — ``dcgan@32x32``, ``artgan@ch128``,
  ``synthetic@d8c256`` (a stress-generator family with depth / channel /
  stride / zero-density knobs) — anywhere a model name is accepted,
* a design-space exploration engine (:mod:`repro.dse`): ``config_space()``-
  driven search spaces, exhaustive/random/hill-climb strategies and Pareto
  frontiers over speedup, energy and area (``Session.explore``,
  ``repro-experiments dse``), including exploration targeted at a whole
  workload family,
* a **streaming execution API** (:mod:`repro.runner`): ``submit()`` returns a
  :class:`~repro.runner.BatchHandle` whose ``as_completed()`` yields results
  as they land, with a typed :class:`~repro.runner.RunnerEvent` stream for
  live progress, and streaming consumers all the way up —
  ``Session.stream_compare``, ``ParameterSweep.iter_points``, the CLI's
  ``--progress`` / ``--jsonl``,
* a **simulation service** (:mod:`repro.service`): a multi-client streaming
  TCP server over one shared runner — versioned JSONL protocol, per-client
  admission control, cross-client dedup, durable event journal with crash
  resume — via ``repro-experiments serve`` / ``remote-compare`` or
  :class:`repro.service.SimulationServer` / :class:`repro.service.Client`
  in-process (see ``repro/service/README.md``),
* a **unified telemetry layer** (:mod:`repro.telemetry`): hierarchical
  tracing spans (``batch -> job -> simulate_layers -> layer-memo``;
  ``request -> admission -> dispatch`` in the service) exportable as Chrome
  trace-event JSON or JSONL, an always-on process metrics registry
  (counters/gauges/histograms with an atomic ``snapshot()``), and profiling
  hooks — surfaced as ``--trace`` / ``--metrics`` / ``--cache-stats`` and
  the ``stats`` verb on the CLI (see ``repro/telemetry/README.md``)::

      from repro.telemetry import configure_tracing, get_metrics

      tracer = configure_tracing()   # opt-in; metrics are on by default
      # ... run comparisons ...
      tracer.export("trace.json")    # open in Perfetto
      print(get_metrics().snapshot()["counters"])

* a **static µop-program verifier** (:mod:`repro.staticcheck`): an abstract
  interpreter over compiled :class:`~repro.isa.MicroProgram` streams that
  models the access µ-engine state machines and PE buffers (16 checks:
  config definition-before-use, start/stop pairing, address/buffer bounds,
  repeat pairing, encode→decode round-trips, the mode flag, ...), a
  FileCheck-style golden-program harness pinning representative layer
  disassemblies under ``tests/filecheck/``, and repo-invariant AST lints —
  surfaced as the ``check`` / ``lint`` / ``disasm`` CLI verbs and wired
  into ``scripts/ci.sh`` (see ``repro/staticcheck/README.md``).

Verified compilation, in one line — every program of every compilable
layer, both zero-skipping modes, must verify clean::

    from repro.staticcheck import run_check_grid

    report = run_check_grid(accelerators=("eyeriss", "ganax"))
    assert report.ok, report.findings

Quick start — the paper's two-point comparison::

    from repro import compare_model, get_workload

    comparison = compare_model(get_workload("DCGAN"))
    print(comparison.generator_speedup)          # speedup over EYERISS
    print(comparison.generator_energy_reduction) # energy reduction over EYERISS

N-way comparison across every registered accelerator, mixing a paper
workload with synthetic stress scenarios from the workload families::

    from repro import Session
    from repro.accelerators import accelerator_names

    session = Session(accelerators=accelerator_names())
    multi = session.compare(["DCGAN", "synthetic@d8c256", "synthetic@d8c256z100"])
    print(multi["DCGAN"].generator_speedups())   # per-accelerator, vs eyeriss
    print(multi["synthetic@d8c256z100"].generator_speedups())

Streaming the same comparison — each model's row arrives the moment its
simulations finish, instead of with the slowest model::

    session = Session(accelerators=accelerator_names())
    for name, multi in session.stream_compare(["DCGAN", "ArtGAN", "MAGAN"]):
        print(name, multi.generator_speedups())  # cache hits arrive first

Registering a custom accelerator or workload makes it addressable everywhere
a name is accepted (jobs, sessions, sweeps, the CLI) — see
``repro/runner/README.md`` and ``repro/workloads/README.md``.
"""

from .accelerators import (
    AcceleratorModel,
    AcceleratorSpec,
    accelerator_names,
    create_accelerator,
    get_accelerator,
    register_accelerator,
)
from .analysis import (
    ComparisonResult,
    GanResult,
    LayerResult,
    MultiComparison,
    NetworkResult,
    compare_accelerators,
    compare_model,
    compare_models,
)
from .baseline import EyerissSimulator
from .config import ArchitectureConfig, SimulationOptions
from .core import (
    DataflowSchedule,
    GanaxLayerExecutor,
    GanaxMachine,
    GanaxSimulator,
    StridedIndexGenerator,
    build_schedule,
)
from .dse import (
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
    ExplorationResult,
    ParetoFrontier,
    explore,
)
from .errors import ReproError, UnknownAcceleratorError
from .session import Session
from .hw import AreaModel, EnergyBreakdown, EnergyModel, EnergyTable, EventCounters
from .runner import (
    BatchHandle,
    JobCompletion,
    RunnerEvent,
    SimulationJob,
    SimulationRunner,
    get_default_runner,
    set_default_runner,
)
from .nn import (
    ConvLayer,
    FeatureMapShape,
    GANModel,
    Network,
    TransposedConvLayer,
)
from .workloads import (
    WorkloadFamily,
    WorkloadSpec,
    all_workloads,
    get_workload,
    get_workload_family,
    register_workload,
    register_workload_family,
    resolve_workload,
    workload_families,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorModel",
    "AcceleratorSpec",
    "accelerator_names",
    "create_accelerator",
    "get_accelerator",
    "register_accelerator",
    "ComparisonResult",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ParetoFrontier",
    "explore",
    "GanResult",
    "LayerResult",
    "MultiComparison",
    "NetworkResult",
    "Session",
    "UnknownAcceleratorError",
    "compare_accelerators",
    "compare_model",
    "compare_models",
    "EyerissSimulator",
    "ArchitectureConfig",
    "SimulationOptions",
    "DataflowSchedule",
    "GanaxLayerExecutor",
    "GanaxMachine",
    "GanaxSimulator",
    "StridedIndexGenerator",
    "build_schedule",
    "ReproError",
    "AreaModel",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyTable",
    "EventCounters",
    "BatchHandle",
    "JobCompletion",
    "RunnerEvent",
    "SimulationJob",
    "SimulationRunner",
    "get_default_runner",
    "set_default_runner",
    "ConvLayer",
    "FeatureMapShape",
    "GANModel",
    "Network",
    "TransposedConvLayer",
    "WorkloadFamily",
    "WorkloadSpec",
    "all_workloads",
    "get_workload",
    "get_workload_family",
    "register_workload",
    "register_workload_family",
    "resolve_workload",
    "workload_families",
    "workload_names",
    "__version__",
]
