"""Package-level tests: public API surface, error hierarchy, example scripts."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_headline_workflow_via_top_level_api(self):
        model = repro.get_workload("DCGAN")
        comparison = repro.compare_model(model)
        assert comparison.generator_speedup > 1.0

    def test_simulators_exported(self):
        assert repro.EyerissSimulator().name == "eyeriss"
        assert repro.GanaxSimulator().name == "ganax"

    def test_config_exported(self):
        assert repro.ArchitectureConfig.paper_default().num_pes == 256


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigurationError,
        errors.ShapeError,
        errors.LayerError,
        errors.NetworkError,
        errors.WorkloadError,
        errors.IsaError,
        errors.AssemblerError,
        errors.ProgramError,
        errors.HardwareError,
        errors.FifoError,
        errors.BufferError_,
        errors.SimulationError,
        errors.CompilationError,
        errors.DataflowError,
        errors.AnalysisError,
        errors.ExperimentError,
    ]

    @pytest.mark.parametrize("error_type", ALL_ERRORS, ids=lambda e: e.__name__)
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, errors.ReproError)

    def test_assembler_error_is_isa_error(self):
        assert issubclass(errors.AssemblerError, errors.IsaError)

    def test_fifo_error_is_hardware_error(self):
        assert issubclass(errors.FifoError, errors.HardwareError)

    def test_catching_repro_error_covers_library_failures(self):
        with pytest.raises(errors.ReproError):
            repro.get_workload("does-not-exist")


#: Subpackage exports that nothing outside their defining module names, each
#: kept public for the reason given.
UNREACHED_EXPORTS = {
    "accelerators.register_design_point": "general form of register_ganax_design_point",
    "accelerators.unregister_accelerator": "registry teardown for tests",
    "analysis.canonical_json": "the byte encoding every fingerprint hashes",
    "analysis.horizontal_bar_chart": "the renderer every bar chart draws through",
    "core.ColumnSegment": "element type of RowGroup.column_segments",
    "core.LayerExecution": "return type of GanaxLayerExecutor.run_transposed_conv",
    "core.RowGroup": "element type of DataflowSchedule.row_groups",
    "dse.DEFAULT_SEARCH_FIELDS": "the fields a DesignSpace searches by default",
    "dse.scalar_score": "the scalarization HillClimbSearch ranks points by",
    "experiments.get_experiment": "the registry lookup behind run_experiment",
    "hw.AcceleratorAreaBreakdown": "parameter type of AreaModel",
    "hw.PeAreaBreakdown": "parameter type of AreaModel",
    "isa.PV_INDEX_FIELD_BITS": "the mimd.exe index field width that bounds num_pvs",
    "isa.LOCAL_UOP_BITS": "the local µop word width encode_local_uop enforces",
    "isa.assemble_line": "the one-line form of assemble",
    "runner.CachePruneStats": "return type of DiskResultCache.prune",
    "runner.EVENT_KINDS": "the RunnerEvent kinds a consumer matches on",
    "runner.TERMINAL_EVENT_KINDS": "the RunnerEvent kinds that end a job",
    "schedule.ScheduleFamily": "return type of register_schedule_family",
    "schedule.ScheduleFeasibility": "return type of verify_schedule",
    "schedule.describe_schedule": "one entry of describe_schedules",
    "schedule.schedule_families": "the family names UnknownScheduleError lists",
    "service.DEFAULT_MAX_ACTIVE_REQUESTS": "default of SimulationServer max_active_requests",
    "service.journal_record": "the journal line EventJournal writes",
    "staticcheck.CheckSpec": "value type of CATALOG",
    "staticcheck.Directive": "element type of parse_check_file",
    "staticcheck.FileCheckError": "raised by parse_check_file for a malformed check file",
    "staticcheck.FileCheckResult": "return type of run_filecheck",
    "staticcheck.GridReport": "return type of run_check_grid",
    "staticcheck.LINT_CATALOG": "the lint ids run_lints accepts",
    "staticcheck.LintError": "raised by run_lints",
    "staticcheck.LintFinding": "element type of run_lints",
    "staticcheck.ProgramReport": "element type of GridReport.entries",
    "staticcheck.check_ids": "the check ids verify_program accepts",
    "staticcheck.parse_check_file": "the parser behind run_filecheck",
    "telemetry.DEFAULT_HISTOGRAM_WINDOW": "default sample window of a histogram",
    "telemetry.Gauge": "return type of MetricsRegistry.gauge",
    "workloads.unregister_workload": "registry teardown for tests",
}


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _searched_sources():
    """The code under src/, benchmarks/, perfbench/, examples/ and scripts/,
    plus the docs under src/: what a library name must be reached from."""
    return [
        path
        for top in ("src", "benchmarks", "perfbench", "examples", "scripts")
        for path in (REPO_ROOT / top).rglob("*")
        if path.suffix in (".py", ".sh") or (top == "src" and path.suffix == ".md")
    ]


def _unreached_exports():
    """Subpackage ``__all__`` names no file outside their defining module
    names, searching :func:`_searched_sources`.  A subpackage's own
    ``__init__`` re-export does not count; ``repro/__init__`` does."""
    identifiers = {
        path: set(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
        for path in _searched_sources()
    }
    unreached = set()
    for init in PACKAGE_DIR.glob("*/__init__.py"):
        homes = {}
        exported = ()
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                base = init.parent.joinpath(*node.module.split("."))
                home = base.with_suffix(".py")
                if not home.exists():
                    home = base / "__init__.py"
                homes.update((alias.asname or alias.name, home) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                exported = ast.literal_eval(node.value)
        for name in exported:
            own = {init, homes.get(name, init)}
            if not any(
                name in names for path, names in identifiers.items() if path not in own
            ):
                unreached.add(f"{init.parent.name}.{name}")
    return unreached


def test_every_subpackage_export_is_reached():
    """Library surface only tests call is dead weight: an export must be
    named outside its module, or be allowlisted with a reason."""
    unreached = _unreached_exports()
    assert sorted(unreached - set(UNREACHED_EXPORTS)) == []
    assert sorted(set(UNREACHED_EXPORTS) - unreached) == [], "stale allowlist entry"


#: src/ definitions that no searched line names, each kept for the reason
#: given.
UNREACHED_DEFINITIONS = {
    "accelerators.variants.GanaxNoSkipSimulator": "reached through the accelerator registry its decorator fills",
    "accelerators.variants.IdealRooflineSimulator": "reached through the accelerator registry its decorator fills",
    "isa.program.MicroProgramBuilder.preload_local_everywhere": "test seam: one µop into every PV's local buffer",
    "nn.layers.TransposedConvLayer.expanded_spatial": "the zero-inserted extent the brute-force oracle in tests/oracles.py walks",
    "runner.cache.DiskResultCache.size_bytes": "test seam: the bytes on disk that prune() accounts against",
    "service.journal.EventJournal.read_records": "test seam: the journal's records as written",
    "telemetry.tracing.Tracer.open_spans": "test seam: the spans begun and not yet ended",
}


def _unreached_definitions():
    """Top-level functions and classes, and methods, defined under src/repro
    whose name appears on no code line of :func:`_searched_sources` other than
    a ``def``/``class`` line of that name (so two unreached methods that share
    a name do not reach each other).  Dunder methods are skipped: the runtime
    calls them."""
    occurrences = {}
    for path in _searched_sources():
        if path.suffix == ".md":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for name in set(_IDENTIFIER.findall(line)):
                occurrences.setdefault(name, set()).add((path, number))
    definitions = []
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            definitions.append((f"{module}.{node.name}", node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}.{node.name}.{member.name}", member.name, path, member.lineno)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    defining_lines = {}
    for _, name, path, number in definitions:
        defining_lines.setdefault(name, set()).add((path, number))
    return {
        qualified
        for qualified, name, _, _ in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not occurrences[name] - defining_lines[name]
    }


def test_every_src_definition_is_reached():
    """A function, class or method only tests call is dead weight: its name
    must appear on some code line besides its definition, or be allowlisted
    with a reason."""
    unreached = _unreached_definitions()
    assert sorted(unreached - set(UNREACHED_DEFINITIONS)) == []
    assert sorted(set(UNREACHED_DEFINITIONS) - unreached) == [], "stale allowlist entry"


#: The lines an example must open its stdout with.  isa_walkthrough.py
#: opens with its analysis of the paper's running example (Section II,
#: Figure 4), read off the dataflow schedule.
EXAMPLE_OPENING_LINES = {
    "isa_walkthrough.py": [
        "Paper running example: 4x4 input, 5x5 filter, stride 2, padding 2",
        "  output shape:            1x7x7",
        "  dense MACs:              1225",
        "  consequential MACs:      256",
        "  inconsequential fraction: 79.1%",
        "  distinct row patterns:   2",
        "    phase 0: consequential filter rows (0, 2, 4) (accumulation chain of 3 instead of 5)",
        "    phase 1: consequential filter rows (1, 3) (accumulation chain of 2 instead of 5)",
        "  idle compute nodes under the conventional dataflow: 49% (paper: 50%)",
    ],
}


@pytest.mark.parametrize(
    "script", sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
)
def test_example_scripts_run(script):
    """Every example must run end-to-end and exit cleanly."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    opening = EXAMPLE_OPENING_LINES.get(script, [])
    assert result.stdout.splitlines()[: len(opening)] == opening
