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
    "isa.assemble_line": "the one-line form of assemble",
    "nn.RowPattern": "element type of TransposedConvAnalysis.row_patterns",
    "nn.TransposedConvAnalysis": "return type of analyze_transposed_conv",
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


def _unreached_exports():
    """Subpackage ``__all__`` names no file outside their defining module
    names, searching the code and docs under src/ and the code under
    benchmarks/, perfbench/, examples/ and scripts/.  A subpackage's own
    ``__init__`` re-export does not count; ``repro/__init__`` does."""
    sources = [
        path
        for top in ("src", "benchmarks", "perfbench", "examples", "scripts")
        for path in (REPO_ROOT / top).rglob("*")
        if path.suffix in (".py", ".sh") or (top == "src" and path.suffix == ".md")
    ]
    identifiers = {
        path: set(re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8")))
        for path in sources
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
