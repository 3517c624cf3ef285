"""Package-level tests: public API surface, error hierarchy, example scripts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


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
