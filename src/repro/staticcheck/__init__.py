"""Static analysis for compiled µop programs and the repo's own source.

Three tools live here (see this package's ``README.md`` for the catalogs):

- the **verifier** (:func:`verify_program` / :func:`verify_words`): an
  abstract interpreter over a :class:`~repro.isa.program.MicroProgram`'s
  global µop stream that models the access µ-engine state machines and PE
  buffers and reports :class:`Finding`\\ s against a registry of
  severity-tagged checks (:data:`CATALOG`);
- the **FileCheck harness** (:func:`run_filecheck` / :func:`filecheck`): an
  LLVM-FileCheck-style directive matcher over the stable disassembly of
  compiled programs, backing the golden-program tests;
- the **repo lints** (:func:`run_lints`): AST passes that enforce standing
  project invariants (deterministic fingerprints, lock discipline,
  schema-versioned records, frozen ISA dataclasses).

``repro check`` and ``repro lint`` surface the first and last of these on
the command line; :func:`run_check_grid` is the workload × accelerator
driver behind ``repro check`` and the CI gate.
"""

from .checks import (
    CATALOG,
    CheckSpec,
    check_ids,
    verify_program,
    verify_words,
)
from .filecheck import (
    Directive,
    FileCheckError,
    FileCheckResult,
    filecheck,
    parse_check_file,
    run_filecheck,
)
from .ir import Finding, MachineModel, ProgramInterpreter, Severity
from .lint import LINT_CATALOG, LintError, LintFinding, run_lints
from .programs import (
    GridReport,
    ProgramReport,
    check_binding,
    iter_compilable_bindings,
    run_check_grid,
)

__all__ = [
    "CATALOG",
    "CheckSpec",
    "Directive",
    "FileCheckError",
    "FileCheckResult",
    "Finding",
    "GridReport",
    "LINT_CATALOG",
    "LintError",
    "LintFinding",
    "MachineModel",
    "ProgramInterpreter",
    "ProgramReport",
    "Severity",
    "check_binding",
    "check_ids",
    "filecheck",
    "iter_compilable_bindings",
    "parse_check_file",
    "run_check_grid",
    "run_filecheck",
    "run_lints",
    "verify_program",
    "verify_words",
]
