"""Exception hierarchy for the GANAX reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library errors without masking programming mistakes such as
``TypeError`` from misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An architecture, energy, or area configuration is invalid."""


class ShapeError(ReproError):
    """A tensor / layer shape is inconsistent or unsupported."""


class LayerError(ReproError):
    """A layer specification is malformed (bad stride, kernel, channels...)."""


class NetworkError(ReproError):
    """A network definition is inconsistent (shape chain broken, empty...)."""


class WorkloadError(ReproError):
    """A named GAN workload could not be built or found."""


class UnknownWorkloadError(WorkloadError):
    """A workload spec string names no registered workload or family.

    Raised by :func:`repro.workloads.resolve_workload` and the CLI's
    ``--workloads`` parsing; the message lists every registered workload name
    and every family (with its spec grammar reachable via ``list-workloads``)
    so a typo is immediately actionable.
    """

    def __init__(
        self,
        name: str,
        registered: "tuple[str, ...]" = (),
        families: "tuple[str, ...]" = (),
    ) -> None:
        self.name = name
        self.registered = tuple(registered)
        self.families = tuple(families)
        known = ", ".join(self.registered) if self.registered else "none"
        message = f"unknown workload '{name}'; registered workloads: {known}"
        if self.families:
            message += (
                "; registered families (usable as '<family>@<args>'): "
                + ", ".join(self.families)
            )
        super().__init__(message)

    def __reduce__(self):
        # args holds the formatted message, not (name, registered, families);
        # without this, unpickling (or copy.copy) re-wraps the message
        # through __init__ and garbles it.
        return (type(self), (self.name, self.registered, self.families))


class IsaError(ReproError):
    """A micro-op is malformed, cannot be encoded, or cannot be decoded."""


class AssemblerError(IsaError):
    """The textual micro-op assembler rejected its input."""


class ProgramError(IsaError):
    """A micro-program is structurally invalid."""


class ProgramEncodingError(IsaError):
    """Encoding or decoding failed at a specific µop of a micro-program.

    Carries the program name, the offset of the offending µop (as a
    human-readable ``location`` like ``"global µop 12"`` or
    ``"PV 3 local µop 1"``) and the µop's repr, so an encode failure deep in a
    compiled program is clickable instead of anonymous."""

    def __init__(self, program: str, location: str, uop_repr: str, reason: str) -> None:
        self.program = program
        self.location = location
        self.uop_repr = uop_repr
        self.reason = reason
        super().__init__(f"program '{program}', {location} ({uop_repr}): {reason}")

    def __reduce__(self):
        # args holds the formatted message, not the four fields; without this,
        # unpickling re-wraps the message through __init__ and garbles it.
        return (type(self), (self.program, self.location, self.uop_repr, self.reason))


class HardwareError(ReproError):
    """A hardware primitive (FIFO, buffer, DRAM, NoC) was misused."""


class FifoError(HardwareError):
    """Push on a full FIFO or pop on an empty FIFO."""


class BufferError_(HardwareError):
    """Out-of-range access on a scratchpad or on-chip buffer."""


class SimulationError(ReproError):
    """The cycle-level machine or analytical simulator reached a bad state."""


class CompilationError(ReproError):
    """A layer could not be lowered to a GANAX micro-program."""


class DataflowError(ReproError):
    """The dataflow reorganization produced an inconsistent schedule."""


class ScheduleError(ReproError):
    """A schedule specification is malformed or cannot be applied."""


class UnknownScheduleError(ScheduleError):
    """A schedule spec string names no registered schedule or family.

    Raised by :func:`repro.schedule.resolve_schedule` and the CLI's
    ``--schedule`` parsing; the message lists every registered schedule name
    and every family (with its spec grammar reachable via ``list-schedules``)
    so a typo is immediately actionable.
    """

    def __init__(
        self,
        name: str,
        registered: "tuple[str, ...]" = (),
        families: "tuple[str, ...]" = (),
    ) -> None:
        self.name = name
        self.registered = tuple(registered)
        self.families = tuple(families)
        known = ", ".join(self.registered) if self.registered else "none"
        message = f"unknown schedule '{name}'; registered schedules: {known}"
        if self.families:
            message += (
                "; registered families (usable as '<family>@<args>'): "
                + ", ".join(self.families)
            )
        super().__init__(message)

    def __reduce__(self):
        # args holds the formatted message, not (name, registered, families);
        # without this, unpickling (or copy.copy) re-wraps the message
        # through __init__ and garbles it.
        return (type(self), (self.name, self.registered, self.families))


class AnalysisError(ReproError):
    """Metric or report computation failed (e.g. empty result set)."""


class UnknownAcceleratorError(AnalysisError):
    """An accelerator name is not in the registry.

    Raised by :func:`repro.accelerators.get_accelerator` and the CLI's
    ``--accelerators`` parsing; the message lists every registered name so a
    typo is immediately actionable.
    """

    def __init__(self, name: str, registered: "tuple[str, ...]" = ()) -> None:
        self.name = name
        self.registered = tuple(registered)
        known = ", ".join(self.registered) if self.registered else "none"
        super().__init__(
            f"unknown accelerator '{name}'; registered accelerators: {known}"
        )

    def __reduce__(self):
        # args holds the formatted message, not (name, registered); without
        # this, unpickling (or copy.copy) re-wraps the message through
        # __init__ and garbles it.
        return (type(self), (self.name, self.registered))


class ExperimentError(ReproError):
    """An experiment (figure/table reproduction) could not be executed."""


class ServiceError(ReproError):
    """The simulation service (server, client or journal) reached a bad state."""


class ProtocolError(ServiceError):
    """A wire or journal record is malformed or from an incompatible schema.

    Raised wherever a JSONL record crosses a trust boundary — the service
    handshake, per-request validation, client-side record parsing and journal
    replay — so schema drift fails loudly with an actionable message instead
    of silently misparsing."""


class AdmissionError(ServiceError):
    """A request was refused by the service's admission-control layer.

    Carries the machine-readable rejection ``code`` (``"quota"``,
    ``"queue-full"``, ``"shutting-down"``, ...) alongside the human-readable
    reason, mirroring the wire-level ``rejected`` record."""

    def __init__(self, code: str, reason: str) -> None:
        self.code = code
        self.reason = reason
        super().__init__(f"request rejected ({code}): {reason}")

    def __reduce__(self):
        # args holds the formatted message, not (code, reason); without this,
        # unpickling re-wraps the message through __init__ and garbles it.
        return (type(self), (self.code, self.reason))
