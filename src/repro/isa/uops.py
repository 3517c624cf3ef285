"""Micro-op (µop) definitions of the GANAX ISA (paper Section IV).

The ISA has three groups:

* **Access µops** configure and control the strided µindex generators in the
  access µ-engine: ``access.cfg``, ``access.start``, ``access.stop``.
* **SIMD execute µops** specify only the *type* of operation — they carry no
  source/destination fields because the access µ-engine supplies addresses —
  and are preloaded into the local µop buffers: ``add``, ``mul``, ``mac``,
  ``pool``, ``act`` plus ``repeat``.
* **MIMD µops** live in the global µop buffer and orchestrate the PVs:
  ``mimd.ld`` loads a microarchitectural register of all PEs in one PV, and
  ``mimd.exe`` sends a (possibly different) local µop index to every PV.

Every µop is a small frozen dataclass; :mod:`repro.isa.encoding` maps them to
and from the bit-level formats described in the paper (64-bit global µops with
one 4-bit index field per PV and a 1-bit SIMD/MIMD-SIMD mode flag).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import IsaError


class ConfigRegister(enum.Enum):
    """The five configuration registers of a strided µindex generator."""

    ADDR = 0
    OFFSET = 1
    STEP = 2
    END = 3
    REPEAT = 4


class AddressGenerator(enum.IntEnum):
    """Index of a strided µindex generator inside an access µ-engine."""

    INPUT = 0
    WEIGHT = 1
    OUTPUT = 2


class ExecuteOp(enum.Enum):
    """Operation types the execute µ-engine ALU supports."""

    ADD = "add"
    MUL = "mul"
    MAC = "mac"
    POOL = "pool"
    ACT = "act"
    NOP = "nop"


@dataclass(frozen=True)
class MicroOp:
    """Base class of every µop."""

    @property
    def mnemonic(self) -> str:
        raise NotImplementedError

    @property
    def is_access(self) -> bool:
        return isinstance(self, (AccessCfg, AccessStart, AccessStop))

    @property
    def is_mimd(self) -> bool:
        return isinstance(self, (MimdLoad, MimdExecute))


# ----------------------------------------------------------------------
# Access µops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessCfg(MicroOp):
    """``access.cfg %pv_idx, %addrgen_idx, %dst, imm``

    Loads a 16-bit immediate into one of the five configuration registers of
    one address generator of the access µ-engine of every PE in PV
    ``pv_index``.
    """

    pv_index: int
    generator: AddressGenerator
    register: ConfigRegister
    immediate: int

    def __post_init__(self) -> None:
        if self.pv_index < 0:
            raise IsaError(f"access.cfg: pv_index must be >= 0, got {self.pv_index}")
        if not (0 <= self.immediate < (1 << 16)):
            raise IsaError(
                f"access.cfg: immediate {self.immediate} does not fit in 16 bits"
            )

    @property
    def mnemonic(self) -> str:
        return "access.cfg"


@dataclass(frozen=True)
class AccessStart(MicroOp):
    """``access.start %pv_idx, %addrgen_idx`` — begin address generation."""

    pv_index: int
    generator: AddressGenerator

    def __post_init__(self) -> None:
        if self.pv_index < 0:
            raise IsaError(f"access.start: pv_index must be >= 0, got {self.pv_index}")

    @property
    def mnemonic(self) -> str:
        return "access.start"


@dataclass(frozen=True)
class AccessStop(MicroOp):
    """``access.stop %pv_idx, %addrgen_idx`` — interrupt address generation."""

    pv_index: int
    generator: AddressGenerator

    def __post_init__(self) -> None:
        if self.pv_index < 0:
            raise IsaError(f"access.stop: pv_index must be >= 0, got {self.pv_index}")

    @property
    def mnemonic(self) -> str:
        return "access.stop"


# ----------------------------------------------------------------------
# Execute µops (SIMD group)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecuteUop(MicroOp):
    """An execute µop: only the operation type, no operand fields.

    ``add``/``mul``/``mac`` consume addresses from the µindex generators for
    their source and destination operands; ``act`` consumes one source and
    one destination address; ``pool`` consumes a window of source addresses.
    ``activation`` selects the non-linear function applied by ``act``.
    """

    op: ExecuteOp
    activation: str = "relu"

    _ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "identity")

    def __post_init__(self) -> None:
        if not isinstance(self.op, ExecuteOp):
            raise IsaError(f"invalid execute op {self.op!r}")
        if self.op is ExecuteOp.ACT and self.activation not in self._ACTIVATIONS:
            raise IsaError(
                f"act µop has unknown activation '{self.activation}', "
                f"expected one of {self._ACTIVATIONS}"
            )

    @property
    def mnemonic(self) -> str:
        return self.op.value


@dataclass(frozen=True)
class RepeatUop(MicroOp):
    """``repeat`` — repeat the next fetched µop ``count`` times.

    The repetition count lives in a per-PE microarchitectural register that a
    ``mimd.ld`` µop preloads; ``count`` here mirrors that register so the
    machine and the analytical model can reason about the schedule without
    re-simulating the load.  A count of 0 means "use the register value".
    """

    count: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise IsaError(f"repeat count must be >= 0, got {self.count}")

    @property
    def mnemonic(self) -> str:
        return "repeat"


# ----------------------------------------------------------------------
# MIMD µops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MimdLoad(MicroOp):
    """``mimd.ld %pv_idx, %dst, imm`` — load an immediate into a PE register.

    Used mainly to preload the ``repeat`` register of all PEs within a PV.
    """

    pv_index: int
    destination: str
    immediate: int

    _REGISTERS = ("repeat", "stride", "base")

    def __post_init__(self) -> None:
        if self.pv_index < 0:
            raise IsaError(f"mimd.ld: pv_index must be >= 0, got {self.pv_index}")
        if self.destination not in self._REGISTERS:
            raise IsaError(
                f"mimd.ld: unknown destination register '{self.destination}', "
                f"expected one of {self._REGISTERS}"
            )
        if not (0 <= self.immediate < (1 << 16)):
            raise IsaError(
                f"mimd.ld: immediate {self.immediate} does not fit in 16 bits"
            )

    @property
    def mnemonic(self) -> str:
        return "mimd.ld"


@dataclass(frozen=True)
class MimdExecute(MicroOp):
    """``mimd.exe %uop_index_1, ..., %uop_index_N``

    The i-th PV fetches the µop at ``local_indices[i]`` from its local µop
    buffer and executes it across all its PEs.  Different PVs may receive
    different indices, which is what makes the array MIMD at PV granularity
    while staying SIMD inside each PV.
    """

    local_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.local_indices:
            raise IsaError("mimd.exe requires at least one local µop index")
        for i in self.local_indices:
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise IsaError(f"mimd.exe: local µop index {i!r} is not an integer")
        if any(i < 0 for i in self.local_indices):
            raise IsaError("mimd.exe: local µop indices must be >= 0")
        object.__setattr__(self, "local_indices", tuple(int(i) for i in self.local_indices))

    @property
    def mnemonic(self) -> str:
        return "mimd.exe"


#: µops that may appear in the global µop buffer.
GLOBAL_BUFFER_UOPS = (ExecuteUop, RepeatUop, MimdLoad, MimdExecute, AccessCfg, AccessStart, AccessStop)
