"""Micro-program containers.

A :class:`MicroProgram` is what the layer compiler produces and what the
cycle-level machine executes: the preloaded contents of every PV's local µop
buffer plus the ordered sequence of global µops.  The container validates the
structural constraints the hardware imposes (local buffer capacity, local
index ranges referenced by ``mimd.exe``, PV indices in range) so that invalid
programs are rejected at build time rather than mid-simulation.

Compiled µops are shared immutable objects: a program built by
:class:`MicroProgramBuilder` holds one object per distinct µop and repeats it
at every position that issues it.  A mutation test corrupts a program by
putting a new µop at a position (as ``scripts/ci.sh`` does), never by
``object.__setattr__`` on a µop inside a compiled program, which would
corrupt every position that shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import IsaError, ProgramEncodingError, ProgramError
from .assembler import disassemble_uop
from .encoding import encode_global_uop, encode_local_uop
from .uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    AddressGenerator,
    ConfigRegister,
    ExecuteUop,
    MicroOp,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)


@dataclass(frozen=True)
class MicroProgram:
    """A complete GANAX micro-program for one layer (or layer tile).

    Attributes
    ----------
    name:
        Identifier, typically the layer name it was compiled from.
    num_pvs:
        Number of processing vectors the program targets.
    local_uops:
        Per-PV local µop buffer contents.  ``local_uops[pv][i]`` is the µop a
        ``mimd.exe`` with index ``i`` for PV ``pv`` dispatches.
    global_uops:
        The ordered stream of global µops executed by the global controller.
    """

    name: str
    num_pvs: int
    local_uops: Tuple[Tuple[MicroOp, ...], ...]
    global_uops: Tuple[MicroOp, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ProgramError("micro-program name must be non-empty")
        if self.num_pvs <= 0:
            raise ProgramError("num_pvs must be positive")
        if len(self.local_uops) != self.num_pvs:
            raise ProgramError(
                f"expected {self.num_pvs} local µop buffers, got {len(self.local_uops)}"
            )
        object.__setattr__(
            self,
            "local_uops",
            tuple(tuple(buffer) for buffer in self.local_uops),
        )
        object.__setattr__(self, "global_uops", tuple(self.global_uops))
        self._validate()

    def _validate(self) -> None:
        for pv, buffer in enumerate(self.local_uops):
            for uop in buffer:
                if not isinstance(uop, (ExecuteUop, RepeatUop)):
                    raise ProgramError(
                        f"PV {pv} local buffer contains non-local µop {uop!r}"
                    )
        # A compiled stream repeats a few shared µop objects (see
        # MicroProgramBuilder), and no check below depends on a µop's
        # position: each distinct object is checked once, in order of first
        # appearance, and an error names that first position.
        stream = self.global_uops
        for uop in dict(zip(map(id, stream), stream)).values():
            problem = self._global_uop_problem(uop)
            if problem is not None:
                position = next(i for i, other in enumerate(stream) if other is uop)
                raise ProgramError(f"global µop {position}: {problem}")

    def _global_uop_problem(self, uop: MicroOp) -> Optional[str]:
        """Why ``uop`` may not sit in this program's global stream, or None."""
        if isinstance(uop, MimdExecute):
            if len(uop.local_indices) != self.num_pvs:
                return (
                    f"mimd.exe carries {len(uop.local_indices)} indices for "
                    f"{self.num_pvs} PVs"
                )
            for pv, index in enumerate(uop.local_indices):
                if index >= len(self.local_uops[pv]):
                    return (
                        f"PV {pv} local index {index} out of range "
                        f"(buffer has {len(self.local_uops[pv])})"
                    )
        elif isinstance(uop, (MimdLoad, AccessCfg, AccessStart, AccessStop)):
            if uop.pv_index >= self.num_pvs:
                return f"PV index {uop.pv_index} out of range for {self.num_pvs} PVs"
        elif not isinstance(uop, (ExecuteUop, RepeatUop)):
            return f"{uop!r} is not a valid global µop"
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def max_local_buffer_entries(self) -> int:
        """Largest local µop buffer footprint across PVs."""
        return max((len(buffer) for buffer in self.local_uops), default=0)

    @property
    def num_global_uops(self) -> int:
        return len(self.global_uops)

    def validate_against_buffers(
        self, local_entries: int, global_entries: int | None = None
    ) -> None:
        """Check the program fits the configured µop buffer sizes.

        The global µop buffer is double-buffered and refilled per layer, so
        exceeding its entry count is legal (it just means multiple fills);
        callers pass ``global_entries`` only when they want a strict check.
        """
        if self.max_local_buffer_entries > local_entries:
            raise ProgramError(
                f"program '{self.name}' needs {self.max_local_buffer_entries} local "
                f"µop entries but the hardware provides {local_entries}"
            )
        if global_entries is not None and self.num_global_uops > global_entries:
            raise ProgramError(
                f"program '{self.name}' has {self.num_global_uops} global µops, "
                f"exceeding the strict limit of {global_entries}"
            )

    def encoded_global_words(self) -> Tuple[int, ...]:
        """The encoded 64-bit words of the global stream (for fetch costing)."""
        words = []
        for index, uop in enumerate(self.global_uops):
            try:
                words.append(encode_global_uop(uop, num_pvs=self.num_pvs))
            except IsaError as exc:
                raise ProgramEncodingError(
                    self.name, f"global µop {index}", repr(uop), str(exc)
                ) from exc
        return tuple(words)

    # ------------------------------------------------------------------
    # Disassembly
    # ------------------------------------------------------------------
    def disassemble(self) -> str:
        """Stable sectioned textual disassembly of the whole program.

        The format is what the FileCheck harness and the ``disasm`` CLI verb
        consume: a ``.program``/``.pvs`` header, one ``.local`` section per run
        of PVs with identical buffer contents, then the ordered ``.global``
        stream, each µop rendered by the canonical assembler text prefixed
        with its buffer index.
        """
        lines = [f".program {self.name}", f".pvs {self.num_pvs}"]
        pv = 0
        while pv < self.num_pvs:
            end = pv
            while (
                end + 1 < self.num_pvs
                and self.local_uops[end + 1] == self.local_uops[pv]
            ):
                end += 1
            header = f".local %pv{pv}" if end == pv else f".local %pv{pv}..%pv{end}"
            lines.append(header)
            for index, uop in enumerate(self.local_uops[pv]):
                lines.append(f"  {index}: {disassemble_uop(uop)}")
            pv = end + 1
        lines.append(".global")
        for index, uop in enumerate(self.global_uops):
            lines.append(f"  {index}: {disassemble_uop(uop)}")
        lines.append(".end")
        return "\n".join(lines) + "\n"

    def uop_records(self) -> Dict[str, object]:
        """JSON-ready structured disassembly (the CLI's ``disasm --json``)."""
        return {
            "program": self.name,
            "num_pvs": self.num_pvs,
            "local": [
                [
                    {
                        "index": index,
                        "mnemonic": uop.mnemonic,
                        "text": disassemble_uop(uop),
                        "word": encode_local_uop(uop),
                    }
                    for index, uop in enumerate(buffer)
                ]
                for buffer in self.local_uops
            ],
            "global": [
                {
                    "index": index,
                    "mnemonic": uop.mnemonic,
                    "text": disassemble_uop(uop),
                    "word": encode_global_uop(uop, num_pvs=self.num_pvs),
                }
                for index, uop in enumerate(self.global_uops)
            ],
        }


class MicroProgramBuilder:
    """Imperative helper for assembling a :class:`MicroProgram`.

    The ``emit_access_*``, ``emit_mimd`` and ``emit_mimd_load`` helpers
    build each distinct µop once and append the same object at every later
    position, as the hardware preloads a small µop set once and reuses it.
    The table is per builder, so it dies with the builder.  An access or
    ``mimd.ld`` µop is shared only when every field has exactly its declared
    type: ``immediate=1.0`` or ``pv_index=True`` equals its int twin but
    need not encode alike, so such a µop is built afresh.  (``mimd.exe``
    stores ``int(index)`` of every index, so equal index tuples always
    build equal µops.)  To corrupt one position of a built program, put a
    new µop there; never ``object.__setattr__`` a µop inside it.
    """

    def __init__(self, name: str, num_pvs: int) -> None:
        if num_pvs <= 0:
            raise ProgramError("num_pvs must be positive")
        self._name = name
        self._num_pvs = num_pvs
        self._local: List[List[MicroOp]] = [[] for _ in range(num_pvs)]
        self._global: List[MicroOp] = []
        self._shared: Dict[tuple, MicroOp] = {}

    # -- local buffers ---------------------------------------------------
    def preload_local(self, pv_index: int, uop: MicroOp) -> int:
        """Append ``uop`` to PV ``pv_index``'s local buffer; returns its index.

        Identical µops are deduplicated (the paper preloads a small set of
        execute µops once and reuses them), so preloading the same µop twice
        returns the original index.
        """
        self._check_pv(pv_index)
        if not isinstance(uop, (ExecuteUop, RepeatUop)):
            raise ProgramError(f"{uop!r} cannot be preloaded into a local buffer")
        buffer = self._local[pv_index]
        if uop in buffer:
            return buffer.index(uop)
        buffer.append(uop)
        return len(buffer) - 1

    def preload_local_everywhere(self, uop: MicroOp) -> Tuple[int, ...]:
        """Preload ``uop`` into every PV's local buffer; returns per-PV indices."""
        return tuple(self.preload_local(pv, uop) for pv in range(self._num_pvs))

    # -- global stream ----------------------------------------------------
    def emit(self, uop: MicroOp) -> None:
        """Append a µop to the global stream."""
        self._global.append(uop)

    def emit_mimd(self, local_indices: Sequence[int]) -> None:
        """Dispatch one local µop index per PV in MIMD-SIMD mode."""
        indices = tuple(local_indices)
        # Only all-int tuples are shared: 1.0 and True hash like 1, and must
        # reach MimdExecute, which rejects them.
        key = None
        if all(type(i) is int for i in indices):
            key = (MimdExecute, indices)
        uop = self._shared.get(key)
        if uop is None:
            uop = MimdExecute(local_indices=indices)
            if key is not None:
                self._shared[key] = uop
        self._global.append(uop)

    def emit_access_cfg(self, pv_index: int, generator, register, immediate: int) -> None:
        key = None
        if (
            type(pv_index) is int
            and type(generator) is AddressGenerator
            and type(register) is ConfigRegister
            and type(immediate) is int
        ):
            # The register's value, not the member: a plain Enum hashes in
            # Python, an int in C.
            key = (AccessCfg, pv_index, generator, register._value_, immediate)
        uop = self._shared.get(key)
        if uop is None:
            uop = self._new_uop(key, AccessCfg, pv_index, generator, register, immediate)
        self._global.append(uop)

    def emit_access_start(self, pv_index: int, generator) -> None:
        key = None
        if type(pv_index) is int and type(generator) is AddressGenerator:
            key = (AccessStart, pv_index, generator)
        uop = self._shared.get(key)
        if uop is None:
            uop = self._new_uop(key, AccessStart, pv_index, generator)
        self._global.append(uop)

    def emit_mimd_load(self, pv_index: int, destination: str, immediate: int) -> None:
        key = None
        if type(pv_index) is int and type(destination) is str and type(immediate) is int:
            key = (MimdLoad, pv_index, destination, immediate)
        uop = self._shared.get(key)
        if uop is None:
            uop = self._new_uop(key, MimdLoad, pv_index, destination, immediate)
        self._global.append(uop)

    def _new_uop(self, key: Optional[tuple], cls, pv_index, *fields) -> MicroOp:
        """Build ``cls(pv_index, *fields)``; share it under ``key`` unless
        ``key`` is None (a field not exactly of its declared type)."""
        self._check_pv(pv_index)
        uop = cls(pv_index, *fields)
        if key is not None:
            self._shared[key] = uop
        return uop

    # -- finalisation ------------------------------------------------------
    def build(self) -> MicroProgram:
        return MicroProgram(
            name=self._name,
            num_pvs=self._num_pvs,
            local_uops=tuple(tuple(buffer) for buffer in self._local),
            global_uops=tuple(self._global),
        )

    def _check_pv(self, pv_index: int) -> None:
        if not (0 <= pv_index < self._num_pvs):
            raise ProgramError(
                f"PV index {pv_index} out of range for {self._num_pvs} PVs"
            )
