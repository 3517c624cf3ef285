"""The :class:`ScheduleSpec`: a frozen description of *how* a layer is lowered.

GANAX separates the layer **algorithm** — which output rows exist, which
filter rows are consequential for each row phase, which kernel taps each
output column touches (:mod:`repro.core.dataflow`) — from the **schedule**:
the order and packaging in which that fixed work is lowered to the µop ISA.
A :class:`ScheduleSpec` captures the schedule half as a small set of knobs:

``row_order``
    Order in which output rows become :class:`~repro.core.compiler.RowTask`\\ s.
    ``"grouped"`` (default) walks the reorganized row groups phase by phase,
    exactly as the paper's output-row reorganization emits them; ``"raster"``
    walks output rows in ascending row index across groups (each row keeps
    its group's consequential filter rows — the algorithm is untouched).

``pv_policy``
    PV ↔ row-task mapping. ``"roundrobin"`` (default) assigns task *i* to PV
    ``i % num_pvs`` in planning order; ``"blocked"`` gives each PV a
    contiguous block of tasks (PV ``p`` owns tasks ``p*ceil(T/P) ..``) while
    interleaving the emission order so every wave still holds distinct PVs.

``column_order`` / ``column_tile``
    Traversal of the output-column window inside one row task.
    ``column_order`` is ``"ascending"`` (default) or ``"descending"``;
    ``column_tile`` of ``N > 0`` re-walks the (ordered) columns column-major
    over tiles of width ``N`` — column 0 of every tile first, then column 1,
    and so on (``0`` keeps the flat row-major walk).

``repeat_unroll``
    Number of dispatch groups each column's accumulation chain is split
    into.  The default ``1`` emits one ``repeat``/``mac`` pair per column;
    ``u > 1`` splits the ``taps`` repeat count into ``u`` balanced parts,
    each with its own ``mimd.ld`` + ``repeat`` + ``mac`` dispatch, before the
    single final ``act``.  Numerically exact because the PE accumulator
    persists across dispatches and only ``act`` commits and clears it.

``hoist_invariant_cfg``
    When true, the emitter tracks the access-engine configuration registers
    and the per-PV repeat register across the program and elides writes whose
    target already holds the value.  Legal because both the machine
    (:mod:`repro.core.access`) and the static verifier model configuration
    registers as persistent until rewritten; the resulting program computes
    the same addresses with strictly fewer µops.

The builtin ``default`` spec (all knobs at their defaults) reproduces the
pre-schedule-subsystem lowering **byte-identically** — pinned by the parity
suite and the FileCheck goldens.  Specs are frozen and hashable;
:func:`schedule_fingerprint` gives a stable content hash used by the runner's
cache keys and the layer memo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, TypeVar

from ..errors import ScheduleError

_T = TypeVar("_T")

#: Accepted values per categorical knob (also drives validation messages).
ROW_ORDERS = ("grouped", "raster")
PV_POLICIES = ("roundrobin", "blocked")
COLUMN_ORDERS = ("ascending", "descending")

#: Sanity bound on ``repeat_unroll``: beyond this the per-column dispatch
#: stream dwarfs the compute it controls and no real schedule wants it.
MAX_REPEAT_UNROLL = 8

#: Sanity bound on ``column_tile`` (0 disables tiling).
MAX_COLUMN_TILE = 4096


@dataclass(frozen=True)
class ScheduleSpec:
    """A frozen, hashable schedule: every knob of the µop lowering.

    ``name`` is the canonical spec string (``"default"``,
    ``"colmajor@tile64"``, ...) under which the spec is registered or was
    resolved; it identifies the spec in CLI output, wire records and DSE
    point labels but does **not** enter :func:`schedule_fingerprint` — two
    names with identical knobs produce identical programs and share cache
    entries.
    """

    name: str
    description: str = ""
    row_order: str = "grouped"
    pv_policy: str = "roundrobin"
    column_order: str = "ascending"
    column_tile: int = 0
    repeat_unroll: int = 1
    hoist_invariant_cfg: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ScheduleError("schedule name must be a non-empty string")
        if self.row_order not in ROW_ORDERS:
            raise ScheduleError(
                f"schedule '{self.name}': row_order must be one of "
                f"{ROW_ORDERS}, got {self.row_order!r}"
            )
        if self.pv_policy not in PV_POLICIES:
            raise ScheduleError(
                f"schedule '{self.name}': pv_policy must be one of "
                f"{PV_POLICIES}, got {self.pv_policy!r}"
            )
        if self.column_order not in COLUMN_ORDERS:
            raise ScheduleError(
                f"schedule '{self.name}': column_order must be one of "
                f"{COLUMN_ORDERS}, got {self.column_order!r}"
            )
        if not isinstance(self.column_tile, int) or isinstance(self.column_tile, bool):
            raise ScheduleError(
                f"schedule '{self.name}': column_tile must be an integer"
            )
        if not 0 <= self.column_tile <= MAX_COLUMN_TILE:
            raise ScheduleError(
                f"schedule '{self.name}': column_tile must be in "
                f"[0, {MAX_COLUMN_TILE}], got {self.column_tile}"
            )
        if not isinstance(self.repeat_unroll, int) or isinstance(self.repeat_unroll, bool):
            raise ScheduleError(
                f"schedule '{self.name}': repeat_unroll must be an integer"
            )
        if not 1 <= self.repeat_unroll <= MAX_REPEAT_UNROLL:
            raise ScheduleError(
                f"schedule '{self.name}': repeat_unroll must be in "
                f"[1, {MAX_REPEAT_UNROLL}], got {self.repeat_unroll}"
            )
        if not isinstance(self.hoist_invariant_cfg, bool):
            raise ScheduleError(
                f"schedule '{self.name}': hoist_invariant_cfg must be a bool"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def knob_mapping(self) -> Dict[str, object]:
        """The behavioural knobs only — the input to the fingerprint."""
        skip = {"name", "description"}
        return {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if f.name not in skip
        }

    def to_mapping(self) -> Dict[str, object]:
        """Full serializable form (name + description + knobs)."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    # ------------------------------------------------------------------
    # Planning-time application
    # ------------------------------------------------------------------
    def permute_columns(self, columns: Sequence[_T]) -> Tuple[_T, ...]:
        """Apply ``column_order`` and ``column_tile`` to one task's columns."""
        ordered: List[_T] = list(columns)
        if self.column_order == "descending":
            ordered.reverse()
        tile = self.column_tile
        if tile > 0 and len(ordered) > tile:
            ordered = [
                ordered[i]
                for phase in range(tile)
                for i in range(phase, len(ordered), tile)
            ]
        return tuple(ordered)

    def task_emission(self, count: int, num_pvs: int) -> Tuple[Tuple[int, int], ...]:
        """``(planned_index, pv_index)`` pairs in program-emission order.

        ``roundrobin`` keeps planning order and strides PVs; ``blocked``
        hands PV ``p`` the contiguous block of tasks ``[p*chunk, (p+1)*chunk)``
        and interleaves the emission so each wave still holds ``num_pvs``
        distinct PVs (the wave chunker splits on the first repeated PV).
        """
        if num_pvs <= 0:
            raise ScheduleError("num_pvs must be positive")
        if self.pv_policy == "roundrobin":
            return tuple((i, i % num_pvs) for i in range(count))
        chunk = -(-count // num_pvs) if count else 0  # ceil division
        order: List[Tuple[int, int]] = []
        for wave in range(chunk):
            for pv in range(num_pvs):
                index = pv * chunk + wave
                if index < count:
                    order.append((index, pv))
        return tuple(order)

    def split_repeat(self, taps: int) -> Tuple[int, ...]:
        """Split one column's ``taps`` repeat count into unroll parts.

        Balanced split, largest parts first, so part 0 is never empty for
        ``taps >= 1``; parts beyond ``taps`` come out zero and are skipped by
        the emitter.
        """
        parts = self.repeat_unroll
        base, remainder = divmod(taps, parts)
        return tuple(base + 1 if j < remainder else base for j in range(parts))

    # ------------------------------------------------------------------
    # Analytical-model hooks (pure integers, so the estimator's dispatch and
    # µop-fetch counts stay exact)
    # ------------------------------------------------------------------
    def dispatch_event_multiplier(self) -> int:
        """Scaling of MIMD dispatch events relative to the default schedule.

        Each unroll part re-dispatches the repeat/mac pair, so the dispatch
        stream scales with ``repeat_unroll``.
        """
        return max(1, self.repeat_unroll)

    def uop_fetches_per_event(self, num_pvs: int) -> int:
        """µop-buffer fetches per dispatch event (one global + local fans).

        Hoisting invariant configuration writes removes roughly half of the
        per-event configuration traffic on the grids the model covers, so the
        hoisted fan-out is credited at ``ceil(num_pvs / 2)`` local fetches.
        """
        if self.hoist_invariant_cfg:
            return 1 + (num_pvs + 1) // 2
        return 1 + num_pvs


def _canonical_json(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1024)
def schedule_fingerprint(spec: ScheduleSpec) -> str:
    """Stable content hash of a spec's behavioural knobs.

    Name and description are excluded: two registered names with identical
    knobs lower every layer identically, so they may share cache entries
    (mirroring how ``canonical_options`` collapses ignored option values).
    """
    payload = _canonical_json(spec.knob_mapping())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The spec every other schedule is measured against: the legacy lowering.
DEFAULT_SCHEDULE = ScheduleSpec(
    name="default",
    description=(
        "the paper's lowering: grouped row order, round-robin PVs, ascending "
        "untiled columns, one repeat/mac pair per column"
    ),
)
