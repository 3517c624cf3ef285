"""The verifier's check registry and entry points.

Every check has a stable id and severity (the catalog below is the reference
the README documents and the mutation tests enumerate).  :func:`verify_program`
runs every pass over one compiled :class:`~repro.isa.program.MicroProgram`;
:func:`verify_words` runs the word-level passes over an already-encoded global
stream (which is how a flipped mode bit in a stored program image is caught).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import ArchitectureConfig
from ..errors import ReproError
from ..isa.encoding import (
    decode_global_uop,
    decode_local_uop,
    encode_global_uop,
    encode_local_uop,
    is_mimd_word,
)
from ..isa.program import MicroProgram
from ..isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    MicroOp,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)
from .ir import Finding, MachineModel, ProgramInterpreter, Severity


@dataclass(frozen=True)
class CheckSpec:
    """One registered verifier pass: id, severity and what it catches."""

    check_id: str
    severity: Severity
    description: str


#: The full check catalog, keyed by check id.  Severities are fixed per id.
CATALOG: Dict[str, CheckSpec] = {
    spec.check_id: spec
    for spec in (
        CheckSpec(
            "cfg-def-before-use", Severity.ERROR,
            "access.start fired with configuration registers never written "
            "since program start",
        ),
        CheckSpec(
            "cfg-invalid-at-start", Severity.ERROR,
            "generator configuration at access.start violates the hardware "
            "constraints (Step/End/Addr/Repeat ranges)",
        ),
        CheckSpec(
            "reconfigure-running", Severity.ERROR,
            "access.cfg/access.start addressed to a generator whose previous "
            "pattern still has unconsumed addresses",
        ),
        CheckSpec(
            "stop-without-start", Severity.ERROR,
            "access.stop addressed to a generator that was never started",
        ),
        CheckSpec(
            "addr-range-overflow", Severity.ERROR,
            "strided pattern reaches past the PE operand buffer capacity",
        ),
        CheckSpec(
            "pv-index-range", Severity.ERROR,
            "µop addresses a PV outside the program's PV count",
        ),
        CheckSpec(
            "local-index-range", Severity.ERROR,
            "mimd.exe index outside the preloaded local buffer or the "
            "4-bit index field range",
        ),
        CheckSpec(
            "local-buffer-overflow", Severity.ERROR,
            "preloaded local µop buffer exceeds the hardware entry count",
        ),
        CheckSpec(
            "repeat-count", Severity.ERROR,
            "repeat count of zero loaded via mimd.ld, or a count too large "
            "for the 12-bit encoding",
        ),
        CheckSpec(
            "repeat-default", Severity.WARNING,
            "count-0 repeat dispatched without a prior mimd.ld of the repeat "
            "register (silently repeats once)",
        ),
        CheckSpec(
            "repeat-pairing", Severity.ERROR,
            "repeat prefix not followed by a plain execute µop",
        ),
        CheckSpec(
            "execute-starved", Severity.ERROR,
            "execute µop consumes more addresses than its generators produce",
        ),
        CheckSpec(
            "unconsumed-addresses", Severity.ERROR,
            "program ends with produced addresses never consumed",
        ),
        CheckSpec(
            "dead-uop", Severity.WARNING,
            "preloaded local µop never dispatched by any mimd.exe",
        ),
        CheckSpec(
            "roundtrip-divergence", Severity.ERROR,
            "encode→decode of a µop diverges from the original or fails",
        ),
        CheckSpec(
            "mode-flag", Severity.ERROR,
            "encoded word's SIMD/MIMD mode bit contradicts its opcode group",
        ),
    )
}


def check_ids() -> Tuple[str, ...]:
    """All registered check ids (stable, sorted)."""
    return tuple(sorted(CATALOG))


def selected_checks(select: Optional[Sequence[str]]) -> Optional[Set[str]]:
    """``select`` as a set of check ids (None selects every check).

    Raises :class:`~repro.errors.ReproError` naming any id the catalog does
    not know: a misspelled id would otherwise select nothing and read as a
    clean program.
    """
    if select is None:
        return None
    selected = set(select)
    unknown = selected - CATALOG.keys()
    if unknown:
        raise ReproError(
            f"unknown check id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(check_ids())})"
        )
    return selected


class _Collector:
    def __init__(self, program_name: str, select: Optional[Sequence[str]]) -> None:
        self._program = program_name
        self._select = selected_checks(select)
        self.findings: List[Finding] = []

    def __call__(self, check_id: str, index: int, mnemonic: str, message: str) -> None:
        if check_id not in CATALOG:  # pragma: no cover - registry discipline
            raise KeyError(f"unregistered check id '{check_id}'")
        if self._select is not None and check_id not in self._select:
            return
        self.findings.append(
            Finding(
                check_id=check_id,
                severity=CATALOG[check_id].severity,
                index=index,
                mnemonic=mnemonic,
                message=message,
                program=self._program,
            )
        )


# ----------------------------------------------------------------------
# Individual passes
# ----------------------------------------------------------------------
def _pass_structure(program: MicroProgram, model: MachineModel, emit) -> None:
    for pv, buffer in enumerate(program.local_uops):
        if len(buffer) > model.local_uop_entries:
            emit(
                "local-buffer-overflow", -1, f"local[pv{pv}]",
                f"PV {pv} preloads {len(buffer)} local µops but the hardware "
                f"provides {model.local_uop_entries} entries",
            )


def _pass_interpret(program: MicroProgram, model: MachineModel, emit) -> set:
    interpreter = ProgramInterpreter(program, model, emit)
    interpreter.run()
    return interpreter.dispatched_local_indices


def _pass_dead_uops(program: MicroProgram, dispatched: set, emit) -> None:
    for pv, buffer in enumerate(program.local_uops):
        for index, uop in enumerate(buffer):
            if (pv, index) not in dispatched:
                emit(
                    "dead-uop", -1, f"local[pv{pv}][{index}]",
                    f"PV {pv} local µop {index} ({uop.mnemonic}) is preloaded "
                    "but never dispatched by any mimd.exe",
                )


def _check_mode_flag(index: int, word: int, decoded, emit) -> None:
    """The ``mode-flag`` check of one decoded word."""
    mimd = is_mimd_word(word)
    if mimd != decoded.is_mimd:
        emit(
            "mode-flag", index, decoded.mnemonic,
            f"word {word:#x} has mode bit {int(mimd)} but opcode group "
            f"{'MIMD' if decoded.is_mimd else 'SIMD/access'}",
        )


def _undecodable_word(index: int, word: int, exc: Exception, emit) -> None:
    emit(
        "roundtrip-divergence", index, f"word {word:#x}",
        f"encoded word does not decode: {exc}",
    )


#: The declared field types of every other global µop class, in field order.
_FIELD_TYPES = {
    AccessStart: (int, AddressGenerator),
    AccessStop: (int, AddressGenerator),
    ExecuteUop: (ExecuteOp, str),
    RepeatUop: (int,),
    MimdLoad: (int, str, int),
    MimdExecute: (tuple,),
}


def _field_values(cls: type) -> Callable[[MicroOp], tuple]:
    """A getter of the field values of a ``cls`` instance, as a tuple.

    Attribute reads, not ``vars(uop)``: materializing an instance
    ``__dict__`` allocates one dict per µop, which costs more than the
    memo saves.
    """
    names = [f.name for f in fields(cls)]
    if len(names) == 1:
        name = names[0]
        return lambda uop: (getattr(uop, name),)
    return attrgetter(*names)


_FIELD_GETTERS = {cls: (_field_values(cls), types) for cls, types in _FIELD_TYPES.items()}
_ACCESS_CFG_FIELDS = _field_values(AccessCfg)


def _exact_key(uop: MicroOp) -> Optional[tuple]:
    """A key for ``uop`` when every field has exactly its declared type,
    else None.

    Dataclass equality is looser: ``immediate=1.0`` equals ``immediate=1``
    and ``pv_index=True`` equals ``pv_index=1``, yet the two need not
    encode alike.  Two µops with equal keys encode, decode and print alike,
    so only they may share one word-pass outcome.  A key is a plain tuple:
    comparing two costs no dataclass ``__eq__`` call.
    """
    cls = type(uop)
    if cls is AccessCfg:
        # Three in four global µops: spelled out, and keyed by the
        # register's index, which hashes without a Python-level
        # Enum.__hash__ call.
        pv_index, generator, register, immediate = _ACCESS_CFG_FIELDS(uop)
        if (
            type(pv_index) is int
            and type(generator) is AddressGenerator
            and type(register) is ConfigRegister
            and type(immediate) is int
        ):
            return cls, pv_index, generator, register._value_, immediate
        return None
    getter = _FIELD_GETTERS.get(cls)
    if getter is None:
        return None
    read, types = getter
    values = read(uop)
    if tuple(map(type, values)) != types:
        return None
    if cls is MimdExecute and not all(type(index) is int for index in uop.local_indices):
        return None
    return cls, values


def _word_outcome(uop: MicroOp, num_pvs: int) -> Optional[tuple]:
    """Encode ``uop`` once and decode its word once.

    Returns None for a clean round trip with a consistent mode bit, else
    ``(word, encode_error, decode_error, decoded)``: the error of the
    first step that failed (steps after it are None), or the decoded µop
    when both steps succeeded.  An error is kept without its traceback:
    the outcome is memoized, and a traceback would keep the memoizing
    frame, and every caller frame above it, alive in a reference cycle.
    """
    try:
        word = encode_global_uop(uop, num_pvs=num_pvs)
    except Exception as exc:
        return None, exc.with_traceback(None), None, None
    try:
        decoded = decode_global_uop(word, num_pvs=num_pvs)
    except Exception as exc:
        return word, None, exc.with_traceback(None), None
    if decoded == uop and is_mimd_word(word) == decoded.is_mimd:
        return None
    return word, None, None, decoded


_UNSEEN = object()


def _pass_global_words(program: MicroProgram, emit) -> None:
    """One encode and one decode per distinct, exactly typed global µop
    (see :func:`_exact_key`) feed both the round-trip and the
    word-level checks; any other µop object pays its own.  Every repeat of
    a µop still reports at its own index.  Word-level findings describe the
    stored image, so they are reported only when the whole stream
    encodes."""
    num_pvs = program.num_pvs
    outcomes: Dict[tuple, Optional[tuple]] = {}
    # A compiled stream repeats shared µop objects (MicroProgramBuilder):
    # an object's repeats reuse its outcome without building its key.
    by_object: Dict[int, Optional[tuple]] = {}
    word_findings: List[tuple] = []

    def emit_word(*finding) -> None:
        word_findings.append(finding)

    stream_encodes = True
    for index, uop in enumerate(program.global_uops):
        outcome = by_object.get(id(uop), _UNSEEN)
        if outcome is _UNSEEN:
            key = _exact_key(uop)
            if key is None:
                outcome = _word_outcome(uop, num_pvs)
            else:
                # Not try/except KeyError: a failed outcome's error would
                # keep the KeyError as its __context__.
                outcome = outcomes.get(key, _UNSEEN)
                if outcome is _UNSEEN:
                    outcome = outcomes[key] = _word_outcome(uop, num_pvs)
            by_object[id(uop)] = outcome
        if outcome is None:
            continue
        word, encode_error, decode_error, decoded = outcome
        if encode_error is not None:
            stream_encodes = False
            emit(
                "roundtrip-divergence", index, uop.mnemonic,
                f"encode→decode failed: {encode_error}",
            )
            continue
        if decode_error is not None:
            emit(
                "roundtrip-divergence", index, uop.mnemonic,
                f"encode→decode failed: {decode_error}",
            )
            _undecodable_word(index, word, decode_error, emit_word)
            continue
        if decoded != uop:
            emit(
                "roundtrip-divergence", index, uop.mnemonic,
                f"decode({{encode}}) returned {decoded!r} instead of {uop!r}",
            )
        _check_mode_flag(index, word, decoded, emit_word)
    if stream_encodes:
        for finding in word_findings:
            emit(*finding)


def _pass_local_roundtrip(program: MicroProgram, emit) -> None:
    for pv, buffer in enumerate(program.local_uops):
        for index, uop in enumerate(buffer):
            try:
                decoded = decode_local_uop(encode_local_uop(uop))
            except Exception as exc:
                emit(
                    "roundtrip-divergence", -1, f"local[pv{pv}][{index}]",
                    f"encode→decode failed: {exc}",
                )
                continue
            if decoded != uop:
                emit(
                    "roundtrip-divergence", -1, f"local[pv{pv}][{index}]",
                    f"decode({{encode}}) returned {decoded!r} instead of {uop!r}",
                )


def _pass_words(words: Sequence[int], num_pvs: int, emit) -> None:
    for index, word in enumerate(words):
        try:
            decoded = decode_global_uop(word, num_pvs=num_pvs)
        except Exception as exc:
            _undecodable_word(index, word, exc, emit)
            continue
        _check_mode_flag(index, word, decoded, emit)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_program(
    program: MicroProgram,
    model: Optional[MachineModel] = None,
    *,
    config: Optional[ArchitectureConfig] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every registered pass over one micro-program.

    ``model`` defaults to the paper-default geometry (via ``config``).
    ``select`` restricts the returned findings to a subset of check ids;
    an id not in :data:`CATALOG` raises :class:`~repro.errors.ReproError`.
    Findings come back ordered by global µop index (program-level findings
    first carry index -1).
    """
    collect = _Collector(program.name, select)
    if model is None:
        model = MachineModel.from_config(config, num_pvs=program.num_pvs)
    _pass_structure(program, model, collect)
    dispatched = _pass_interpret(program, model, collect)
    _pass_dead_uops(program, dispatched, collect)
    _pass_global_words(program, collect)
    _pass_local_roundtrip(program, collect)
    return sorted(collect.findings, key=lambda f: (f.index, f.check_id))


def verify_words(
    words: Sequence[int],
    *,
    num_pvs: int,
    program_name: str = "<words>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Word-level verification of an encoded global stream.

    Catches corrupted stored program images: undecodable words and
    SIMD/MIMD mode bits inconsistent with the word's opcode group.
    """
    collect = _Collector(program_name, select)
    _pass_words(words, num_pvs, collect)
    return collect.findings
