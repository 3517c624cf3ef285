"""Bit-level encoding of GANAX µops.

The paper fixes the geometry of the global µop buffer: 32 entries of 64 bits,
with four bits per PV used to index that PV's local µop buffer and one extra
bit selecting the execution model (SIMD or MIMD-SIMD) for the current
operation.  Local µops are small (the execute group has no operand fields), so
we encode them in 16 bits.

The encoding here is a concrete, reversible realisation of that description.
Round-tripping (``decode(encode(uop)) == uop``) is property-tested; the cycle
level machine itself operates on the dataclass µops and only uses the encoder
to size buffers and to charge µop-fetch energy, exactly like the real design
would fetch encoded words.

The decoders validate every field they read (opcode, PV count, generator,
configuration register, ``mimd.ld`` register, execute op, activation) and
raise :class:`~repro.errors.IsaError` for any value the encoder could not
have produced, so a corrupted stored word never escapes as a bare
``ValueError``.

Global µop word layout::

    bits 63..0   : the 64-bit payload of the paper's global µop entry
      SIMD mode  : bits 15..0 hold the encoded local µop broadcast to all PEs,
                   bits 23..16 hold a PV index where relevant,
                   bits 47..32 hold a 16-bit immediate,
                   bits 26..24 hold an address-generator index,
                   bits 30..28 hold a configuration-register index.
      MIMD mode  : bits 4*i+3 .. 4*i hold the local µop buffer index for PV i
                   (16 PVs x 4 bits fill the 64-bit entry, as in the paper).
    bits 67..64  : opcode (sideband, analogous to the buffer's control bits)
    bit  68      : mode (0 = SIMD, 1 = MIMD-SIMD) — the paper's "extra one
                   bit in the global µops" that selects the execution model.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import IsaError
from .uops import (
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

#: Number of bits of one encoded global µop (paper: 64).
GLOBAL_UOP_BITS = 64

#: Number of bits of one encoded local µop.
LOCAL_UOP_BITS = 16

#: Bits of the global µop used per PV to index its local buffer (paper: 4).
PV_INDEX_FIELD_BITS = 4

_PV_INDEX_MASK = (1 << PV_INDEX_FIELD_BITS) - 1
_MODE_SHIFT = 68
_OPCODE_SHIFT = 64
_OPCODE_MASK = 0xF

#: Total bits of an encoded word including the opcode/mode sideband.
ENCODED_GLOBAL_WORD_BITS = 69

# Opcodes for the global encoding.
_OP_EXEC = 0x0
_OP_REPEAT = 0x1
_OP_MIMD_LD = 0x2
_OP_MIMD_EXE = 0x3
_OP_ACCESS_CFG = 0x4
_OP_ACCESS_START = 0x5
_OP_ACCESS_STOP = 0x6

# Decode tables: field value -> enum member (a dict lookup, not an enum call).
_GENERATOR_BY_INDEX = {int(generator): generator for generator in AddressGenerator}
_REGISTER_BY_INDEX = {register.value: register for register in ConfigRegister}

# Local (16-bit) encoding: bits 15..12 opcode, 11..8 op kind, 7..0 payload.
_LOCAL_EXEC_OPCODE = 0x0
_LOCAL_REPEAT_OPCODE = 0x1
_EXEC_OP_CODES = {
    ExecuteOp.ADD: 0x0,
    ExecuteOp.MUL: 0x1,
    ExecuteOp.MAC: 0x2,
    ExecuteOp.POOL: 0x3,
    ExecuteOp.ACT: 0x4,
    ExecuteOp.NOP: 0x5,
}
_EXEC_OP_REVERSE = {v: k for k, v in _EXEC_OP_CODES.items()}
_ACTIVATION_CODES = {"relu": 0, "leaky_relu": 1, "tanh": 2, "sigmoid": 3, "identity": 4}
_ACTIVATION_REVERSE = {v: k for k, v in _ACTIVATION_CODES.items()}


# ----------------------------------------------------------------------
# Local µop encoding
# ----------------------------------------------------------------------
def encode_local_uop(uop: MicroOp) -> int:
    """Encode a local-buffer µop (execute group) into a 16-bit word."""
    if isinstance(uop, ExecuteUop):
        payload = _ACTIVATION_CODES[uop.activation] if uop.op is ExecuteOp.ACT else 0
        return (
            (_LOCAL_EXEC_OPCODE << 12)
            | (_EXEC_OP_CODES[uop.op] << 8)
            | (payload & 0xFF)
        )
    if isinstance(uop, RepeatUop):
        if uop.count >= (1 << 12):
            raise IsaError(f"repeat count {uop.count} does not fit in 12 bits")
        return (_LOCAL_REPEAT_OPCODE << 12) | uop.count
    raise IsaError(f"µop {uop!r} cannot live in a local µop buffer")


def decode_local_uop(word: int) -> MicroOp:
    """Decode a 16-bit local µop word."""
    if not (0 <= word < (1 << LOCAL_UOP_BITS)):
        raise IsaError(f"local µop word {word:#x} does not fit in {LOCAL_UOP_BITS} bits")
    opcode = (word >> 12) & 0xF
    if opcode == _LOCAL_EXEC_OPCODE:
        op_code = (word >> 8) & 0xF
        if op_code not in _EXEC_OP_REVERSE:
            raise IsaError(f"unknown execute op code {op_code:#x}")
        op = _EXEC_OP_REVERSE[op_code]
        payload = word & 0xFF
        if op is ExecuteOp.ACT:
            if payload not in _ACTIVATION_REVERSE:
                raise IsaError(f"unknown activation code {payload:#x}")
            return ExecuteUop(op=op, activation=_ACTIVATION_REVERSE[payload])
        return ExecuteUop(op=op)
    if opcode == _LOCAL_REPEAT_OPCODE:
        return RepeatUop(count=word & 0xFFF)
    raise IsaError(f"unknown local µop opcode {opcode:#x}")


# ----------------------------------------------------------------------
# Global µop encoding
# ----------------------------------------------------------------------
def _check_num_pvs(num_pvs: int) -> None:
    """Both directions share one rule: 4-bit PV indices fill at most 64 bits."""
    if num_pvs <= 0 or num_pvs * PV_INDEX_FIELD_BITS > GLOBAL_UOP_BITS:
        raise IsaError(f"cannot encode indices for {num_pvs} PVs in 64 bits")


def encode_global_uop(uop: MicroOp, num_pvs: int = 16) -> int:
    """Encode a global-buffer µop into its 64-bit entry plus sideband bits."""
    _check_num_pvs(num_pvs)
    if isinstance(uop, MimdExecute):
        if len(uop.local_indices) > num_pvs:
            raise IsaError(
                f"mimd.exe carries {len(uop.local_indices)} indices but the "
                f"encoding supports only {num_pvs} PVs"
            )
        word = (1 << _MODE_SHIFT) | (_OP_MIMD_EXE << _OPCODE_SHIFT)
        for pv, index in enumerate(uop.local_indices):
            if index >= (1 << PV_INDEX_FIELD_BITS):
                raise IsaError(
                    f"local µop index {index} does not fit in "
                    f"{PV_INDEX_FIELD_BITS} bits"
                )
            word |= index << (PV_INDEX_FIELD_BITS * pv)
        return word

    if isinstance(uop, MimdLoad):
        word = (1 << _MODE_SHIFT) | (_OP_MIMD_LD << _OPCODE_SHIFT)
        word |= (uop.pv_index & 0xFF) << 16
        word |= (uop.immediate & 0xFFFF) << 32
        registers = MimdLoad._REGISTERS
        word |= (registers.index(uop.destination) & 0x7) << 24
        return word

    if isinstance(uop, AccessCfg):
        word = _OP_ACCESS_CFG << _OPCODE_SHIFT
        word |= (uop.pv_index & 0xFF) << 16
        word |= (int(uop.generator) & 0x7) << 24
        word |= (uop.register.value & 0x7) << 28
        word |= (uop.immediate & 0xFFFF) << 32
        return word

    if isinstance(uop, (AccessStart, AccessStop)):
        opcode = _OP_ACCESS_START if isinstance(uop, AccessStart) else _OP_ACCESS_STOP
        word = opcode << _OPCODE_SHIFT
        word |= (uop.pv_index & 0xFF) << 16
        word |= (int(uop.generator) & 0x7) << 24
        return word

    if isinstance(uop, (ExecuteUop, RepeatUop)):
        # SIMD broadcast of a local µop: mode bit 0, local encoding in 15..0.
        opcode = _OP_REPEAT if isinstance(uop, RepeatUop) else _OP_EXEC
        return (opcode << _OPCODE_SHIFT) | encode_local_uop(uop)

    raise IsaError(f"µop {uop!r} cannot live in the global µop buffer")


def _generator(word: int) -> AddressGenerator:
    index = (word >> 24) & 0x7
    generator = _GENERATOR_BY_INDEX.get(index)
    if generator is None:
        raise IsaError(f"unknown address generator index {index}")
    return generator


def _config_register(word: int) -> ConfigRegister:
    index = (word >> 28) & 0x7
    register = _REGISTER_BY_INDEX.get(index)
    if register is None:
        raise IsaError(f"unknown configuration register index {index}")
    return register


def decode_global_uop(word: int, num_pvs: int = 16) -> MicroOp:
    """Decode a global µop word produced by :func:`encode_global_uop`."""
    _check_num_pvs(num_pvs)
    if not (0 <= word < (1 << ENCODED_GLOBAL_WORD_BITS)):
        raise IsaError(
            f"global µop word does not fit in {ENCODED_GLOBAL_WORD_BITS} bits"
        )
    opcode = (word >> _OPCODE_SHIFT) & _OPCODE_MASK

    # About four in five µops of a compiled stream are access.cfg: test it first.
    if opcode == _OP_ACCESS_CFG:
        return AccessCfg(
            pv_index=(word >> 16) & 0xFF,
            generator=_generator(word),
            register=_config_register(word),
            immediate=(word >> 32) & 0xFFFF,
        )
    if opcode == _OP_MIMD_EXE:
        return MimdExecute(
            local_indices=tuple(
                (word >> shift) & _PV_INDEX_MASK
                for shift in range(0, PV_INDEX_FIELD_BITS * num_pvs, PV_INDEX_FIELD_BITS)
            )
        )
    if opcode == _OP_ACCESS_START:
        return AccessStart(pv_index=(word >> 16) & 0xFF, generator=_generator(word))
    if opcode == _OP_ACCESS_STOP:
        return AccessStop(pv_index=(word >> 16) & 0xFF, generator=_generator(word))
    if opcode == _OP_MIMD_LD:
        registers = MimdLoad._REGISTERS
        reg_index = (word >> 24) & 0x7
        if reg_index >= len(registers):
            raise IsaError(f"unknown mimd.ld register index {reg_index}")
        return MimdLoad(
            pv_index=(word >> 16) & 0xFF,
            destination=registers[reg_index],
            immediate=(word >> 32) & 0xFFFF,
        )
    if opcode == _OP_EXEC or opcode == _OP_REPEAT:
        # SIMD broadcast of a local µop.
        return decode_local_uop(word & 0xFFFF)
    raise IsaError(f"unknown global µop opcode {opcode:#x}")


def is_mimd_word(word: int) -> bool:
    """The 1-bit mode field: True when the word is a MIMD-SIMD µop."""
    return bool((word >> _MODE_SHIFT) & 0x1)
