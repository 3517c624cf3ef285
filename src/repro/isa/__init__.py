"""The GANAX µop instruction set: definitions, encoding, assembler, programs."""

from .assembler import assemble, assemble_line, disassemble, disassemble_uop
from .encoding import (
    GLOBAL_UOP_BITS,
    LOCAL_UOP_BITS,
    PV_INDEX_FIELD_BITS,
    decode_global_uop,
    decode_local_uop,
    encode_global_uop,
    encode_local_uop,
    is_mimd_word,
)
from .program import MicroProgram, MicroProgramBuilder
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

__all__ = [
    "assemble",
    "assemble_line",
    "disassemble",
    "disassemble_uop",
    "GLOBAL_UOP_BITS",
    "LOCAL_UOP_BITS",
    "PV_INDEX_FIELD_BITS",
    "decode_global_uop",
    "decode_local_uop",
    "encode_global_uop",
    "encode_local_uop",
    "is_mimd_word",
    "MicroProgram",
    "MicroProgramBuilder",
    "AccessCfg",
    "AccessStart",
    "AccessStop",
    "AddressGenerator",
    "ConfigRegister",
    "ExecuteOp",
    "ExecuteUop",
    "MicroOp",
    "MimdExecute",
    "MimdLoad",
    "RepeatUop",
]
