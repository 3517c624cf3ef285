"""Unit tests for the GANAX µop ISA: definitions, encoding, assembler, programs."""

from __future__ import annotations

import pytest

from repro.errors import AssemblerError, IsaError, ProgramError
from repro.isa.assembler import assemble, assemble_line, disassemble, disassemble_uop
from repro.isa.encoding import (
    GLOBAL_UOP_BITS,
    LOCAL_UOP_BITS,
    decode_global_uop,
    decode_local_uop,
    encode_global_uop,
    encode_local_uop,
    is_mimd_word,
)
from repro.isa.program import MicroProgram, MicroProgramBuilder
from repro.isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)


class TestUopDefinitions:
    def test_access_cfg_fields(self):
        uop = AccessCfg(
            pv_index=3,
            generator=AddressGenerator.WEIGHT,
            register=ConfigRegister.STEP,
            immediate=7,
        )
        assert uop.mnemonic == "access.cfg"
        assert uop.is_access and not uop.is_mimd

    def test_access_cfg_rejects_wide_immediate(self):
        with pytest.raises(IsaError):
            AccessCfg(
                pv_index=0,
                generator=AddressGenerator.INPUT,
                register=ConfigRegister.ADDR,
                immediate=1 << 16,
            )

    def test_execute_uop_groups(self):
        mac = ExecuteUop(op=ExecuteOp.MAC)
        assert not mac.is_access and not mac.is_mimd
        assert mac.mnemonic == "mac"

    def test_act_requires_known_activation(self):
        with pytest.raises(IsaError):
            ExecuteUop(op=ExecuteOp.ACT, activation="swish")

    def test_repeat_rejects_negative(self):
        with pytest.raises(IsaError):
            RepeatUop(count=-1)

    def test_mimd_load_register_validation(self):
        with pytest.raises(IsaError):
            MimdLoad(pv_index=0, destination="bogus", immediate=1)

    def test_mimd_exe_requires_indices(self):
        with pytest.raises(IsaError):
            MimdExecute(local_indices=())


class TestEncoding:
    LOCAL_UOPS = [
        ExecuteUop(op=ExecuteOp.ADD),
        ExecuteUop(op=ExecuteOp.MUL),
        ExecuteUop(op=ExecuteOp.MAC),
        ExecuteUop(op=ExecuteOp.POOL),
        ExecuteUop(op=ExecuteOp.ACT, activation="tanh"),
        ExecuteUop(op=ExecuteOp.ACT, activation="sigmoid"),
        ExecuteUop(op=ExecuteOp.NOP),
        RepeatUop(count=0),
        RepeatUop(count=37),
    ]

    @pytest.mark.parametrize("uop", LOCAL_UOPS, ids=lambda u: repr(u))
    def test_local_roundtrip(self, uop):
        word = encode_local_uop(uop)
        assert 0 <= word < (1 << LOCAL_UOP_BITS)
        assert decode_local_uop(word) == uop

    GLOBAL_UOPS = [
        AccessCfg(pv_index=5, generator=AddressGenerator.OUTPUT,
                  register=ConfigRegister.REPEAT, immediate=1023),
        AccessStart(pv_index=15, generator=AddressGenerator.INPUT),
        AccessStop(pv_index=0, generator=AddressGenerator.WEIGHT),
        MimdLoad(pv_index=7, destination="repeat", immediate=255),
        MimdExecute(local_indices=tuple(range(16))),
        ExecuteUop(op=ExecuteOp.MAC),
        RepeatUop(count=12),
    ]

    @pytest.mark.parametrize("uop", GLOBAL_UOPS, ids=lambda u: repr(u))
    def test_global_roundtrip(self, uop):
        word = encode_global_uop(uop, num_pvs=16)
        # 64-bit payload plus a small opcode/mode sideband.
        assert 0 <= word < (1 << (GLOBAL_UOP_BITS + 5))
        assert decode_global_uop(word, num_pvs=16) == uop

    def test_mode_bit_distinguishes_mimd(self):
        simd_word = encode_global_uop(ExecuteUop(op=ExecuteOp.MAC))
        mimd_word = encode_global_uop(MimdExecute(local_indices=(0,) * 16))
        assert not is_mimd_word(simd_word)
        assert is_mimd_word(mimd_word)

    def test_mimd_exe_index_field_width(self):
        # Indices wider than 4 bits cannot be encoded (paper: 4 bits per PV).
        with pytest.raises(IsaError):
            encode_global_uop(MimdExecute(local_indices=(16,)), num_pvs=16)

    def test_mimd_exe_too_many_pvs(self):
        with pytest.raises(IsaError):
            encode_global_uop(MimdExecute(local_indices=(0,) * 17), num_pvs=17)

    def test_encoded_sizes(self):
        # Every local µop fits the 16-bit local word; sixteen 4-bit mimd.exe
        # indices exactly fill the 64-bit global payload below the mode flag.
        local = [ExecuteUop(op=op) for op in ExecuteOp] + [RepeatUop(count=(1 << 12) - 1)]
        assert all(0 <= encode_local_uop(uop) < 1 << LOCAL_UOP_BITS for uop in local)
        mimd_word = encode_global_uop(MimdExecute(local_indices=(15,) * 16), num_pvs=16)
        assert (mimd_word & ((1 << GLOBAL_UOP_BITS) - 1)).bit_length() == GLOBAL_UOP_BITS

    def test_decode_rejects_out_of_range_words(self):
        with pytest.raises(IsaError):
            decode_local_uop(1 << 16)
        with pytest.raises(IsaError):
            decode_global_uop(1 << 72)

    @pytest.mark.parametrize(
        "uop",
        [
            AccessCfg(pv_index=0, generator=AddressGenerator.INPUT,
                      register=ConfigRegister.ADDR, immediate=0),
            AccessStart(pv_index=0, generator=AddressGenerator.INPUT),
            AccessStop(pv_index=0, generator=AddressGenerator.INPUT),
        ],
        ids=lambda u: u.mnemonic,
    )
    @pytest.mark.parametrize("field", [5, 6, 7])
    def test_decode_rejects_unknown_generator_index(self, uop, field):
        word = encode_global_uop(uop) | (field << 24)
        with pytest.raises(IsaError, match=f"^unknown address generator index {field}$"):
            decode_global_uop(word)

    @pytest.mark.parametrize("field", [5, 6, 7])
    def test_decode_rejects_unknown_config_register_index(self, field):
        uop = AccessCfg(pv_index=0, generator=AddressGenerator.INPUT,
                        register=ConfigRegister.ADDR, immediate=0)
        word = encode_global_uop(uop) | (field << 28)
        with pytest.raises(
            IsaError, match=f"^unknown configuration register index {field}$"
        ):
            decode_global_uop(word)

    @pytest.mark.parametrize("num_pvs", [0, 17])
    def test_decode_rejects_pv_count_the_encoder_rejects(self, num_pvs):
        word = encode_global_uop(MimdExecute(local_indices=(1,) * 16), num_pvs=16)
        with pytest.raises(IsaError) as encoded:
            encode_global_uop(MimdExecute(local_indices=(1,)), num_pvs=num_pvs)
        with pytest.raises(IsaError) as decoded:
            decode_global_uop(word, num_pvs=num_pvs)
        assert str(decoded.value) == str(encoded.value)
        assert str(decoded.value) == f"cannot encode indices for {num_pvs} PVs in 64 bits"

    def test_access_cfg_cannot_be_local(self):
        with pytest.raises(IsaError):
            encode_local_uop(
                AccessCfg(pv_index=0, generator=AddressGenerator.INPUT,
                          register=ConfigRegister.ADDR, immediate=0)
            )


class TestAssembler:
    def test_assemble_access_cfg(self):
        uop = assemble_line("access.cfg %pv2, %gen1, %step, 4")
        assert uop == AccessCfg(
            pv_index=2,
            generator=AddressGenerator.WEIGHT,
            register=ConfigRegister.STEP,
            immediate=4,
        )

    def test_assemble_named_generators(self):
        uop = assemble_line("access.start %pv0, %input")
        assert uop == AccessStart(pv_index=0, generator=AddressGenerator.INPUT)

    def test_assemble_mimd_exe(self):
        uop = assemble_line("mimd.exe 0, 1, 2, 3")
        assert uop == MimdExecute(local_indices=(0, 1, 2, 3))

    def test_assemble_act_with_activation(self):
        uop = assemble_line("act tanh")
        assert uop == ExecuteUop(op=ExecuteOp.ACT, activation="tanh")

    def test_assemble_repeat_default_count(self):
        assert assemble_line("repeat") == RepeatUop(count=0)

    def test_comments_and_blank_lines_skipped(self):
        uops = assemble("""
        # a comment
        mac
        ; another comment
        add
        """)
        assert [u.mnemonic for u in uops] == ["mac", "add"]

    def test_line_numbers_in_errors(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("mac\nbogus.op")

    def test_unknown_register_raises(self):
        with pytest.raises(AssemblerError):
            assemble_line("access.cfg %pv0, %gen0, %count, 1")

    def test_mac_with_operands_raises(self):
        with pytest.raises(AssemblerError):
            assemble_line("mac %r1, %r2")

    def test_hex_immediates(self):
        uop = assemble_line("mimd.ld %pv1, %repeat, 0x10")
        assert uop == MimdLoad(pv_index=1, destination="repeat", immediate=16)

    ROUNDTRIP_UOPS = [
        AccessCfg(pv_index=1, generator=AddressGenerator.INPUT,
                  register=ConfigRegister.END, immediate=9),
        AccessStart(pv_index=2, generator=AddressGenerator.OUTPUT),
        AccessStop(pv_index=3, generator=AddressGenerator.WEIGHT),
        MimdLoad(pv_index=4, destination="repeat", immediate=12),
        MimdExecute(local_indices=(1, 0, 3)),
        RepeatUop(count=5),
        RepeatUop(count=0),
        ExecuteUop(op=ExecuteOp.MAC),
        ExecuteUop(op=ExecuteOp.ACT, activation="leaky_relu"),
        ExecuteUop(op=ExecuteOp.POOL),
    ]

    @pytest.mark.parametrize("uop", ROUNDTRIP_UOPS, ids=lambda u: repr(u))
    def test_disassemble_assemble_roundtrip(self, uop):
        text = disassemble_uop(uop)
        assert assemble_line(text) == uop

    def test_disassemble_multiline(self):
        uops = [ExecuteUop(op=ExecuteOp.MAC), RepeatUop(count=3)]
        text = disassemble(uops)
        assert assemble(text) == uops


class TestMicroProgram:
    def _simple_program(self) -> MicroProgram:
        builder = MicroProgramBuilder(name="p", num_pvs=2)
        mac_idx = builder.preload_local_everywhere(ExecuteUop(op=ExecuteOp.MAC))
        act_idx = builder.preload_local_everywhere(ExecuteUop(op=ExecuteOp.ACT, activation="identity"))
        builder.emit_access_cfg(0, AddressGenerator.INPUT, ConfigRegister.END, 4)
        builder.emit_access_start(0, AddressGenerator.INPUT)
        builder.emit_mimd_load(1, "repeat", 4)
        builder.emit_mimd([mac_idx[0], act_idx[1]])
        builder.emit(ExecuteUop(op=ExecuteOp.MAC))
        return builder.build()

    def test_builder_produces_valid_program(self):
        program = self._simple_program()
        assert program.num_pvs == 2
        assert program.num_global_uops == 5
        assert program.max_local_buffer_entries == 2

    def test_preload_deduplicates(self):
        builder = MicroProgramBuilder(name="p", num_pvs=1)
        first = builder.preload_local(0, ExecuteUop(op=ExecuteOp.MAC))
        second = builder.preload_local(0, ExecuteUop(op=ExecuteOp.MAC))
        assert first == second

    def test_local_index_out_of_range_rejected(self):
        with pytest.raises(ProgramError):
            MicroProgram(
                name="bad",
                num_pvs=1,
                local_uops=((ExecuteUop(op=ExecuteOp.MAC),),),
                global_uops=(MimdExecute(local_indices=(3,)),),
            )

    def test_pv_index_out_of_range_rejected(self):
        with pytest.raises(ProgramError):
            MicroProgram(
                name="bad",
                num_pvs=1,
                local_uops=((),),
                global_uops=(AccessStart(pv_index=2, generator=AddressGenerator.INPUT),),
            )

    def test_wrong_arity_mimd_exe_rejected(self):
        with pytest.raises(ProgramError):
            MicroProgram(
                name="bad",
                num_pvs=2,
                local_uops=((ExecuteUop(op=ExecuteOp.MAC),),) * 2,
                global_uops=(MimdExecute(local_indices=(0,)),),
            )

    def test_access_uop_cannot_live_in_local_buffer(self):
        with pytest.raises(ProgramError):
            MicroProgram(
                name="bad",
                num_pvs=1,
                local_uops=((AccessStart(pv_index=0, generator=AddressGenerator.INPUT),),),
                global_uops=(),
            )

    def test_validate_against_buffers(self):
        program = self._simple_program()
        program.validate_against_buffers(local_entries=16)
        with pytest.raises(ProgramError):
            program.validate_against_buffers(local_entries=1)
        with pytest.raises(ProgramError):
            program.validate_against_buffers(local_entries=16, global_entries=2)

    def test_encoded_global_words(self):
        assert len(self._simple_program().encoded_global_words()) == 5

    def test_builder_rejects_bad_pv(self):
        builder = MicroProgramBuilder(name="p", num_pvs=1)
        with pytest.raises(ProgramError):
            builder.emit_access_start(3, AddressGenerator.INPUT)
