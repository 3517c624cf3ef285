"""The static µop-program verifier and the repo lints.

The centrepiece is the mutation-coverage suite: for EVERY check id in the
catalog there is a deliberately corrupted program that must trigger exactly
that check — so a verifier pass can never silently stop detecting anything.
"""

from __future__ import annotations

import textwrap
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from repro.errors import IsaError, ProgramEncodingError
from repro.isa.encoding import encode_global_uop
from repro.isa.program import MicroProgram
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
from repro.staticcheck import (
    CATALOG,
    LintError,
    MachineModel,
    Severity,
    check_binding,
    check_ids,
    run_check_grid,
    run_lints,
    verify_program,
    verify_words,
)

INPUT = AddressGenerator.INPUT
WEIGHT = AddressGenerator.WEIGHT
OUTPUT = AddressGenerator.OUTPUT

MAC = ExecuteUop(op=ExecuteOp.MAC)
ACT = ExecuteUop(op=ExecuteOp.ACT, activation="identity")
NOP = ExecuteUop(op=ExecuteOp.NOP)


def cfg_block(generator, *, pv=0, addr=0, offset=0, step=1, end=2, repeat=1):
    """The canonical five-cfg-then-start sequence for one generator."""
    return [
        AccessCfg(pv_index=pv, generator=generator, register=ConfigRegister.ADDR, immediate=addr),
        AccessCfg(pv_index=pv, generator=generator, register=ConfigRegister.OFFSET, immediate=offset),
        AccessCfg(pv_index=pv, generator=generator, register=ConfigRegister.STEP, immediate=step),
        AccessCfg(pv_index=pv, generator=generator, register=ConfigRegister.END, immediate=end),
        AccessCfg(pv_index=pv, generator=generator, register=ConfigRegister.REPEAT, immediate=repeat),
        AccessStart(pv_index=pv, generator=generator),
    ]


def make_program(global_uops, local=(), num_pvs=1, name="t"):
    return MicroProgram(
        name=name,
        num_pvs=num_pvs,
        local_uops=tuple(tuple(buffer) for buffer in local)
        or tuple(() for _ in range(num_pvs)),
        global_uops=tuple(global_uops),
    )


def valid_program():
    """A single-PV program that drains every address it produces."""
    stream = (
        cfg_block(INPUT, end=2)
        + cfg_block(WEIGHT, end=2)
        + cfg_block(OUTPUT, end=1)
        + [RepeatUop(count=2), MAC, ACT]
    )
    return make_program(stream)


def _unsafe_replace_stream(program, global_uops):
    """Swap in a µop stream bypassing MicroProgram's own validation, to
    reach the verifier checks that guard against corrupted images."""
    object.__setattr__(program, "global_uops", tuple(global_uops))
    return program


def ids_of(findings):
    return {finding.check_id for finding in findings}


# ----------------------------------------------------------------------
# Baseline behaviour
# ----------------------------------------------------------------------
class TestVerifierBaseline:
    def test_valid_program_is_clean(self):
        assert verify_program(valid_program()) == []

    def test_findings_are_ordered_and_attributed(self):
        program = make_program(
            [AccessStop(pv_index=0, generator=INPUT), AccessStop(pv_index=0, generator=WEIGHT)]
        )
        findings = verify_program(program)
        assert [f.index for f in findings] == [0, 1]
        assert all(f.check_id == "stop-without-start" for f in findings)
        assert all(f.program == "t" for f in findings)
        assert all(f.mnemonic == "access.stop" for f in findings)

    def test_finding_renders_index_mnemonic_check_and_message(self):
        finding = verify_program(
            make_program([AccessStop(pv_index=0, generator=INPUT)])
        )[0]
        rendered = str(finding)
        assert "stop-without-start" in rendered
        assert "[0] access.stop" in rendered
        record = finding.describe()
        assert record["severity"] == "error"
        assert record["index"] == 0

    def test_select_restricts_check_ids(self):
        program = make_program([AccessStop(pv_index=0, generator=INPUT)])
        assert verify_program(program, select=["dead-uop"]) == []
        assert ids_of(verify_program(program, select=["stop-without-start"])) == {
            "stop-without-start"
        }

    def test_severities(self):
        assert verify_program(valid_program()) == []
        errors = verify_program(make_program([MAC]))
        assert any(f.severity is Severity.ERROR for f in errors)

    def test_catalog_ids_are_stable(self):
        assert check_ids() == tuple(sorted(CATALOG))
        assert len(CATALOG) == 16


# ----------------------------------------------------------------------
# Mutation coverage: every check id must fire on a corrupted program
# ----------------------------------------------------------------------
def _mutant_cfg_def_before_use():
    return make_program([AccessStart(pv_index=0, generator=INPUT)])


def _mutant_cfg_invalid_at_start():
    return make_program(cfg_block(INPUT, step=3, end=2))  # Step > End


def _mutant_reconfigure_running():
    stream = cfg_block(INPUT, end=2) + [
        AccessCfg(pv_index=0, generator=INPUT, register=ConfigRegister.END, immediate=4)
    ]
    return make_program(stream)


def _mutant_stop_without_start():
    return make_program([AccessStop(pv_index=0, generator=INPUT)])


def _mutant_addr_range_overflow():
    return make_program(cfg_block(INPUT, offset=10_000, end=2))


def _mutant_pv_index_range():
    return _unsafe_replace_stream(
        valid_program(),
        [AccessCfg(pv_index=9, generator=INPUT, register=ConfigRegister.ADDR, immediate=0)],
    )


def _mutant_local_index_range():
    program = make_program([], local=[[MAC]])
    return _unsafe_replace_stream(program, [MimdExecute(local_indices=(3,))])


def _mutant_local_buffer_overflow():
    overful = [RepeatUop(count=n + 1) for n in range(17)]  # 17 distinct > 16 entries
    return make_program([], local=[overful])


def _mutant_repeat_count():
    return make_program([MimdLoad(pv_index=0, destination="repeat", immediate=0)])


def _mutant_repeat_default():
    stream = (
        cfg_block(INPUT, end=1)
        + cfg_block(WEIGHT, end=1)
        + [RepeatUop(count=0), MAC]
    )
    return make_program(stream)


def _mutant_repeat_pairing():
    return make_program([RepeatUop(count=2), RepeatUop(count=2)])


def _mutant_execute_starved():
    return make_program([MAC])  # nothing started, nothing to consume


def _mutant_unconsumed_addresses():
    return make_program(cfg_block(INPUT, end=2))


def _mutant_dead_uop():
    return make_program([], local=[[MAC]])


def _mutant_roundtrip_divergence():
    bad_act = ExecuteUop(op=ExecuteOp.ACT, activation="identity")
    object.__setattr__(bad_act, "activation", "swish")  # unknown activation
    return make_program([bad_act])


MUTANTS = {
    "cfg-def-before-use": _mutant_cfg_def_before_use,
    "cfg-invalid-at-start": _mutant_cfg_invalid_at_start,
    "reconfigure-running": _mutant_reconfigure_running,
    "stop-without-start": _mutant_stop_without_start,
    "addr-range-overflow": _mutant_addr_range_overflow,
    "pv-index-range": _mutant_pv_index_range,
    "local-index-range": _mutant_local_index_range,
    "local-buffer-overflow": _mutant_local_buffer_overflow,
    "repeat-count": _mutant_repeat_count,
    "repeat-default": _mutant_repeat_default,
    "repeat-pairing": _mutant_repeat_pairing,
    "execute-starved": _mutant_execute_starved,
    "unconsumed-addresses": _mutant_unconsumed_addresses,
    "dead-uop": _mutant_dead_uop,
    "roundtrip-divergence": _mutant_roundtrip_divergence,
}


class TestMutationCoverage:
    @pytest.mark.parametrize("check_id", sorted(MUTANTS))
    def test_corrupted_program_triggers_check(self, check_id):
        findings = verify_program(MUTANTS[check_id]())
        assert check_id in ids_of(findings), (
            f"mutant for {check_id} produced {sorted(ids_of(findings))}"
        )

    def test_mode_flag_fires_on_flipped_mode_bit(self):
        # mode-flag lives at the word level: flip bit 68 of an encoded
        # access word so the mode bit contradicts the opcode group.
        word = encode_global_uop(
            AccessStart(pv_index=0, generator=INPUT), num_pvs=1
        )
        corrupted = word | (1 << 68)
        findings = verify_words([corrupted], num_pvs=1)
        assert ids_of(findings) == {"mode-flag"}
        assert verify_words([word], num_pvs=1) == []

    def test_malformed_generator_field_is_an_undecodable_word(self):
        word = encode_global_uop(
            AccessStart(pv_index=0, generator=INPUT), num_pvs=1
        ) | (7 << 24)
        assert _as_tuples(verify_words([word], num_pvs=1)) == [
            ("roundtrip-divergence", 0, f"word {word:#x}",
             "encoded word does not decode: unknown address generator index 7"),
        ]

    def test_every_catalog_id_has_a_mutant(self):
        assert set(MUTANTS) | {"mode-flag"} == set(check_ids())

    def test_trailing_repeat_is_a_pairing_error(self):
        findings = verify_program(make_program([RepeatUop(count=2)]))
        assert "repeat-pairing" in ids_of(findings)

    def test_oversized_repeat_count_is_flagged(self):
        findings = verify_program(make_program([RepeatUop(count=1 << 12), MAC]))
        assert "repeat-count" in ids_of(findings)

    def test_restart_after_drain_is_legal(self):
        stream = (
            cfg_block(INPUT, end=1)
            + cfg_block(WEIGHT, end=1)
            + [MAC]
            + cfg_block(INPUT, end=1)
            + cfg_block(WEIGHT, end=1)
            + [MAC]
        )
        assert verify_program(make_program(stream)) == []

    def test_mimd_load_seeds_repeat_register(self):
        stream = (
            cfg_block(INPUT, end=3)
            + cfg_block(WEIGHT, end=3)
            + [MimdLoad(pv_index=0, destination="repeat", immediate=3)]
            + [RepeatUop(count=0), MAC]
        )
        assert verify_program(make_program(stream)) == []


# ----------------------------------------------------------------------
# Pinned findings: the exact (check_id, index, mnemonic, message) list of
# every mutant, so restructuring the passes cannot reorder or reword them
# ----------------------------------------------------------------------
_UNCONSUMED_INPUT = (
    "unconsumed-addresses", 5, "access.start",
    "PV 0 INPUT generator ends the program with 2 produced address(es) never "
    "consumed; the machine would not drain",
)


def _dead(index, mnemonic):
    return (
        "dead-uop", -1, f"local[pv0][{index}]",
        f"PV 0 local µop {index} ({mnemonic}) is preloaded but never "
        "dispatched by any mimd.exe",
    )


def _starved(index, mnemonic, count, generator):
    return (
        "execute-starved", index, mnemonic,
        f"PV 0 {mnemonic} consumes {count} {generator} address(es) but only 0 "
        "were produced; the execute engine would stall forever",
    )


PINNED_FINDINGS = {
    "addr-range-overflow": [
        ("addr-range-overflow", 5, "access.start",
         "PV 0 INPUT pattern reaches address 10001 but the PE buffer holds 64 words"),
        _UNCONSUMED_INPUT,
    ],
    "cfg-def-before-use": [
        ("cfg-def-before-use", 0, "access.start",
         "PV 0 INPUT generator started with unwritten configuration registers: "
         "ADDR, OFFSET, STEP, END, REPEAT"),
    ],
    "cfg-invalid-at-start": [
        ("cfg-invalid-at-start", 5, "access.start",
         "PV 0 INPUT generator configuration is invalid: index generator Step (3) "
         "must not exceed End (2); the modulo adder wraps within [0, End)"),
    ],
    "dead-uop": [_dead(0, "mac")],
    "execute-starved": [
        _starved(0, "mac", 1, "INPUT"),
        _starved(0, "mac", 1, "WEIGHT"),
    ],
    "local-buffer-overflow": [_dead(i, "repeat") for i in range(17)] + [
        ("local-buffer-overflow", -1, "local[pv0]",
         "PV 0 preloads 17 local µops but the hardware provides 16 entries"),
    ],
    "local-index-range": [
        _dead(0, "mac"),
        ("local-index-range", 0, "mimd.exe",
         "PV 0 local index 3 points past the 1 preloaded entries"),
    ],
    "pv-index-range": [
        ("pv-index-range", 0, "access.cfg", "PV index 9 out of range for 1 PVs"),
    ],
    "reconfigure-running": [
        _UNCONSUMED_INPUT,
        ("reconfigure-running", 6, "access.cfg",
         "PV 0 INPUT generator is reconfigured with 2 produced addresses still "
         "unconsumed; the pattern in flight is clobbered"),
    ],
    "repeat-count": [
        ("repeat-count", 0, "mimd.ld",
         "mimd.ld loads repeat register with 0; the execute engine requires a "
         "positive count"),
    ],
    "repeat-default": [
        ("repeat-default", 12, "repeat",
         "PV 0 dispatches a count-0 repeat with no prior mimd.ld of the repeat "
         "register; the hardware falls back to the register's reset value of 1"),
    ],
    "repeat-pairing": [
        ("repeat-pairing", 1, "repeat",
         "PV 0 receives a repeat prefix while the repeat at global µop 0 still "
         "awaits its follower execute µop"),
        ("repeat-pairing", 1, "repeat",
         "PV 0 repeat prefix at global µop 1 is never followed by an execute µop"),
    ],
    "roundtrip-divergence": [
        ("execute-starved", 0, "act",
         "PV 0 act consumes 1 OUTPUT address(es) but only 0 were produced; the "
         "execute engine would stall forever"),
        ("roundtrip-divergence", 0, "act", "encode→decode failed: 'swish'"),
    ],
    "stop-without-start": [
        ("stop-without-start", 0, "access.stop",
         "PV 0 INPUT generator is stopped but was never started"),
    ],
    "unconsumed-addresses": [_UNCONSUMED_INPUT],
}

#: A stream whose first µop cannot be encoded (12-bit repeat field).
PINNED_UNENCODABLE = [
    ("repeat-count", 0, "repeat",
     "repeat count 4096 does not fit the 12-bit local encoding"),
    ("roundtrip-divergence", 0, "repeat",
     "encode→decode failed: repeat count 4096 does not fit in 12 bits"),
    _starved(1, "mac", 4096, "INPUT"),
    _starved(1, "mac", 4096, "WEIGHT"),
]


def _as_tuples(findings):
    return [(f.check_id, f.index, f.mnemonic, f.message) for f in findings]


class TestPinnedFindings:
    def test_every_mutant_is_pinned(self):
        assert set(PINNED_FINDINGS) == set(MUTANTS)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_findings_match_pinned_list(self, name):
        assert _as_tuples(verify_program(MUTANTS[name]())) == PINNED_FINDINGS[name]

    def test_unencodable_program_findings_match_pinned_list(self):
        program = make_program([RepeatUop(count=1 << 12), MAC])
        assert _as_tuples(verify_program(program)) == PINNED_UNENCODABLE

    def test_undecodable_word_is_reported_once_per_view(self):
        # A µop that encodes to a word no decoder accepts: the round trip
        # reports it under the µop, the stored-word check under the word.
        bad = AccessStart(pv_index=9, generator=INPUT)
        object.__setattr__(bad, "generator", 7)
        program = _unsafe_replace_stream(make_program([]), [bad])
        word = "word 0x50000000007090000"
        assert _as_tuples(verify_program(program)) == [
            ("pv-index-range", 0, "access.start", "PV index 9 out of range for 1 PVs"),
            ("roundtrip-divergence", 0, "access.start",
             "encode→decode failed: unknown address generator index 7"),
            ("roundtrip-divergence", 0, word,
             "encoded word does not decode: unknown address generator index 7"),
        ]
        # Once any µop fails to encode there is no stored image, so the
        # word-level finding is dropped and only the round trip remains.
        _unsafe_replace_stream(program, [bad, RepeatUop(count=1 << 12), MAC])
        assert _as_tuples(verify_program(program)) == [
            ("pv-index-range", 0, "access.start", "PV index 9 out of range for 1 PVs"),
            ("roundtrip-divergence", 0, "access.start",
             "encode→decode failed: unknown address generator index 7"),
            ("repeat-count", 1, "repeat",
             "repeat count 4096 does not fit the 12-bit local encoding"),
            ("roundtrip-divergence", 1, "repeat",
             "encode→decode failed: repeat count 4096 does not fit in 12 bits"),
            _starved(2, "mac", 4096, "INPUT"),
            _starved(2, "mac", 4096, "WEIGHT"),
        ]

    def test_each_global_uop_is_encoded_and_decoded_once(self, monkeypatch):
        from repro.core.compiler import compile_layer_programs
        from repro.staticcheck import checks
        from repro.workloads.registry import get_workload

        binding = next(
            b for b in get_workload("dcgan").generator.bindings if b.is_transposed
        )
        program = compile_layer_programs(
            binding, num_pvs=16, pes_per_pv=16, skip_zeros=True,
            max_waves=1, max_columns=4,
        )[0]
        calls = {"encode": 0, "decode": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            checks, "encode_global_uop", counted("encode", checks.encode_global_uop)
        )
        monkeypatch.setattr(
            checks, "decode_global_uop", counted("decode", checks.decode_global_uop)
        )
        assert verify_program(program) == []
        distinct = len(set(program.global_uops))
        assert 0 < distinct < len(program.global_uops)
        assert calls == {"encode": distinct, "decode": distinct}


# ----------------------------------------------------------------------
# The verifier's per-program memos: an outcome is shared only between
# exactly typed twins, and every repeat still reports at its own index.
# Expected findings were captured from the verifier before it memoized.
# ----------------------------------------------------------------------
def _corrupt(uop, **fields):
    for name, value in fields.items():
        object.__setattr__(uop, name, value)
    return uop


def _type_twins_program():
    """Each µop after the first of a group equals an earlier one under
    dataclass equality but not in type: a float immediate (the ``end=2.0``
    block and index 14), a plain-int generator (16), a bool pv_index (17,
    and 19 beside its int twin 18)."""
    end = ConfigRegister.END
    stream = (
        cfg_block(INPUT, end=2)
        + [AccessStop(pv_index=0, generator=INPUT)]
        + cfg_block(INPUT, end=2.0)
        + [
            AccessCfg(pv_index=0, generator=WEIGHT, register=ConfigRegister.ADDR, immediate=1),
            AccessCfg(pv_index=0, generator=WEIGHT, register=ConfigRegister.ADDR, immediate=1.0),
            AccessCfg(pv_index=1, generator=OUTPUT, register=ConfigRegister.STEP, immediate=3),
            AccessCfg(pv_index=1, generator=2, register=ConfigRegister.STEP, immediate=3),
            AccessCfg(pv_index=True, generator=OUTPUT, register=ConfigRegister.STEP, immediate=3),
            _corrupt(
                AccessCfg(pv_index=1, generator=OUTPUT, register=end, immediate=3),
                immediate=70_000,
            ),
            _corrupt(
                AccessCfg(pv_index=True, generator=OUTPUT, register=end, immediate=3),
                immediate=70_000,
            ),
        ]
    )
    return make_program(stream, num_pvs=2)


_FLOAT_ENCODE = "encode→decode failed: unsupported operand type(s) for &: 'float' and 'int'"
_OUTPUT_END = "generator=<AddressGenerator.OUTPUT: 2>, register=<ConfigRegister.END: 3>"

PINNED_TYPE_TWINS = [
    ("roundtrip-divergence", 10, "access.cfg", _FLOAT_ENCODE),
    ("unconsumed-addresses", 12, "access.start",
     "PV 0 INPUT generator ends the program with 2.0 produced address(es) never "
     "consumed; the machine would not drain"),
    ("roundtrip-divergence", 14, "access.cfg", _FLOAT_ENCODE),
    ("roundtrip-divergence", 18, "access.cfg",
     f"decode({{encode}}) returned AccessCfg(pv_index=1, {_OUTPUT_END}, immediate=4464) "
     f"instead of AccessCfg(pv_index=1, {_OUTPUT_END}, immediate=70000)"),
    ("roundtrip-divergence", 19, "access.cfg",
     f"decode({{encode}}) returned AccessCfg(pv_index=1, {_OUTPUT_END}, immediate=4464) "
     f"instead of AccessCfg(pv_index=True, {_OUTPUT_END}, immediate=70000)"),
]

_MIMD_LD_DIVERGES = (
    "decode({encode}) returned MimdLoad(pv_index=0, destination='repeat', "
    "immediate=4464) instead of MimdLoad(pv_index=0, destination='repeat', "
    "immediate=70000)"
)


class TestVerifierMemos:
    def test_type_twins_are_verified_separately(self):
        assert _as_tuples(verify_program(_type_twins_program())) == PINNED_TYPE_TWINS

    def test_builder_shares_only_exactly_typed_twins(self):
        """MicroProgramBuilder shares one object per distinct µop, but the
        float-immediate and bool/int-typed twins come back as their own
        objects, and the built program verifies like the hand-built one."""
        from dataclasses import fields

        from repro.isa.program import MicroProgramBuilder

        by_hand = _type_twins_program()
        builder = MicroProgramBuilder(by_hand.name, num_pvs=by_hand.num_pvs)
        emitters = {
            AccessCfg: builder.emit_access_cfg,
            AccessStart: builder.emit_access_start,
        }
        for uop in by_hand.global_uops:
            values = [getattr(uop, f.name) for f in fields(uop)]
            try:
                emitters[type(uop)](*values)
            # access.stop has no emitter; a µop corrupted after construction
            # is one no emitter builds
            except (KeyError, IsaError):
                builder.emit(uop)
        built = builder.build()
        stream = built.global_uops
        assert stream == by_hand.global_uops
        # the second cfg block repeats the first but for END=2.0 (index 10)
        assert all(stream[i] is stream[i - 7] for i in (7, 8, 9, 11, 12))
        assert stream[10] is not stream[3]
        assert stream[14] is not stream[13]  # immediate 1.0 vs 1
        assert stream[17] is not stream[15]  # pv_index True vs 1
        assert stream[16] is not stream[15]  # generator 2 vs OUTPUT
        assert _as_tuples(verify_program(built)) == PINNED_TYPE_TWINS
        assert _as_tuples(verify_program(by_hand)) == PINNED_TYPE_TWINS

    @pytest.mark.parametrize(
        "indices",
        [
            (1.5, 2.9),
            (True,),
            (0, False),
            (1.0, 0),
            (np.float64(1.0),),
            (np.bool_(True),),
            (Fraction(1),),
            (Decimal(1),),
            ("1",),
        ],
    )
    def test_mimd_exe_rejects_non_integer_indices(self, indices):
        with pytest.raises(IsaError, match="is not an integer"):
            MimdExecute(local_indices=indices)

    def test_mimd_exe_normalises_numpy_indices(self):
        uop = MimdExecute(local_indices=(np.int64(1), np.uint8(2)))
        assert uop.local_indices == (1, 2)
        assert all(type(i) is int for i in uop.local_indices)

    def test_builder_rejects_non_integer_mimd_indices(self):
        """Also after an equal-hashing all-int twin is already shared."""
        from repro.isa.program import MicroProgramBuilder

        builder = MicroProgramBuilder("t", num_pvs=2)
        builder.emit_mimd([1, 0])
        for indices in ([1.7, 0], [1.0, 0], [True, 0]):
            with pytest.raises(IsaError, match="is not an integer"):
                builder.emit_mimd(indices)

    def test_repeated_corrupt_uop_is_reported_at_each_index(self):
        bad = _corrupt(
            MimdLoad(pv_index=0, destination="repeat", immediate=5), immediate=70_000
        )
        stream = list(valid_program().global_uops)
        for index in (0, 7, 19):
            stream.insert(index, bad)
        program = _unsafe_replace_stream(valid_program(), stream)
        assert _as_tuples(verify_program(program)) == [
            ("roundtrip-divergence", index, "mimd.ld", _MIMD_LD_DIVERGES)
            for index in (0, 7, 19)
        ]

    def test_exact_keys_cover_every_global_uop_class(self):
        from dataclasses import fields

        from repro.isa.uops import GLOBAL_BUFFER_UOPS
        from repro.staticcheck import checks

        # access.cfg has its own spelled-out key; every other class a row.
        assert set(checks._FIELD_TYPES) | {AccessCfg} == set(GLOBAL_BUFFER_UOPS)
        for cls, types in checks._FIELD_TYPES.items():
            assert len(fields(cls)) == len(types), cls.__name__
        exact = [
            AccessCfg(pv_index=0, generator=INPUT, register=ConfigRegister.ADDR, immediate=1),
            AccessStart(pv_index=0, generator=INPUT),
            AccessStop(pv_index=0, generator=INPUT),
            MAC,
            RepeatUop(count=2),
            MimdLoad(pv_index=0, destination="repeat", immediate=1),
            MimdExecute(local_indices=(0, 1)),
        ]
        assert all(checks._exact_key(uop) is not None for uop in exact)
        twins = [
            AccessCfg(pv_index=0, generator=INPUT, register=ConfigRegister.ADDR, immediate=1.0),
            AccessCfg(pv_index=True, generator=INPUT, register=ConfigRegister.ADDR, immediate=1),
            AccessCfg(pv_index=0, generator=0, register=ConfigRegister.ADDR, immediate=1),
            AccessCfg(pv_index=0, generator=INPUT, register=0, immediate=1),
            AccessStart(pv_index=False, generator=INPUT),
            AccessStop(pv_index=0, generator=0),
            _corrupt(MimdExecute(local_indices=(0, 1)), local_indices=(0, True)),
        ]
        assert all(checks._exact_key(uop) is None for uop in twins)


class TestUnknownCheckIds:
    """A misspelled id used to select nothing and read as a clean program."""

    def test_verify_program_rejects_unknown_id(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="cfg-def-before-us") as excinfo:
            verify_program(valid_program(), select=["cfg-def-before-us"])
        assert all(check_id in str(excinfo.value) for check_id in check_ids())

    def test_verify_words_rejects_unknown_id(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown check id.*mode-flg"):
            verify_words([], num_pvs=1, select=["mode-flag", "mode-flg"])

    def test_check_binding_rejects_unknown_id_before_compiling(self, monkeypatch):
        from repro.config import ArchitectureConfig
        from repro.errors import ReproError
        from repro.staticcheck import programs
        from repro.workloads.registry import get_workload

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before checking select")

        monkeypatch.setattr(programs, "compile_layer_programs", no_compile)
        binding = get_workload("dcgan").generator.bindings[1]
        with pytest.raises(ReproError, match="unknown check id.*dead-uops"):
            check_binding(
                binding, config=ArchitectureConfig.paper_default(),
                skip_zeros=True, select=["dead-uops"],
            )

    def test_run_check_grid_rejects_unknown_id_before_compiling(self, monkeypatch):
        from repro.errors import ReproError
        from repro.staticcheck import programs

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before checking select")

        monkeypatch.setattr(programs, "compile_layer_programs", no_compile)
        with pytest.raises(ReproError, match="unknown check id.*not-a-check"):
            run_check_grid(["dcgan"], ["ganax"], select=["not-a-check"])

    def test_known_ids_still_select(self):
        program = make_program([AccessStop(pv_index=0, generator=INPUT)])
        assert verify_program(program, select=[]) == []
        assert verify_words([], num_pvs=1, select=["mode-flag"]) == []


# ----------------------------------------------------------------------
# Machine geometry
# ----------------------------------------------------------------------
class TestMachineModel:
    def test_defaults_mirror_pe_buffer_sizing(self):
        model = MachineModel.from_config()
        assert model.num_pvs == 16
        assert model.input_buffer_words == 64  # max(12 entries, 64)
        assert model.weight_buffer_words == 224
        assert model.buffer_words(OUTPUT) == 64

    def test_executor_sizing_tracks_output_columns(self):
        model = MachineModel.for_executor(num_pvs=4, pes_per_pv=4, output_columns=40)
        assert model.output_buffer_words == 40
        assert model.input_buffer_words == 4096

    def test_overflow_threshold_is_exact(self):
        # end exactly at capacity is legal; one past is not.
        capacity = MachineModel.from_config().input_buffer_words
        ok = cfg_block(INPUT, offset=capacity - 2, end=2) + cfg_block(WEIGHT, end=2) + [
            RepeatUop(count=2),
            MAC,
        ]
        assert "addr-range-overflow" not in ids_of(verify_program(make_program(ok)))
        bad = cfg_block(INPUT, offset=capacity - 1, end=2)
        assert "addr-range-overflow" in ids_of(verify_program(make_program(bad)))


# ----------------------------------------------------------------------
# Compiled-program grid (the `repro check` core)
# ----------------------------------------------------------------------
class TestCheckGrid:
    def test_dcgan_grid_is_clean_in_both_modes(self):
        report = run_check_grid(["dcgan"], ["ganax"])
        assert report.ok
        assert report.findings == ()
        assert report.programs > 0
        # 9 compilable layers x 2 modes
        assert len(report.entries) == 18
        assert {entry.skip_zeros for entry in report.entries} == {True, False}

    def test_grid_report_describe_is_json_ready(self):
        import json

        report = run_check_grid(["dcgan"], ["ganax"], layer="conv5")
        payload = report.describe()
        json.dumps(payload)  # must not raise
        assert payload["ok"] is True
        assert payload["cells"] == 2

    def test_unknown_accelerator_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_check_grid(["dcgan"], ["definitely-not-real"])

    def test_layer_filter_matching_nothing_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError) as excinfo:
            run_check_grid(["dcgan"], ["ganax"], layer="nosuchlayer")
        message = str(excinfo.value)
        assert "no compilable layer matches 'nosuchlayer'" in message
        assert "conv5" in message and "tconv1" in message  # what is available


# ----------------------------------------------------------------------
# Encoding diagnostics (satellite: errors carry program offsets)
# ----------------------------------------------------------------------
class TestEncodingDiagnostics:
    def test_global_encoding_error_carries_offset_and_uop(self):
        program = make_program([RepeatUop(count=1 << 12), MAC])
        with pytest.raises(ProgramEncodingError) as excinfo:
            program.encoded_global_words()
        error = excinfo.value
        assert isinstance(error, IsaError)
        assert error.program == "t"
        assert "global µop 0" in error.location
        assert "RepeatUop" in error.uop_repr

    def test_local_encoding_error_names_pv_and_index(self):
        program = make_program(
            [], local=[[MAC], [MAC, RepeatUop(count=1 << 12)]], num_pvs=2
        )
        roundtrip = [
            (f.mnemonic, f.message)
            for f in verify_program(program)
            if f.check_id == "roundtrip-divergence"
        ]
        assert roundtrip == [
            ("local[pv1][1]", "encode→decode failed: repeat count 4096 does not fit in 12 bits")
        ]

    def test_disassembly_roundtrips_through_records(self):
        program = valid_program()
        records = program.uop_records()
        assert records["program"] == "t"
        assert len(records["global"]) == len(program.global_uops)
        text = program.disassemble()
        for record in records["global"]:
            assert record["text"] in text


# ----------------------------------------------------------------------
# Repo lints
# ----------------------------------------------------------------------
def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


class TestLints:
    def test_wallclock_flagged_in_cache_module(self, tmp_path):
        path = _write(
            tmp_path,
            "result_cache.py",
            """
            import time

            def key_for(job):
                return (job.name, time.time())
            """,
        )
        findings = run_lints([path])
        assert [f.check_id for f in findings] == ["wallclock-in-fingerprint"]

    def test_wallclock_flagged_in_fingerprint_function_anywhere(self, tmp_path):
        path = _write(
            tmp_path,
            "anything.py",
            """
            from datetime import datetime

            def model_fingerprint(model):
                return f"{model}-{datetime.now()}"
            """,
        )
        assert ids_of_lint(run_lints([path])) == {"wallclock-in-fingerprint"}

    def test_monotonic_clock_is_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            "cache.py",
            """
            import time

            def age(entry):
                return time.monotonic() - entry.created
            """,
        )
        assert run_lints([path]) == []

    def test_unlocked_write_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "runner_state.py",
            """
            import threading

            class Tracker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def reset(self):
                    self._count = 0
            """,
        )
        findings = run_lints([path])
        assert [f.check_id for f in findings] == ["unlocked-state-write"]
        assert "reset" in findings[0].message

    def test_locked_suffix_methods_are_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "runner_state.py",
            """
            import threading

            class Tracker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._reset_locked()

                def _reset_locked(self):
                    self._count = 0
            """,
        )
        assert run_lints([path]) == []

    def test_record_without_schema_version_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "wire.py",
            """
            def job_record(job):
                return {"type": "job", "name": job.name}
            """,
        )
        assert ids_of_lint(run_lints([path])) == {"record-schema-version"}

    def test_stamped_and_literal_records_pass(self, tmp_path):
        path = _write(
            tmp_path,
            "wire.py",
            """
            from proto import stamp

            def job_record(job):
                return stamp({"type": "job", "name": job.name})

            class Event:
                def describe(self):
                    return {"type": "event", "schema_version": 3}
            """,
        )
        assert run_lints([path]) == []

    def test_unfrozen_isa_dataclass_flagged(self, tmp_path):
        isa_dir = tmp_path / "isa"
        isa_dir.mkdir()
        path = _write(
            isa_dir,
            "uops.py",
            """
            from dataclasses import dataclass

            @dataclass
            class LooseUop:
                op: int

            @dataclass(frozen=True)
            class GoodUop:
                op: int
            """,
        )
        findings = run_lints([path])
        assert [f.check_id for f in findings] == ["unfrozen-isa-dataclass"]
        assert "LooseUop" in findings[0].message

    def test_waiver_comment_silences_named_id(self, tmp_path):
        path = _write(
            tmp_path,
            "cache.py",
            """
            import time

            def key_for(job):
                # lint: allow(wallclock-in-fingerprint) test fixture on purpose
                return (job.name, time.time())
            """,
        )
        assert run_lints([path]) == []

    def test_waiver_does_not_silence_other_ids(self, tmp_path):
        path = _write(
            tmp_path,
            "cache.py",
            """
            import time

            def key_for(job):
                # lint: allow(dead-code-or-whatever)
                return (job.name, time.time())
            """,
        )
        assert ids_of_lint(run_lints([path])) == {"wallclock-in-fingerprint"}

    def test_unknown_select_id_raises(self, tmp_path):
        with pytest.raises(LintError):
            run_lints([tmp_path], select=["not-a-lint"])

    def test_missing_path_raises(self, tmp_path):
        missing = tmp_path / "nonexistent"
        with pytest.raises(LintError, match="no such file or directory"):
            run_lints([tmp_path, missing])

    def test_repo_source_tree_is_lint_clean(self):
        from pathlib import Path

        src = Path(__file__).parent.parent / "src" / "repro"
        assert run_lints([src]) == []


def ids_of_lint(findings):
    return {finding.check_id for finding in findings}
