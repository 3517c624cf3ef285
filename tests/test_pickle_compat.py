"""Pickles written by earlier releases still load.

The disk job cache, the layer memo's disk tier and the service journal all
store pickled results, and all three treat a load error as a silent miss.
These bytes were written before the counter pricing was flattened; if a
change to :class:`~repro.hw.counters.EventCounters` or the result classes
breaks unpickling (for example by adding ``__slots__``, which removes the
instance ``__dict__`` old pickles restore into), every existing cache entry
would quietly stop hitting.
"""

from __future__ import annotations

import base64
import pickle

from repro.analysis.results import GanResult
from repro.core.simulator import GanaxSimulator
from repro.hw.counters import EventCounters
from repro.workloads.registry import get_workload

#: ``pickle.dumps(EventCounters(*range(1, 13)), protocol=5)``.
COUNTERS_PICKLE = (
    "gAWVDgEAAAAAAACMEXJlcHJvLmh3LmNvdW50ZXJzlIwNRXZlbnRDb3VudGVyc5STlCmBlH2U"
    "KIwHbWFjX29wc5RLAYwJZ2F0ZWRfb3BzlEsCjAdhbHVfb3BzlEsDjBNyZWdpc3Rlcl9maWxl"
    "X3JlYWRzlEsEjBRyZWdpc3Rlcl9maWxlX3dyaXRlc5RLBYwNbm9jX3RyYW5zZmVyc5RLBowT"
    "Z2xvYmFsX2J1ZmZlcl9yZWFkc5RLB4wUZ2xvYmFsX2J1ZmZlcl93cml0ZXOUSwiMCmRyYW1f"
    "cmVhZHOUSwmMC2RyYW1fd3JpdGVzlEsKjAt1b3BfZmV0Y2hlc5RLC4wRaW5kZXhfZ2VuZXJh"
    "dGlvbnOUSwx1Yi4="
)

#: The GanResult of :func:`_small_gan_result`, pickled with protocol 5.
GAN_RESULT_PICKLE = (
    "gAWVLAQAAAAAAACMFnJlcHJvLmFuYWx5c2lzLnJlc3VsdHOUjAlHYW5SZXN1bHSUk5QpgZR9"
    "lCiMCm1vZGVsX25hbWWUjAVEQ0dBTpSMC2FjY2VsZXJhdG9ylIwFZ2FuYXiUjAlnZW5lcmF0"
    "b3KUaACMDU5ldHdvcmtSZXN1bHSUk5QpgZR9lCiMDG5ldHdvcmtfbmFtZZSMD2RjZ2FuX2dl"
    "bmVyYXRvcpRoB2gIjA1sYXllcl9yZXN1bHRzlGgAjAtMYXllclJlc3VsdJSTlCmBlH2UKIwK"
    "bGF5ZXJfbmFtZZSMCnByb2plY3RfZmOUaAdoCIwGY3ljbGVzlE0EyowQYWN0aXZlX3BlX2N5"
    "Y2xlc5RKAAAZAIwOYnVzeV9wZV9jeWNsZXOUSgAAGQCMD3RvdGFsX3BlX2N5Y2xlc5RKAATK"
    "AIwKbWFjc190b3RhbJRKAAAZAIwSbWFjc19jb25zZXF1ZW50aWFslEoAABkAjAhjb3VudGVy"
    "c5SMEXJlcHJvLmh3LmNvdW50ZXJzlIwNRXZlbnRDb3VudGVyc5STlCmBlH2UKIwHbWFjX29w"
    "c5RKAAAZAIwJZ2F0ZWRfb3BzlEsAjAdhbHVfb3BzlEsAjBNyZWdpc3Rlcl9maWxlX3JlYWRz"
    "lEoAADIAjBRyZWdpc3Rlcl9maWxlX3dyaXRlc5RKAAAZAIwNbm9jX3RyYW5zZmVyc5RKZAAZ"
    "AIwTZ2xvYmFsX2J1ZmZlcl9yZWFkc5RKZAAZAIwUZ2xvYmFsX2J1ZmZlcl93cml0ZXOUTQBA"
    "jApkcmFtX3JlYWRzlEpkABkAjAtkcmFtX3dyaXRlc5RNAECMC3VvcF9mZXRjaGVzlEsAjBFp"
    "bmRleF9nZW5lcmF0aW9uc5RLAHVijAZlbmVyZ3mUjA9yZXByby5ody5lbmVyZ3mUjA9FbmVy"
    "Z3lCcmVha2Rvd26Uk5QpgZR9lCiMBXBlX3BqlEdBYgAAAAAAAIwFcmZfcGqUR0FuAAAAAAAA"
    "jAZub2NfcGqUR0FkAFAAAAAAjAdnYnVmX3BqlEdBfk1EzMzMzIwHZHJhbV9wapRHQbesXcAA"
    "AAB1YowNaXNfdHJhbnNwb3NlZJSJjBBpc19jb252b2x1dGlvbmFslIl1YmgSKYGUfZQoaBWM"
    "D3Byb2plY3RfcmVzaGFwZZRoB2gIaBdNAARoGEsAaBlNAEBoGkoAAAQAaBtLAGgcSwBoHWgg"
    "KYGUfZQoaCNLAGgkSwBoJU0AQGgmSwBoJ0sAaChNAEBoKU0AQGgqTQBAaCtNAEBoLE0AQGgt"
    "SwBoLksAdWJoL2gyKYGUfZQoaDVHQOcKPXCj1wpoNkcAAAAAAAAAAGg3R0D5mZmZmZmaaDhH"
    "QSMzMzMzMzNoOUdBXgAAAAAAAHViaDqJaDuJdWKGlHVijA1kaXNjcmltaW5hdG9ylE51Yi4="
)


def _load(encoded: str):
    return pickle.loads(base64.b64decode(encoded))


def _small_gan_result() -> GanResult:
    """GANAX on the first two DCGAN generator layers, no discriminator."""
    model = get_workload("DCGAN")
    generator = GanaxSimulator().simulate_network(
        model.generator, model.generator.bindings[:2]
    )
    return GanResult(model_name="DCGAN", accelerator="ganax", generator=generator)


def test_event_counters_has_no_slots():
    assert not hasattr(EventCounters, "__slots__")


def test_old_event_counters_pickle_loads():
    counters = _load(COUNTERS_PICKLE)
    assert counters == EventCounters(*range(1, 13))
    assert counters.scaled(2) == EventCounters(*range(2, 26, 2))
    assert counters.as_dict()["index_generations"] == 12


def test_old_gan_result_pickle_loads():
    result = _load(GAN_RESULT_PICKLE)
    assert result == _small_gan_result()
    assert [r.layer_name for r in result.generator.layer_results] == [
        "project_fc",
        "project_reshape",
    ]


def test_old_gan_result_pickle_reports_the_same_totals():
    result = _load(GAN_RESULT_PICKLE)
    fresh = _small_gan_result()
    assert result.total_cycles == fresh.total_cycles
    assert result.total_energy == fresh.total_energy
    assert result.generator.cycles == sum(
        r.cycles for r in result.generator.layer_results
    )
    assert result.generator.energy_pj == fresh.generator.energy_pj


def test_reading_totals_does_not_change_the_pickle():
    result = _small_gan_result()
    before = pickle.dumps(result, protocol=5)
    assert result.total_cycles > 0 and result.total_energy_pj > 0
    assert result.generator.cycles > 0 and result.generator.energy_pj > 0
    assert pickle.dumps(result, protocol=5) == before
    assert before == base64.b64decode(GAN_RESULT_PICKLE)
