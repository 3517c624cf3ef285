"""The hand-written ``__init__`` of the per-layer records.

:class:`LayerEstimate`, :class:`RowStationaryMapping`,
:class:`EnergyBreakdown` and :class:`LayerResult` are frozen dataclasses
whose ``__init__`` stores each field straight into the instance ``__dict__``
instead of the generated one's ``object.__setattr__`` per field.  These
tests pin what the generated ``__init__`` guaranteed: the same parameters
and defaults as the fields, frozen instances, ``__dict__`` in field order
(which keeps pickles byte-stable) and the ``__post_init__`` checks.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.analysis.results import LayerResult
from repro.baseline.performance import LayerEstimate, streaming_mapping
from repro.baseline.row_stationary import RowStationaryMapping
from repro.errors import AnalysisError, ConfigurationError, DataflowError
from repro.hw.counters import EventCounters
from repro.hw.energy import EnergyBreakdown


def _mapping(**changes) -> RowStationaryMapping:
    fields = dict(
        filter_rows=5,
        output_rows=8,
        set_height=5,
        set_width=8,
        folds=1,
        sets_per_pass=6,
        occupancy=0.9375,
    )
    fields.update(changes)
    return RowStationaryMapping(**fields)


def _energy(**changes) -> EnergyBreakdown:
    fields = dict(pe_pj=1.0, rf_pj=2.0, noc_pj=3.0, gbuf_pj=4.0, dram_pj=5.0)
    fields.update(changes)
    return EnergyBreakdown(**fields)


def _estimate(**changes) -> LayerEstimate:
    fields = dict(
        layer_name="tconv1",
        cycles=100,
        compute_cycles=80,
        accumulation_cycles=10,
        dram_cycles=10,
        active_pe_cycles=700,
        busy_pe_cycles=900,
        total_pe_cycles=25600,
        counters=EventCounters(mac_ops=700),
        mapping=streaming_mapping(256),
        dispatch_cycles=3,
        mode="mimd-simd",
    )
    fields.update(changes)
    return LayerEstimate(**fields)


def _result(**changes) -> LayerResult:
    fields = dict(
        layer_name="tconv1",
        accelerator="ganax",
        cycles=100,
        active_pe_cycles=700,
        busy_pe_cycles=900,
        total_pe_cycles=25600,
        macs_total=1400,
        macs_consequential=700,
        counters=EventCounters(mac_ops=700),
        energy=_energy(),
        is_transposed=True,
        is_convolutional=True,
    )
    fields.update(changes)
    return LayerResult(**fields)


BUILDERS = {
    LayerEstimate: _estimate,
    RowStationaryMapping: _mapping,
    EnergyBreakdown: _energy,
    LayerResult: _result,
}

RECORDS = pytest.mark.parametrize(
    "cls", list(BUILDERS), ids=[cls.__name__ for cls in BUILDERS]
)


@RECORDS
def test_init_signature_matches_the_fields(cls):
    """A field added without its parameter (or with another default) fails
    here instead of silently keeping its class default."""
    parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in parameters] == [f.name for f in fields]
    for parameter, field in zip(parameters, fields):
        assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        expected = (
            inspect.Parameter.empty
            if field.default is dataclasses.MISSING
            else field.default
        )
        assert parameter.default == expected, field.name
        assert field.default_factory is dataclasses.MISSING


@RECORDS
def test_instances_stay_frozen(cls):
    record = BUILDERS[cls]()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))


@RECORDS
def test_dict_holds_the_fields_in_field_order(cls):
    record = BUILDERS[cls]()
    assert list(record.__dict__) == [f.name for f in dataclasses.fields(cls)]


@RECORDS
def test_positional_construction_and_defaults(cls):
    record = BUILDERS[cls]()
    fields = dataclasses.fields(cls)
    assert cls(*[getattr(record, f.name) for f in fields]) == record
    assert dataclasses.replace(record) == record
    required = [f for f in fields if f.default is dataclasses.MISSING]
    bare = cls(*[getattr(record, f.name) for f in required])
    for field in fields[len(required):]:
        assert getattr(bare, field.name) == field.default


def test_bad_values_still_raise():
    with pytest.raises(AnalysisError):
        _result(cycles=-1)
    with pytest.raises(AnalysisError):
        _result(total_pe_cycles=-1)
    with pytest.raises(ConfigurationError):
        _energy(noc_pj=-0.5)
    with pytest.raises(DataflowError):
        _mapping(occupancy=0)
    with pytest.raises(DataflowError):
        _mapping(set_width=0)
