"""Result containers shared by every registered accelerator model.

Each accelerator model (see :mod:`repro.accelerators`) produces, per layer, a
:class:`LayerResult` holding the cycle count, activity counters and energy
breakdown; whole-network results aggregate them into a :class:`NetworkResult`
and whole-GAN runs into a :class:`GanResult` with separate generator /
discriminator sections, which is the granularity the paper's Figures 8-11
report at.  Comparisons across accelerators come in two shapes:
:class:`MultiComparison` holds one model's results over any set of registered
accelerators against a declared baseline, and :class:`ComparisonResult` is the
legacy two-way ``("eyeriss", "ganax")`` special case the paper's figures are
phrased in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import AnalysisError
from ..hw.counters import EventCounters
from ..hw.energy import EnergyBreakdown


@dataclass(frozen=True, init=False)
class LayerResult:
    """Simulation result for one layer on one accelerator.

    Attributes
    ----------
    layer_name:
        Name of the layer within its network.
    accelerator:
        Name of the accelerator model that produced this result — any entry
        of the :mod:`repro.accelerators` registry.
    cycles:
        Modelled execution cycles for the layer.
    active_pe_cycles:
        PE-cycles spent on consequential operations.
    busy_pe_cycles:
        PE-cycles during which a PE was occupied (consequential work, gated
        zero work, or accumulation); used for utilization accounting.
    total_pe_cycles:
        ``cycles * num_pes`` — the denominator of PE utilization.
    macs_total / macs_consequential:
        Dense and consequential MAC counts of the layer.
    event_counts:
        Raw activity counters feeding the energy model, in
        :class:`~repro.hw.counters.EventCounters` field order;
        :attr:`counters` reads them as an ``EventCounters``.
    energy_parts:
        Energy components in picojoules, in
        :class:`~repro.hw.energy.EnergyBreakdown` field order (pe, rf, noc,
        gbuf, dram); :attr:`energy` reads them as an ``EnergyBreakdown``.
    is_transposed / is_convolutional:
        Layer classification flags copied from the binding for reporting.

    Caches keep every layer result of every job, so the garbage collector
    walks them on each full collection.  The counters and the energy are
    exact tuples of numbers, which CPython stops tracking; the instance
    ``__dict__`` then holds only untracked values and is untracked too,
    which leaves one tracked object per result instead of four.
    :attr:`counters` and :attr:`energy` build a fresh object on each read,
    so no reader can change a cached result.  The pickle state is the one
    of the nested objects (see :meth:`__getstate__`).

    ``__init__`` is hand-written: every layer of every job builds one, and
    plain stores into the instance ``__dict__`` (in field order) cost about
    half the generated frozen ``__init__``'s one ``object.__setattr__`` per
    field.  It takes the same parameters and defaults and still runs
    ``__post_init__`` (``tests/test_record_init.py`` keeps it in step with
    the fields).
    """

    layer_name: str
    accelerator: str
    cycles: int
    active_pe_cycles: int
    busy_pe_cycles: int
    total_pe_cycles: int
    macs_total: int
    macs_consequential: int
    event_counts: Tuple[int, ...]
    energy_parts: Tuple[float, ...]
    is_transposed: bool = False
    is_convolutional: bool = False

    def __init__(
        self,
        layer_name: str,
        accelerator: str,
        cycles: int,
        active_pe_cycles: int,
        busy_pe_cycles: int,
        total_pe_cycles: int,
        macs_total: int,
        macs_consequential: int,
        event_counts: Tuple[int, ...],
        energy_parts: Tuple[float, ...],
        is_transposed: bool = False,
        is_convolutional: bool = False,
    ) -> None:
        state = self.__dict__
        state["layer_name"] = layer_name
        state["accelerator"] = accelerator
        state["cycles"] = cycles
        state["active_pe_cycles"] = active_pe_cycles
        state["busy_pe_cycles"] = busy_pe_cycles
        state["total_pe_cycles"] = total_pe_cycles
        state["macs_total"] = macs_total
        state["macs_consequential"] = macs_consequential
        state["event_counts"] = event_counts
        state["energy_parts"] = energy_parts
        state["is_transposed"] = is_transposed
        state["is_convolutional"] = is_convolutional
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise AnalysisError(f"{self.layer_name}: cycles cannot be negative")
        if self.total_pe_cycles < 0:
            raise AnalysisError(f"{self.layer_name}: total PE-cycles cannot be negative")

    def __getstate__(self) -> Dict[str, Any]:
        """The state a result with nested counters and energy pickled.

        Same keys, same order and the same nested objects, so a fresh
        pickle is byte-identical to one written before the fields became
        tuples, and older readers load it.
        """
        state = self.__dict__
        return {
            "layer_name": state["layer_name"],
            "accelerator": state["accelerator"],
            "cycles": state["cycles"],
            "active_pe_cycles": state["active_pe_cycles"],
            "busy_pe_cycles": state["busy_pe_cycles"],
            "total_pe_cycles": state["total_pe_cycles"],
            "macs_total": state["macs_total"],
            "macs_consequential": state["macs_consequential"],
            "counters": EventCounters(*state["event_counts"]),
            "energy": EnergyBreakdown(*state["energy_parts"]),
            "is_transposed": state["is_transposed"],
            "is_convolutional": state["is_convolutional"],
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`__getstate__` state (old pickles included).

        The keys stored are this method's own literals, which are interned
        as pickle's default restore interns them.  Storing the unpickled
        key strings instead would hand them to the class's shared key
        table, and every later pickle of a result would grow.
        """
        energy = state["energy"]
        self.__init__(
            state["layer_name"],
            state["accelerator"],
            state["cycles"],
            state["active_pe_cycles"],
            state["busy_pe_cycles"],
            state["total_pe_cycles"],
            state["macs_total"],
            state["macs_consequential"],
            state["counters"].as_tuple(),
            (energy.pe_pj, energy.rf_pj, energy.noc_pj, energy.gbuf_pj, energy.dram_pj),
            state["is_transposed"],
            state["is_convolutional"],
        )

    @property
    def counters(self) -> EventCounters:
        """The activity counters, as a fresh :class:`EventCounters`."""
        return EventCounters(*self.event_counts)

    @property
    def energy(self) -> EnergyBreakdown:
        """The energy, as a fresh :class:`EnergyBreakdown`."""
        return EnergyBreakdown(*self.energy_parts)

    @property
    def pe_utilization(self) -> float:
        """Fraction of PE-cycles doing consequential work (Figure 11)."""
        if self.total_pe_cycles == 0:
            return 0.0
        return min(1.0, self.active_pe_cycles / self.total_pe_cycles)

    @property
    def energy_pj(self) -> float:
        pe, rf, noc, gbuf, dram = self.energy_parts
        return pe + rf + noc + gbuf + dram

    @property
    def seconds(self) -> float:
        """Placeholder: converted by callers that know the clock frequency."""
        raise AnalysisError(
            "LayerResult does not know the clock; use ArchitectureConfig.cycles_to_seconds"
        )


class _computed_once:
    """A result total: computed on first read, then a plain attribute.

    ``functools.cached_property`` does the same, but on Python 3.11 its
    first read takes a lock shared by every instance: about 1.5 µs more
    than a plain property per first read, against 0.4 µs here (2-vCPU VM),
    and a grid job or a served event reads all six totals of its result.
    A total is a pure function of an immutable result, so two threads that
    race on the first read store equal values and need no lock.  The value
    goes to the instance ``__dict__``, bypassing the frozen ``__setattr__``,
    and later reads find it there without calling the descriptor.
    """

    def __init__(self, compute: Callable[[Any], Any]) -> None:
        self._compute = compute
        self._name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, result: Any, owner: Optional[type] = None) -> Any:
        if result is None:
            return self
        value = result.__dict__[self._name] = self._compute(result)
        return value


def _field_state(result: Any) -> Dict[str, Any]:
    """A result's pickle state: its dataclass fields, no cached totals.

    Leaving the cached totals out keeps a result's pickle the same bytes
    whether or not its totals were read, so disk-cache entries and journal
    payloads do not depend on who touched the result first.
    """
    return {f.name: getattr(result, f.name) for f in fields(result)}


@dataclass(frozen=True)
class NetworkResult:
    """Aggregated result of running one network (generator or discriminator).

    ``cycles`` and ``energy`` are summed over the layers once, on first
    read, and stored on the instance (a result is immutable); they are not
    part of its pickle.
    """

    network_name: str
    accelerator: str
    layer_results: Tuple[LayerResult, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_results", tuple(self.layer_results))

    __getstate__ = _field_state

    @_computed_once
    def cycles(self) -> int:
        return sum(r.cycles for r in self.layer_results)

    @_computed_once
    def energy(self) -> EnergyBreakdown:
        """The layers' energy, each component added in layer order."""
        pe = rf = noc = gbuf = dram = 0.0
        for r in self.layer_results:
            layer_pe, layer_rf, layer_noc, layer_gbuf, layer_dram = r.energy_parts
            pe += layer_pe
            rf += layer_rf
            noc += layer_noc
            gbuf += layer_gbuf
            dram += layer_dram
        return EnergyBreakdown(pe, rf, noc, gbuf, dram)

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def macs_total(self) -> int:
        return sum(r.macs_total for r in self.layer_results)

    @property
    def macs_consequential(self) -> int:
        return sum(r.macs_consequential for r in self.layer_results)

    @property
    def counters(self) -> EventCounters:
        total = EventCounters()
        for r in self.layer_results:
            total.add(r.counters)
        return total

    @property
    def pe_utilization(self) -> float:
        """Cycle-weighted PE utilization across the network's layers."""
        total = sum(r.total_pe_cycles for r in self.layer_results)
        if total == 0:
            return 0.0
        active = sum(r.active_pe_cycles for r in self.layer_results)
        return min(1.0, active / total)

    def layer(self, name: str) -> LayerResult:
        for result in self.layer_results:
            if result.layer_name == name:
                return result
        raise AnalysisError(f"no layer result named '{name}' in {self.network_name}")


@dataclass(frozen=True)
class GanResult:
    """Result of running a full GAN (generator + discriminator) on one accelerator.

    ``total_cycles`` and ``total_energy`` are computed once, on first read,
    from the networks' own once-computed totals; like those, they are not
    part of the pickle.
    """

    model_name: str
    accelerator: str
    generator: NetworkResult
    discriminator: Optional[NetworkResult] = None

    __getstate__ = _field_state

    @_computed_once
    def total_cycles(self) -> int:
        cycles = self.generator.cycles
        if self.discriminator is not None:
            cycles += self.discriminator.cycles
        return cycles

    @_computed_once
    def total_energy(self) -> EnergyBreakdown:
        energy = self.generator.energy
        if self.discriminator is not None:
            energy = energy + self.discriminator.energy
        return energy

    @property
    def total_energy_pj(self) -> float:
        return self.total_energy.total_pj

    def runtime_split(self) -> Dict[str, int]:
        """Cycles attributed to the generative and discriminative models."""
        return {
            "generative": self.generator.cycles,
            "discriminative": self.discriminator.cycles if self.discriminator else 0,
        }

    def energy_split(self) -> Dict[str, float]:
        """Energy attributed to the generative and discriminative models (pJ)."""
        return {
            "generative": self.generator.energy_pj,
            "discriminative": self.discriminator.energy_pj if self.discriminator else 0.0,
        }


@dataclass(frozen=True)
class MultiComparison:
    """One GAN model's results across N accelerators against a baseline.

    Attributes
    ----------
    model_name:
        The compared GAN workload.
    baseline:
        Accelerator name every speedup / energy-reduction ratio is taken
        against; must have a result in ``results``.
    results:
        Ordered mapping of accelerator name to that accelerator's
        :class:`GanResult` for the model.
    """

    model_name: str
    baseline: str
    results: Mapping[str, GanResult]

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", dict(self.results))
        if not self.results:
            raise AnalysisError(
                f"{self.model_name}: a comparison needs at least one result"
            )
        if self.baseline not in self.results:
            raise AnalysisError(
                f"{self.model_name}: baseline '{self.baseline}' has no result; "
                f"have: {', '.join(self.results)}"
            )
        for name, result in self.results.items():
            if result.accelerator != name:
                raise AnalysisError(
                    f"{self.model_name}: result under key '{name}' was "
                    f"produced by accelerator '{result.accelerator}'"
                )
            if result.model_name != self.model_name:
                raise AnalysisError(
                    f"comparison of '{self.model_name}' received a result "
                    f"for '{result.model_name}'"
                )

    @property
    def accelerators(self) -> Tuple[str, ...]:
        """Compared accelerator names, in submission order."""
        return tuple(self.results)

    @property
    def baseline_result(self) -> GanResult:
        return self.results[self.baseline]

    def result(self, accelerator: str) -> GanResult:
        """The named accelerator's result for this model."""
        try:
            return self.results[accelerator]
        except KeyError:
            raise AnalysisError(
                f"{self.model_name}: no result for accelerator "
                f"'{accelerator}'; have: {', '.join(self.results)}"
            ) from None

    # -- pairwise metrics against the declared baseline ---------------------
    def generator_speedup(self, accelerator: str) -> float:
        """Generator speedup of ``accelerator`` over the baseline."""
        cycles = self.result(accelerator).generator.cycles
        if cycles == 0:
            raise AnalysisError(
                f"{self.model_name}: {accelerator} generator cycles are zero"
            )
        return self.baseline_result.generator.cycles / cycles

    def generator_energy_reduction(self, accelerator: str) -> float:
        """Generator energy reduction of ``accelerator`` over the baseline."""
        energy = self.result(accelerator).generator.energy_pj
        if energy == 0:
            raise AnalysisError(
                f"{self.model_name}: {accelerator} generator energy is zero"
            )
        return self.baseline_result.generator.energy_pj / energy

    def generator_utilization(self, accelerator: str) -> float:
        return self.result(accelerator).generator.pe_utilization

    def generator_speedups(self) -> Dict[str, float]:
        """Speedup over the baseline per accelerator (baseline maps to 1.0)."""
        return {name: self.generator_speedup(name) for name in self.results}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly per-accelerator headline metrics."""
        return {
            name: {
                "speedup": self.generator_speedup(name),
                "energy_reduction": self.generator_energy_reduction(name),
                "pe_utilization": self.generator_utilization(name),
                "generator_cycles": self.result(name).generator.cycles,
                "generator_energy_pj": self.result(name).generator.energy_pj,
            }
            for name in self.results
        }

    def as_comparison(self) -> "ComparisonResult":
        """The legacy two-way view; needs both ``eyeriss`` and ``ganax``."""
        missing = {"eyeriss", "ganax"} - set(self.results)
        if missing:
            raise AnalysisError(
                f"{self.model_name}: the two-way view needs results for "
                f"eyeriss and ganax; missing: {', '.join(sorted(missing))}"
            )
        return ComparisonResult(
            model_name=self.model_name,
            eyeriss=self.results["eyeriss"],
            ganax=self.results["ganax"],
        )


@dataclass(frozen=True)
class ComparisonResult:
    """A GANAX-vs-EYERISS comparison for one GAN model.

    This is the ``("eyeriss", "ganax")`` special case of
    :class:`MultiComparison`, kept because the paper's figures (8-11) are all
    phrased as this exact pair; N-way studies should use
    :class:`repro.Session` / :class:`MultiComparison` instead.
    """

    model_name: str
    eyeriss: GanResult
    ganax: GanResult

    def __post_init__(self) -> None:
        if self.eyeriss.accelerator != "eyeriss" or self.ganax.accelerator != "ganax":
            raise AnalysisError(
                "ComparisonResult expects an EYERISS result and a GANAX result"
            )

    # -- generator-level metrics (Figures 8, 10, 11) -----------------------
    @property
    def generator_speedup(self) -> float:
        """Speedup of the generative model on GANAX over EYERISS (Figure 8a)."""
        ganax_cycles = self.ganax.generator.cycles
        if ganax_cycles == 0:
            raise AnalysisError(f"{self.model_name}: GANAX generator cycles are zero")
        return self.eyeriss.generator.cycles / ganax_cycles

    @property
    def generator_energy_reduction(self) -> float:
        """Energy reduction of the generative model (Figure 8b)."""
        ganax_energy = self.ganax.generator.energy_pj
        if ganax_energy == 0:
            raise AnalysisError(f"{self.model_name}: GANAX generator energy is zero")
        return self.eyeriss.generator.energy_pj / ganax_energy

    @property
    def eyeriss_generator_utilization(self) -> float:
        return self.eyeriss.generator.pe_utilization

    @property
    def ganax_generator_utilization(self) -> float:
        return self.ganax.generator.pe_utilization

    # -- whole-model metrics (Figure 9) -------------------------------------
    def normalized_runtime(self) -> Dict[str, Dict[str, float]]:
        """Runtime split, normalised to the EYERISS total (Figure 9a)."""
        baseline = self.eyeriss.total_cycles
        if baseline == 0:
            raise AnalysisError(f"{self.model_name}: EYERISS total cycles are zero")
        return {
            "eyeriss": {
                key: value / baseline for key, value in self.eyeriss.runtime_split().items()
            },
            "ganax": {
                key: value / baseline for key, value in self.ganax.runtime_split().items()
            },
        }

    def normalized_energy(self) -> Dict[str, Dict[str, float]]:
        """Energy split, normalised to the EYERISS total (Figure 9b)."""
        baseline = self.eyeriss.total_energy_pj
        if baseline == 0:
            raise AnalysisError(f"{self.model_name}: EYERISS total energy is zero")
        return {
            "eyeriss": {
                key: value / baseline for key, value in self.eyeriss.energy_split().items()
            },
            "ganax": {
                key: value / baseline for key, value in self.ganax.energy_split().items()
            },
        }

    def normalized_unit_energy(self) -> Dict[str, Dict[str, float]]:
        """Per-unit generator energy, normalised to EYERISS total (Figure 10)."""
        baseline = self.eyeriss.generator.energy_pj
        if baseline == 0:
            raise AnalysisError(f"{self.model_name}: EYERISS generator energy is zero")
        return {
            "eyeriss": {
                key: value / baseline
                for key, value in self.eyeriss.generator.energy.as_dict().items()
            },
            "ganax": {
                key: value / baseline
                for key, value in self.ganax.generator.energy.as_dict().items()
            },
        }
