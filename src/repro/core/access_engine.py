"""Access µ-engine: strided µindex generators + address FIFOs (Figure 7a).

The access µ-engine owns one :class:`StridedIndexGenerator` per operand
stream (input, weight, output) and one address FIFO per generator.  Every
cycle each running generator pushes one address into its FIFO unless the FIFO
is full, in which case the generator stalls.  The execute µ-engine later pops
addresses from these FIFOs; the FIFOs are the only synchronisation between
the two µ-engines, exactly as in the paper's decoupled design.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import SimulationError
from ..hw.counters import EventCounters
from ..hw.fifo import Fifo
from ..isa.uops import AddressGenerator, ConfigRegister
from .index_generator import GeneratorConfig, StridedIndexGenerator


class AccessEngine:
    """The access µ-engine of one GANAX processing engine."""

    def __init__(
        self,
        fifo_depth: int = 8,
        counters: Optional[EventCounters] = None,
        name: str = "access",
    ) -> None:
        if fifo_depth <= 0:
            raise SimulationError(f"{name}: FIFO depth must be positive")
        self._name = name
        self._counters = counters
        self._generators: Dict[AddressGenerator, StridedIndexGenerator] = {
            stream: StridedIndexGenerator(name=f"{name}.{stream.name.lower()}")
            for stream in AddressGenerator
        }
        self._fifos: Dict[AddressGenerator, Fifo[int]] = {
            stream: Fifo(depth=fifo_depth, name=f"{name}.{stream.name.lower()}_fifo")
            for stream in AddressGenerator
        }

    # ------------------------------------------------------------------
    # Configuration (access.cfg / access.start / access.stop µops)
    # ------------------------------------------------------------------
    def write_register(
        self, stream: AddressGenerator, register: ConfigRegister, value: int
    ) -> None:
        self._generators[stream].write_register(register, value)

    def configure(self, stream: AddressGenerator, config: GeneratorConfig) -> None:
        self._generators[stream].configure(config)

    def start(self, stream: AddressGenerator) -> None:
        self._generators[stream].start()

    def stop(self, stream: AddressGenerator) -> None:
        self._generators[stream].stop()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def generator(self, stream: AddressGenerator) -> StridedIndexGenerator:
        return self._generators[stream]

    def fifo(self, stream: AddressGenerator) -> Fifo[int]:
        return self._fifos[stream]

    @property
    def busy(self) -> bool:
        """True while any generator is running or any FIFO holds addresses."""
        return any(g.running for g in self._generators.values()) or any(
            not f.is_empty for f in self._fifos.values()
        )

    @property
    def can_push(self) -> bool:
        """True when some running generator has room in its FIFO."""
        for stream, generator in self._generators.items():
            if generator.running and not self._fifos[stream].is_full:
                return True
        return False

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Advance all generators one cycle; returns addresses produced."""
        produced = 0
        for stream, generator in self._generators.items():
            fifo = self._fifos[stream]
            if not generator.running:
                continue
            if fifo.is_full:
                # Back-pressure: a full address FIFO stalls its generator.
                continue
            address = generator.tick()
            if address is None:
                continue
            fifo.push(address)
            produced += 1
            if self._counters is not None:
                self._counters.index_generations += 1
        return produced

    # ------------------------------------------------------------------
    # Execute-side interface
    # ------------------------------------------------------------------
    def pop_address(self, stream: AddressGenerator) -> Optional[int]:
        """Pop the next address for ``stream`` or None when the FIFO is empty."""
        return self._fifos[stream].try_pop()

    def has_address(self, stream: AddressGenerator) -> bool:
        return not self._fifos[stream].is_empty
