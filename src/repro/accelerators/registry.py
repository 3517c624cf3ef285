"""Decorator-based registry of accelerator models.

The registry turns the accelerator set into an open one: any class or factory
implementing :class:`~repro.accelerators.base.AcceleratorModel` can be
registered under a name and immediately becomes usable everywhere an
accelerator name is accepted — :class:`~repro.runner.SimulationJob`,
:class:`repro.Session`, the sweep helpers and the CLI's ``--accelerators``
flag.

Registering::

    from repro.accelerators import register_accelerator
    from repro.accelerators.base import GanSimulatorBase

    @register_accelerator("my-accel", version="1", description="...")
    class MyAccelerator(GanSimulatorBase):
        accelerator_name = "my-accel"

        def simulate_layer(self, binding):
            ...

A factory function ``(config=None, options=None) -> AcceleratorModel`` can be
registered the same way.  The built-in entries (``eyeriss``, ``ganax``,
``ganax-noskip``, ``ideal``) live in their home modules and are loaded lazily
on first lookup, so importing this module alone never drags in the simulator
stack.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from typing import TYPE_CHECKING

from ..config import ArchitectureConfig, SimulationOptions
from ..errors import ConfigurationError, UnknownAcceleratorError

if TYPE_CHECKING:  # import only for annotations: base pulls in the
    from .base import AcceleratorModel  # analysis stack, which imports us back

#: Builds a simulator for one job: ``factory(config=..., options=...)``.
AcceleratorFactory = Callable[..., "AcceleratorModel"]


@dataclass(frozen=True)
class AcceleratorSpec:
    """One registry entry: name, version, description and instance factory.

    The ``version`` participates in the runner's content-hash cache keys
    (see :attr:`repro.runner.SimulationJob.cache_key`): bumping it when the
    model's numbers change invalidates every stale cached result without
    touching the cache itself.  For registered classes it is kept in sync
    with the class's ``model_version`` attribute by the decorator.
    """

    name: str
    version: str
    description: str
    factory: AcceleratorFactory
    #: Optional hook collapsing option values the model ignores or overrides
    #: (e.g. ``ganax-noskip`` forces ``ganax_zero_skipping`` off) so
    #: equivalent jobs share one cache entry.  Must preserve result equality.
    options_canonicalizer: Optional[Callable[[SimulationOptions], SimulationOptions]] = None

    def create(
        self,
        config: Optional[ArchitectureConfig] = None,
        options: Optional[SimulationOptions] = None,
    ) -> AcceleratorModel:
        """Instantiate the model for one (config, options) pair."""
        return self.factory(config=config, options=options)

    def canonical_options(self, options: SimulationOptions) -> SimulationOptions:
        """Options as this model effectively simulates them (for cache keys)."""
        if self.options_canonicalizer is None:
            return options
        return self.options_canonicalizer(options)

    def describe(self) -> Dict[str, str]:
        """JSON-friendly metadata record (no instantiation needed)."""
        return {
            "name": self.name,
            "version": self.version,
            "description": self.description,
        }


_REGISTRY: Dict[str, AcceleratorSpec] = {}
_builtins_loaded = False


def _load_builtin_accelerators() -> None:
    """Import the modules that register the built-in accelerators.

    Deferred to the first registry lookup so that the registry module itself
    has no import-time dependency on the simulator stack (which in turn
    depends on :mod:`repro.accelerators.base`).
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from ..baseline import simulator as _baseline_simulator  # noqa: F401
    from ..core import simulator as _core_simulator  # noqa: F401
    from . import variants  # noqa: F401


def _normalize_name(name: str) -> str:
    key = str(name).strip().lower()
    if not key:
        raise ConfigurationError("accelerator name must be non-empty")
    return key


def register_accelerator(
    name: str, *, version: Optional[str] = None, description: str = ""
) -> Callable[[AcceleratorFactory], AcceleratorFactory]:
    """Class/function decorator adding an accelerator model to the registry.

    Accepts either a simulator class whose constructor takes keyword
    arguments ``config`` and ``options`` (the
    :class:`~repro.accelerators.base.GanSimulatorBase` signature) or a factory
    function with that signature.  The created model must report the
    registered name as its ``name`` — ``execute_job`` enforces this.
    Duplicate names are rejected — a model revision should bump ``version``,
    not shadow an existing entry.

    For classes, ``version`` defaults to the class's ``model_version``
    attribute, and an explicit ``version=`` argument is written back to it,
    so the registry's cache-keyed version and the instance's ``describe()``
    can never disagree.
    """
    key = _normalize_name(name)

    def decorator(obj: AcceleratorFactory) -> AcceleratorFactory:
        # Load the builtins first (no-op while they are mid-import) so a
        # custom registration can never accidentally shadow a built-in name.
        _load_builtin_accelerators()
        if key in _REGISTRY:
            raise ConfigurationError(
                f"accelerator '{key}' is already registered; "
                "unregister it first or pick a different name"
            )
        canonicalizer = None
        if inspect.isclass(obj):
            declared = getattr(obj, "accelerator_name", key)
            if declared != key:
                raise ConfigurationError(
                    f"class {obj.__name__} declares accelerator_name "
                    f"'{declared}' but is registered as '{key}'"
                )
            resolved_version = str(
                version if version is not None else getattr(obj, "model_version", "1")
            )
            obj.model_version = resolved_version  # keep describe() in sync
            canonicalizer = getattr(obj, "canonical_options", None)

            def factory(config=None, options=None):  # type: ignore[no-untyped-def]
                return obj(config=config, options=options)

        else:
            resolved_version = str(version if version is not None else "1")
            factory = obj
        doc = description or (inspect.getdoc(obj) or "").partition("\n")[0]
        _REGISTRY[key] = AcceleratorSpec(
            name=key,
            version=resolved_version,
            description=doc,
            factory=factory,
            options_canonicalizer=canonicalizer,
        )
        return obj

    return decorator


def unregister_accelerator(name: str) -> AcceleratorSpec:
    """Remove a registry entry (mainly for tests and plugin teardown)."""
    spec = get_accelerator(name)
    del _REGISTRY[spec.name]
    return spec


def accelerator_names() -> Tuple[str, ...]:
    """Every registered accelerator name, sorted for stable listings."""
    _load_builtin_accelerators()
    return tuple(sorted(_REGISTRY))


def get_accelerator(name: str) -> AcceleratorSpec:
    """Look up one accelerator's spec; unknown names raise a helpful error."""
    _load_builtin_accelerators()
    key = str(name).strip().lower()
    spec = _REGISTRY.get(key)
    if spec is None:
        raise UnknownAcceleratorError(name, accelerator_names())
    return spec


def create_accelerator(
    name: str,
    config: Optional[ArchitectureConfig] = None,
    options: Optional[SimulationOptions] = None,
) -> AcceleratorModel:
    """Instantiate a registered accelerator model by name."""
    return get_accelerator(name).create(config=config, options=options)
