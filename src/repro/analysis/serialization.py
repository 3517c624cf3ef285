"""Flatten comparison results into rows, plus content fingerprints for the
simulation cache.

Downstream users typically want the regenerated figure data in a form their
own plotting pipeline can ingest.  :func:`multi_comparison_rows` flattens
N-way comparisons into one row per (model, accelerator), without adding any
plotting dependencies to the library.

It also defines the **canonical serialization** of the simulation inputs —
:class:`~repro.config.ArchitectureConfig`, :class:`~repro.config.
SimulationOptions` and the workload structure — and deterministic SHA-256
fingerprints over them (:func:`config_fingerprint`, :func:`options_fingerprint`,
:func:`workload_fingerprint`).  The runner subsystem
(:mod:`repro.runner`) keys its content-addressed result cache on these
fingerprints, so they must be stable across processes, field ordering and
Python versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Tuple

from ..config import ArchitectureConfig, SimulationOptions
from ..errors import AnalysisError
from ..nn.layers import LayerSpec
from ..nn.network import GANModel, LayerBinding, Network
from ..nn.shapes import FeatureMapShape
from ..schedule import resolve_schedule, schedule_fingerprint
from .results import MultiComparison


# ----------------------------------------------------------------------
# Canonical serialization and content fingerprints
# ----------------------------------------------------------------------
def canonical_json(data: Any) -> str:
    """Serialize ``data`` as canonical JSON (sorted keys, no whitespace).

    Two structurally equal values produce byte-identical JSON regardless of
    insertion order, which is the property the cache fingerprints rely on.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_data(data: Any) -> str:
    """SHA-256 hex digest of the canonical JSON serialization of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


@lru_cache(maxsize=1024)
def config_fingerprint(config: ArchitectureConfig) -> str:
    """Deterministic content hash of an :class:`ArchitectureConfig`.

    Stable across field ordering of the source mapping (the canonical
    serialization sorts keys) and across processes; changes whenever any
    configuration field — in particular every swept field reachable through
    ``with_updates`` — changes.  Memoized: configs are frozen dataclasses, so
    equal configs share one computed hash.
    """
    return fingerprint_data(config.to_mapping())


@lru_cache(maxsize=1024)
def options_fingerprint(options: SimulationOptions) -> str:
    """Deterministic content hash of a :class:`SimulationOptions` (memoized)."""
    return fingerprint_data(options.to_mapping())


def _network_structure(network: Network) -> Dict[str, Any]:
    return {
        "name": network.name,
        "input_shape": {
            "channels": network.input_shape.channels,
            "spatial": list(network.input_shape.spatial),
        },
        "layers": [
            {"kind": type(layer).__name__, **dataclasses.asdict(layer)}
            for layer in network.layers
        ],
    }


def workload_structure(model: GANModel) -> Dict[str, Any]:
    """JSON-friendly structural description of a GAN workload.

    Captures everything that influences a simulation result: the model name,
    the discriminator accounting rule, and both networks' layer stacks with
    their input shapes.
    """
    return {
        "name": model.name,
        "discriminator_conv_only": model.discriminator_conv_only,
        "generator": _network_structure(model.generator),
        "discriminator": _network_structure(model.discriminator),
    }


@lru_cache(maxsize=4096)
def _layer_structure_fingerprint(layer: LayerSpec, input_shape: FeatureMapShape) -> str:
    """Content hash of one layer's shape-relevant structure.

    Deliberately excludes the layer *name*: two layers with identical
    parameters and input shapes produce identical simulation activity, so the
    layer-grain memo shares one entry between them (the runner rewrites the
    name on a hit).  Memoized per (layer, input_shape) — both are frozen
    dataclasses, so repeated sweeps over the same network pay the JSON walk
    once — and cached per binding as ``LayerBinding.structure_fingerprint``,
    so each binding hashes its layer and shape once.
    """
    structure = {"kind": type(layer).__name__, **dataclasses.asdict(layer)}
    structure.pop("name", None)
    structure["input_shape"] = {
        "channels": input_shape.channels,
        "spatial": list(input_shape.spatial),
    }
    return fingerprint_data(structure)


@lru_cache(maxsize=1024)
def _simulation_context_fingerprint(
    accelerator_name: str,
    accelerator_version: str,
    config: ArchitectureConfig,
    options: SimulationOptions,
    schedule_knobs: str,
) -> str:
    """Content hash of everything about a simulation *except* the layer.

    The schedule enters twice, deliberately: the canonical spec string rides
    in ``options.to_mapping()``, and ``schedule_knobs`` — the resolved spec's
    :func:`~repro.schedule.schedule_fingerprint` — is both hashed and part of
    the memo key, so a re-registered schedule name with *different* knobs can
    never be served a digest computed under the old knobs.
    """
    return fingerprint_data(
        {
            "accelerator": {"name": accelerator_name, "version": accelerator_version},
            "config": config.to_mapping(),
            "options": options.to_mapping(),
            "schedule": schedule_knobs,
        }
    )


def layer_memo_context(
    accelerator_name: str,
    accelerator_version: str,
    config: ArchitectureConfig,
    options: SimulationOptions,
) -> str:
    """The context half of a layer-memo key: one digest per job.

    Resolves the schedule on every call, so the knobs registered *now* pick
    the memoized digest.  Callers must pass options already canonicalized
    for the accelerator (``spec.canonical_options``).
    """
    return _simulation_context_fingerprint(
        accelerator_name,
        accelerator_version,
        config,
        options,
        schedule_fingerprint(resolve_schedule(options.schedule)),
    )


def layer_memo_key(binding: LayerBinding, context: str) -> Tuple[str, str]:
    """The layer-memo key of ``binding`` under a :func:`layer_memo_context`.

    An exact tuple of two memoized digests — the context and the layer's
    structure (name excluded, cached on the binding as
    ``LayerBinding.structure_fingerprint``) — so a lookup pays no JSON walk,
    no SHA-256 and no hashing of the layer and shape dataclasses.
    :func:`layer_fingerprint` is the content digest of the same two parts.
    """
    return (context, binding.structure_fingerprint)


@lru_cache(maxsize=16384)
def layer_fingerprint(
    binding: LayerBinding,
    accelerator_name: str,
    accelerator_version: str,
    config: ArchitectureConfig,
    options: SimulationOptions,
) -> str:
    """Deterministic content hash identifying one layer-grain simulation.

    The SHA-256 content digest of the layer-memo key: the layer's structural
    fingerprint (parameters + input shape, name excluded) and the simulation
    context (accelerator identity and version, architecture configuration,
    canonicalized options, schedule knobs).  Two bindings from *different*
    workloads that share a layer shape under the same context fingerprint
    identically — the property the runner's layer memo exploits.  Two memo
    keys are equal exactly when their fingerprints are.  Callers must pass
    options already canonicalized for the accelerator
    (``spec.canonical_options``) so ignored option fields collapse.

    Memoized per argument tuple, which names the schedule but not its knobs:
    clear the cache after re-registering a schedule name.  The runner's job
    path keys its memo by :func:`layer_memo_key` and never calls this.
    """
    context, layer = layer_memo_key(
        binding,
        layer_memo_context(accelerator_name, accelerator_version, config, options),
    )
    return fingerprint_data({"layer": layer, "context": context})


@lru_cache(maxsize=256)
def workload_fingerprint(model: GANModel) -> str:
    """Deterministic content hash of a GAN workload's structure.

    Two models with the same layers and shapes fingerprint identically even
    if they are distinct Python objects, so cached results survive model
    rebuilds (and registry cache clears) across processes.  Memoized per
    model object (hashing a whole layer stack costs ~0.5 ms, which would
    otherwise dominate warm-cache sweeps).
    """
    return fingerprint_data(workload_structure(model))


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
def multi_comparison_rows(
    comparisons: Mapping[str, MultiComparison]
) -> List[Dict[str, object]]:
    """One row per (model, accelerator) with the baseline-relative metrics."""
    if not comparisons:
        raise AnalysisError("no comparisons to serialise")
    rows: List[Dict[str, object]] = []
    for name, comparison in comparisons.items():
        for accelerator in comparison.accelerators:
            result = comparison.result(accelerator)
            rows.append(
                {
                    "model": name,
                    "accelerator": accelerator,
                    "baseline": comparison.baseline,
                    "speedup": comparison.generator_speedup(accelerator),
                    "energy_reduction": comparison.generator_energy_reduction(
                        accelerator
                    ),
                    "pe_utilization": comparison.generator_utilization(accelerator),
                    "generator_cycles": result.generator.cycles,
                    "generator_energy_pj": result.generator.energy_pj,
                }
            )
    return rows
