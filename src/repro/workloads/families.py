"""Parameterized workload families and the ``family@args`` spec grammar.

A *spec string* addresses one point of a workload family's design space::

    dcgan@64x64          # geometry token: output resolution
    dcgan@32x32,ch512    # plus a channel-width knob
    artgan@ch128         # knob tokens only (resolution stays the default)
    3dgan@32x32x32       # cubic geometry for the voxel family
    synthetic@d8c256     # compact run of key<int> knobs: depth 8, width 256
    synthetic@d8,c256    # the same point, comma-separated
    dcgan@size=64        # explicit key=value spelling

Grammar::

    spec    := <name> | <family> "@" args
    args    := token ("," token)*
    token   := <N>x<N>[x<N>]      geometry (square / cubic), sets "size"
             | <key>=<int>        explicit assignment
             | (<key><int>)+      compact run, e.g. "d8c256z75"

Keys are family-specific (see each family's ``grammar`` / ``describe()``).
Equivalent spellings canonicalize to one spec name — and a family's default
parameter point resolves to the corresponding *built-in* paper workload, so
``dcgan@64x64`` **is** ``DCGAN``: same spec, same model cache entry, same
simulation-cache identity.

Each paper family builds its models with the one builder of its per-GAN
module (``build_dcgan`` and friends), whose defaults are the paper point,
and reads its default parameters from that module's ``DEFAULTS``; the
synthetic family uses :func:`repro.workloads.synthetic.build_synthetic` the
same way.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..nn.network import GANModel
from . import artgan, dcgan, discogan, gpgan, magan, synthetic, threed_gan
from .registry import (
    WorkloadSpec,
    prime_workload_cache,
    register_workload_family,
    resolve_workload,
)

_GEOMETRY = re.compile(r"^(\d+)x(\d+)(?:x(\d+))?$")
_COMPACT = re.compile(r"([a-z]+)(\d+)")


def parse_family_args(
    family: str,
    args: str,
    *,
    key_map: Mapping[str, str],
    defaults: Mapping[str, int],
    geometry_rank: Optional[int] = None,
) -> Dict[str, int]:
    """Parse a spec-string argument list into a full parameter mapping.

    ``key_map`` maps accepted token keys (including short aliases) to
    canonical parameter names; ``defaults`` supplies every unmentioned
    parameter.  ``geometry_rank`` enables ``NxN`` (rank 2) / ``NxNxN``
    (rank 3) tokens, which assign the ``size`` parameter.
    """
    params = dict(defaults)
    if not args.strip():
        raise WorkloadError(
            f"workload family '{family}' needs arguments after '@'; see "
            "'repro-experiments list-workloads' for the grammar"
        )
    for token in args.split(","):
        token = token.strip().lower()
        if not token:
            raise WorkloadError(f"{family}@{args}: empty argument token")
        geometry = _GEOMETRY.match(token)
        if geometry:
            if geometry_rank is None:
                raise WorkloadError(
                    f"{family}@{args}: family takes no geometry token '{token}'"
                )
            dims = [int(g) for g in geometry.groups() if g is not None]
            if len(dims) != geometry_rank or len(set(dims)) != 1:
                shape = "x".join(["<N>"] * geometry_rank)
                raise WorkloadError(
                    f"{family}@{args}: geometry '{token}' must be uniform "
                    f"{shape}"
                )
            params["size"] = dims[0]
            continue
        if "=" in token:
            key, _, value = token.partition("=")
            if not value.isdigit():
                raise WorkloadError(
                    f"{family}@{args}: '{token}' needs an integer value"
                )
            pairs = [(key, value)]
        else:
            pairs = _COMPACT.findall(token)
            if "".join(k + v for k, v in pairs) != token:
                raise WorkloadError(
                    f"{family}@{args}: cannot parse token '{token}'; expected "
                    "geometry (<N>x<N>), key=value, or a key<int> run"
                )
        for key, value in pairs:
            canonical = key_map.get(key)
            if canonical is None:
                raise WorkloadError(
                    f"{family}@{args}: unknown parameter '{key}'; accepted: "
                    + ", ".join(sorted(set(key_map)))
                )
            params[canonical] = int(value)
    return params


def _render_tokens(
    params: Mapping[str, int],
    defaults: Mapping[str, int],
    key_map: Mapping[str, str],
    *,
    geometry_rank: Optional[int] = None,
    order: Optional[Sequence[str]] = None,
    include_defaults: bool = False,
) -> str:
    """Canonical argument rendering: non-default params, fixed order.

    A lone ``size`` change renders as a geometry token (``NxN``); any other
    combination renders as one compact ``key<int>`` run using each
    parameter's *first* accepted key in ``key_map`` (the preferred spelling,
    e.g. ``ch128``, ``d8c256``, ``size32ch512``).  Either way the result
    parses back to the same parameters — canonical names must round-trip
    through the grammar, including the CLI's comma-separated ``--workloads``
    lists (so no commas).  Returns ``""`` when every parameter is default,
    unless ``include_defaults`` forces a full rendering.
    """
    preferred: Dict[str, str] = {}
    for alias, canonical in key_map.items():
        preferred.setdefault(canonical, alias)
    tokens = []
    for name in order if order is not None else defaults:
        value = params[name]
        if value == defaults[name] and not include_defaults:
            continue
        tokens.append((name, value))
    if len(tokens) == 1 and tokens[0][0] == "size" and geometry_rank is not None:
        return "x".join([str(tokens[0][1])] * geometry_rank)
    return "".join(f"{preferred[name]}{value}" for name, value in tokens)


def make_family_resolver(
    family: str,
    build: Callable[..., GANModel],
    *,
    key_map: Mapping[str, str],
    defaults: Mapping[str, int],
    version: str,
    description: str,
    geometry_rank: Optional[int] = None,
    builtin: Optional[str] = None,
    order: Optional[Sequence[str]] = None,
) -> Callable[[str], WorkloadSpec]:
    """A resolver closing over one family's grammar, defaults and builder."""

    def resolver(args: str) -> WorkloadSpec:
        params = parse_family_args(
            family,
            args,
            key_map=key_map,
            defaults=defaults,
            geometry_rank=geometry_rank,
        )
        canonical_args = _render_tokens(
            params, defaults, key_map, geometry_rank=geometry_rank, order=order
        )
        if not canonical_args:
            if builtin is not None:
                # The family's default point *is* the paper workload: share
                # its spec, model cache entry and simulation-cache identity.
                return resolve_workload(builtin)
            # No builtin anchor: render every parameter so the canonical
            # name still parses back through the grammar in a fresh process.
            canonical_args = _render_tokens(
                params,
                defaults,
                key_map,
                geometry_rank=geometry_rank,
                order=order,
                include_defaults=True,
            )
        name = f"{family}@{canonical_args}"
        params_record = tuple(sorted(params.items()))

        def builder() -> GANModel:
            return build(**params)

        spec = WorkloadSpec(
            name=name,
            family=family,
            version=version,
            description=f"{description} [{', '.join(f'{k}={v}' for k, v in params_record)}]",
            builder=builder,
            params=params_record,
        )
        # Fail fast — out-of-range knobs surface at resolve time — and keep
        # the validation build: prime the registry's model cache with it so
        # first resolution does not construct the model twice.
        prime_workload_cache(spec, spec.build())
        return spec

    return resolver


def _register_paper_family(
    family: str,
    build: Callable[..., GANModel],
    *,
    builtin: str,
    defaults: Mapping[str, int],
    key_map: Mapping[str, str],
    grammar: str,
    description: str,
    default_variants: Sequence[str],
    geometry_rank: Optional[int] = 2,
    version: str = "1",
) -> None:
    register_workload_family(
        family,
        make_family_resolver(
            family,
            build,
            key_map=key_map,
            defaults=defaults,
            version=version,
            description=description,
            geometry_rank=geometry_rank,
            builtin=builtin,
        ),
        version=version,
        description=description,
        grammar=grammar,
        default_variants=default_variants,
    )


#: Shared knob aliases of the DCGAN-recipe families.
_RECIPE_KEYS = {
    "size": "size",
    "ch": "base_channels",
    "c": "base_channels",
    "latent": "latent_dim",
    "l": "latent_dim",
}

_register_paper_family(
    "dcgan",
    dcgan.build_dcgan,
    builtin="DCGAN",
    defaults=dcgan.DEFAULTS,
    key_map=_RECIPE_KEYS,
    grammar="dcgan@<N>x<N>[,ch<C>][,latent<L>]",
    description="DCGAN recipe at a chosen resolution and channel width",
    default_variants=("32x32", "128x128", "ch512"),
)

_register_paper_family(
    "artgan",
    artgan.build_artgan,
    builtin="ArtGAN",
    defaults=artgan.DEFAULTS,
    key_map=_RECIPE_KEYS,
    grammar="artgan@<N>x<N>[,ch<C>][,latent<L>]",
    description="ArtGAN recipe at a chosen resolution and channel width",
    default_variants=("64x64", "ch128"),
)

_register_paper_family(
    "gpgan",
    gpgan.build_gpgan,
    builtin="GP-GAN",
    defaults=gpgan.DEFAULTS,
    key_map=_RECIPE_KEYS,
    grammar="gpgan@<N>x<N>[,ch<C>][,latent<L>]",
    description="GP-GAN blending recipe at a chosen resolution and channel width",
    default_variants=("32x32", "128x128"),
)

_register_paper_family(
    "3dgan",
    threed_gan.build_threed_gan,
    builtin="3D-GAN",
    defaults=threed_gan.DEFAULTS,
    key_map=_RECIPE_KEYS,
    grammar="3dgan@<N>x<N>x<N>[,ch<C>][,latent<L>]",
    description="3D-GAN recipe on a chosen voxel grid",
    default_variants=("16x16x16", "32x32x32"),
    geometry_rank=3,
)

_register_paper_family(
    "discogan",
    discogan.build_discogan,
    builtin="DiscoGAN",
    defaults=discogan.DEFAULTS,
    key_map={"size": "size", "ch": "base_channels", "c": "base_channels"},
    grammar="discogan@<N>x<N>[,ch<C>]",
    description="DiscoGAN translator at a chosen resolution and bottleneck width",
    default_variants=("128x128", "ch512"),
)

_register_paper_family(
    "magan",
    magan.build_magan,
    builtin="MAGAN",
    defaults=magan.DEFAULTS,
    key_map={"ch": "base_channels", "c": "base_channels", "latent": "latent_dim", "l": "latent_dim"},
    grammar="magan@ch<C>[,latent<L>]",
    description="MAGAN topology at a chosen channel width",
    default_variants=("ch128", "ch256"),
    geometry_rank=None,
)

register_workload_family(
    "synthetic",
    make_family_resolver(
        "synthetic",
        synthetic.build_synthetic,
        key_map={
            "d": "depth",
            "depth": "depth",
            "c": "base_channels",
            "ch": "base_channels",
            "k": "kernel",
            "s": "stride",
            "z": "upsample_percent",
            "latent": "latent_dim",
            "l": "latent_dim",
        },
        defaults=dict(synthetic.DEFAULTS),
        version="1",
        description="synthetic DCGAN-style stress generator",
        order=("depth", "base_channels", "kernel", "stride", "upsample_percent", "latent_dim"),
    ),
    version="1",
    description=(
        "synthetic stress GANs: depth/channel/stride knobs plus z<percent> "
        "controlling the inserted-zero density"
    ),
    grammar="synthetic@d<depth>c<channels>[k<kernel>][s<stride>][z<percent>]",
    default_variants=("d4c64", "d6c128z100", "d8c256"),
)
