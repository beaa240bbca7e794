"""Space descriptors: build a NormOracle from a text descriptor.

Descriptors: `kt:N=8`, `ktsum:c0`, `ktsum:l2`, `parity`, `schreier:a=1`,
`james:a=1`, `walpha:a=1[,blocks=2][,n0=2]`.
"""

from __future__ import annotations

from .family_norms import (interval_functional, jamesification_norm,
                           schreier_alpha_norm, weighted_schreier_norm)
from .norms import (NormDomainError, NormOracle, block_sum_norm, kt_block_norm,
                    mixed_parity_norm)
from .ordinals import parse_ordinal
from .rah import make_weight_family
from .schreier import FamilyError


def _parse_options(body: str) -> dict:
    out = {}
    if not body:
        return out
    for chunk in body.split(","):
        if "=" not in chunk:
            raise NormDomainError(f"bad space option {chunk!r}")
        key, val = chunk.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def make_space(descriptor: str) -> NormOracle:
    descriptor = descriptor.strip()
    head, _, body = descriptor.partition(":")
    opts = _parse_options(body) if head in ("kt", "schreier", "james", "walpha") else {}

    if head == "kt":
        try:
            N = int(opts["N"])
        except (KeyError, ValueError):
            raise NormDomainError(f"kt space needs N=<int>, got {descriptor!r}")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, N=N: kt_block_norm(x, N),
            dimension_cap=2 * N - 1,
            functional=lambda x, N=N: kt_block_norm(x, N, want_witness=True),
            certified={"Cw": 3.0 + 2.0 ** 0.5},
            meta={"window": N},
        )
    if head == "ktsum":
        outer = body or "c0"
        if outer not in ("c0", "l2"):
            raise NormDomainError(f"ktsum outer must be c0 or l2, got {outer!r}")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, outer=outer: block_sum_norm(x, outer),
            dimension_cap=4096,
            functional=lambda x, outer=outer: block_sum_norm(x, outer, want_witness=True),
            meta={"outer": outer},
        )
    if head == "parity":
        return NormOracle(
            name="parity",
            evaluate=mixed_parity_norm,
            dimension_cap=1_000_000,
            certified={"Ks": 1.0},
        )
    if head == "schreier":
        alpha = parse_ordinal(opts.get("a", "1"))
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, a=alpha: schreier_alpha_norm(x, a),
            dimension_cap=1_000_000,
            witness_fn=lambda x, a=alpha: schreier_alpha_norm(x, a, want_witness=True),
            certified={"Ks": 1.0},
        )
    if head == "james":
        alpha = parse_ordinal(opts.get("a", "1"))
        if not alpha.is_successor:
            raise FamilyError("james space needs a successor level")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, a=alpha: jamesification_norm(x, a),
            dimension_cap=512,
            functional=lambda x, a=alpha: interval_functional(x, a),
            witness_fn=lambda x, a=alpha: jamesification_norm(x, a, want_witness=True),
            certified={"Cl": 1.0},
        )
    if head == "walpha":
        alpha = parse_ordinal(opts.get("a", "1"))
        blocks = int(opts.get("blocks", "2"))
        n0 = int(opts.get("n0", "2"))
        family = make_weight_family(alpha, blocks, n0)
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, fam=family: weighted_schreier_norm(x, fam),
            dimension_cap=1 << 62,
            certified={"Ks": 1.0},
            meta={"family": family},
        )
    raise NormDomainError(f"unknown space descriptor {descriptor!r}")
