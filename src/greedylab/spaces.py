"""Space descriptors: build a NormOracle from a text descriptor.

Descriptors: `kt:N=8`, `ktsum:c0`, `ktsum:l2`, `parity`, `schreier:a=1`,
`james:a=1`, `walpha:a=1[,blocks=2][,n0=2]`.  Each space has one evaluator,
`evaluate(x, want_functional=False)`, whose norm functions are read from this
module's namespace, so a wrapper set there sees every evaluation.  A space
may also carry a floor (`NormOracle.floor`): the Euclidean norm for `kt` (its
norm is the larger of that and the partial sums) and `ktsum:l2` (each block's
norm is at least the block's Euclidean norm), and for `james` the family sup
norm at its level (S_alpha lies in the relaxed family, and singleton
intervals on a member F are worth sum_{n in F} |x_n|).
"""

from __future__ import annotations

from .family_norms import (interval_functional, jamesification_norm,
                           schreier_alpha_norm, sup_functional,
                           weighted_schreier_norm)
from .norms import (NormDomainError, NormOracle, block_sum_norm, kt_block_norm,
                    mixed_parity_norm, squares)
from .ordinals import parse_ordinal
from .rah import make_weight_family
from .schreier import FamilyError

# the option keys each space takes; ktsum's body names its outer aggregate
_OPTION_KEYS = {"kt": {"N"}, "parity": set(), "schreier": {"a"}, "james": {"a"},
                "walpha": {"a", "blocks", "n0"}}


def _parse_options(head: str, body: str) -> dict:
    out = {}
    for chunk in body.split(",") if body else ():
        key, eq, val = chunk.partition("=")
        if not eq:
            raise NormDomainError(f"bad space option {chunk!r}")
        out[key.strip()] = val.strip()
    unknown = sorted(out.keys() - _OPTION_KEYS[head])
    if unknown:
        raise NormDomainError(f"space {head} takes no option {unknown[0]!r}")
    return out


def make_space(descriptor: str) -> NormOracle:
    descriptor = descriptor.strip()
    head, _, body = descriptor.partition(":")
    opts = _parse_options(head, body) if head in _OPTION_KEYS else {}

    if head == "kt":
        try:
            N = int(opts["N"])
        except (KeyError, ValueError):
            raise NormDomainError(f"kt space needs N=<int>, got {descriptor!r}")
        if N < 1:
            raise NormDomainError(f"kt space needs N >= 1, got {descriptor!r}")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, want=False: kt_block_norm(x, N, want),
            dimension_cap=2 * N - 1,
            certified={"Cw": 3.0 + 2.0 ** 0.5},
            meta={"window": N},
            floor=squares,
        )
    if head == "ktsum":
        outer = body or "c0"
        if outer not in ("c0", "l2"):
            raise NormDomainError(f"ktsum outer must be c0 or l2, got {outer!r}")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, want=False: block_sum_norm(x, outer, want),
            dimension_cap=4096,
            floor=squares if outer == "l2" else None,
        )
    if head == "parity":
        return NormOracle(
            name="parity",
            evaluate=mixed_parity_norm,
            certified={"Ks": 1.0},
        )
    if head == "schreier":
        alpha = parse_ordinal(opts.get("a", "1"))
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, want=False: (sup_functional(x, alpha) if want
                                            else schreier_alpha_norm(x, alpha)),
            certified={"Ks": 1.0},
        )
    if head == "james":
        alpha = parse_ordinal(opts.get("a", "1"))
        if not alpha.is_successor:
            raise FamilyError("james space needs a successor level")
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, want=False: (interval_functional(x, alpha) if want
                                            else jamesification_norm(x, alpha)),
            dimension_cap=512,
            certified={"Cl": 1.0},
            floor=lambda z: schreier_alpha_norm(z, alpha) ** 2,
        )
    if head == "walpha":
        alpha = parse_ordinal(opts.get("a", "1"))
        try:
            blocks, n0 = int(opts.get("blocks", "2")), int(opts.get("n0", "2"))
        except ValueError:
            raise NormDomainError(f"walpha blocks and n0 are ints, got {descriptor!r}")
        family = make_weight_family(alpha, blocks, n0)
        return NormOracle(
            name=descriptor,
            evaluate=lambda x, want=False: weighted_schreier_norm(x, family, want),
            dimension_cap=1 << 62,
            certified={"Ks": 1.0},
        )
    raise NormDomainError(f"unknown space descriptor {descriptor!r}")
