"""greedylab command line interface."""

from __future__ import annotations

import argparse
import math
import sys
from itertools import combinations

from .config import BudgetExceeded
from .greedy import (GreedyError, SearchSpec, TheoremSuiteSpec,
                     estimate_constant, greedy_set, theorem_suite)
from .harness import (ConfigError, ExperimentSpec, json_text, list_experiments,
                      parse_config, run_experiment, write_csv, write_json)
from .norms import NormDomainError
from .ordinals import OrdinalError, parse_ordinal
from .rah import IndexStream, rah_schreier_bound_search, rah_sequence
from .schreier import FamilyError, FamilyHandle, check_index_set, family_subsets
from .spaces import make_space
from .vectors import SparseVector, VectorError


def _emit(payload):
    print(json_text(payload))


def _finite_norm(oracle, x, want_functional=False):
    """oracle.norm, refused past the float range: JSON has no Infinity, and
    an overflowed norm comes with no norming functional."""
    result = oracle.norm(x, want_functional)
    if (result[0] if want_functional else result) == math.inf:
        raise NormDomainError(f"the norm in space {oracle.name} overflows floats")
    return result


def _parse_set(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        items = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise FamilyError(f"not a comma-separated list of integers: {text!r}") from None
    return check_index_set(items)


def _cmd_family_check(args):
    handle = FamilyHandle.parse(args.family)
    E = _parse_set(args.set)
    _emit({"family": handle.label, "set": list(E), "member": handle.contains(E)})


def _cmd_family_enumerate(args):
    handle = FamilyHandle.parse(args.family)
    members = set(family_subsets(handle, args.universe, args.max_size))
    rows = []
    for size in range(args.max_size + 1):
        for combo in combinations(range(1, args.universe + 1), size):
            rows.append((";".join(map(str, combo)), int(combo in members)))
    if args.out:
        write_csv(args.out, ("set", "member"), rows)
        _emit({"family": handle.label, "written": args.out, "rows": len(rows)})
    else:
        for row in rows:
            print(f"{row[0]},{row[1]}")


def _cmd_norm_eval(args):
    oracle = make_space(args.space)
    x = SparseVector.parse(args.vec)
    value, f = _finite_norm(oracle, x, want_functional=True)
    _emit({"space": args.space, "norm": value, "functional": f.to_wire()})


def _cmd_tga_run(args):
    oracle = make_space(args.space)
    x = SparseVector.parse(args.vec)
    res = greedy_set(x, args.m, dimension_cap=oracle.dimension_cap)
    payload = {
        "space": args.space,
        "m": res.order,
        "greedy_set": list(res.greedy_set),
        "approximant": res.approximant.to_wire(),
        "residual": res.residual.to_wire(),
        "tie_flag": res.tie_flag,
        "norm_x": _finite_norm(oracle, x),
        "norm_residual": _finite_norm(oracle, res.residual),
    }
    _emit(payload)


def _cmd_constants_estimate(args):
    spec = SearchSpec(seed=args.seed, samples=args.samples,
                      template=args.template)
    estimate = estimate_constant(args.name, make_space(args.space),
                                 FamilyHandle.parse(args.family), spec)
    report = {**estimate.to_dict(), "space": args.space, "family": args.family}
    if args.out:
        write_json(args.out, report)
    _emit(report)


def _cmd_theorems_check(args):
    oracle = make_space(args.space)
    family = FamilyHandle.parse(args.family)
    report = theorem_suite(oracle, family, TheoremSuiteSpec(seed=args.seed))
    if args.out:
        write_json(args.out, report)
    _emit(report)


def _cmd_rah_build(args):
    alpha = parse_ordinal(args.alpha)
    stream = IndexStream.naturals(args.min)
    try:
        vecs, budget_error = rah_sequence(alpha, stream, args.blocks), None
    except BudgetExceeded as exc:
        vecs, budget_error = exc.attained or [], str(exc)
    payload = _rah_payload(args, vecs, budget_error)
    if args.out:
        write_json(args.out, payload)
    if budget_error:
        _emit(payload)
        return 3
    _emit({"alpha": args.alpha, "blocks": len(vecs),
           "supports": [[v.min_index(), v.max_index()] for v in vecs],
           "out": args.out})
    return 0


def _rah_payload(args, vecs, budget_error=None):
    blocks = [{"support": [v.min_index(), v.max_index()],
               "coeffs": list(v.entries.values())} for v in vecs]
    payload = {"alpha": args.alpha, "M_min": args.min, "blocks": blocks,
               "certificates": {
                   "l1_mass_one": all(v.l1_norm() == 1 for v in vecs),
                   "coefficient_cap": all(
                       v.inf_norm() * v.min_index() <= 1 for v in vecs),
               }}
    if budget_error:
        payload["budget_error"] = budget_error
    return payload


def _cmd_rah_ppp1(args):
    try:
        cert = rah_schreier_bound_search(parse_ordinal(args.alpha),
                                         parse_ordinal(args.beta), args.N)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(cert.to_dict())


def _cmd_repro(args):
    if args.config:
        spec = parse_config(args.config)
        if args.name and spec.experiment != args.name:
            raise ConfigError(
                f"config names {spec.experiment!r} but the command line says "
                f"{args.name!r}")
    else:
        if not args.name:
            raise ConfigError("name an experiment or pass --config")
        spec = ExperimentSpec(args.name)
    summary = run_experiment(spec, args.out)
    _emit(summary)
    return 0 if summary["status"] == "PASS" else 1


def _cmd_list(_args):
    for name, desc in list_experiments():
        print(f"{name}: {desc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greedylab",
        description="thresholding greedy laboratory over set families")
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="family membership and enumeration")
    fam_sub = family.add_subparsers(dest="subcommand", required=True)
    check = fam_sub.add_parser("check")
    check.add_argument("--family", required=True)
    check.add_argument("--set", required=True)
    check.set_defaults(fn=_cmd_family_check)
    enum = fam_sub.add_parser("enumerate")
    enum.add_argument("--family", required=True)
    enum.add_argument("--universe", type=int, required=True)
    enum.add_argument("--max-size", type=int, required=True)
    enum.add_argument("--out")
    enum.set_defaults(fn=_cmd_family_enumerate)

    norm = sub.add_parser("norm", help="norm evaluation")
    norm_sub = norm.add_subparsers(dest="subcommand", required=True)
    neval = norm_sub.add_parser("eval")
    neval.add_argument("--space", required=True)
    neval.add_argument("--vec", required=True)
    neval.set_defaults(fn=_cmd_norm_eval)

    tga = sub.add_parser("tga", help="thresholding greedy algorithm")
    tga_sub = tga.add_subparsers(dest="subcommand", required=True)
    trun = tga_sub.add_parser("run")
    trun.add_argument("--space", required=True)
    trun.add_argument("--vec", required=True)
    trun.add_argument("--m", type=int, required=True)
    trun.set_defaults(fn=_cmd_tga_run)

    consts = sub.add_parser("constants", help="constant estimators")
    consts_sub = consts.add_subparsers(dest="subcommand", required=True)
    cest = consts_sub.add_parser("estimate")
    cest.add_argument("--space", required=True)
    cest.add_argument("--family", required=True)
    cest.add_argument("--name", required=True)
    cest.add_argument("--samples", type=int, default=200)
    cest.add_argument("--seed", type=int, default=0)
    cest.add_argument("--template")
    cest.add_argument("--out")
    cest.set_defaults(fn=_cmd_constants_estimate)

    theorems = sub.add_parser("theorems", help="characterization cross-checks")
    theorems_sub = theorems.add_subparsers(dest="subcommand", required=True)
    tcheck = theorems_sub.add_parser("check")
    tcheck.add_argument("--space", required=True)
    tcheck.add_argument("--family", default="s:1")
    tcheck.add_argument("--seed", type=int, default=0)
    tcheck.add_argument("--out")
    tcheck.set_defaults(fn=_cmd_theorems_check)

    rah = sub.add_parser("rah", help="repeated averages")
    rah_sub = rah.add_subparsers(dest="subcommand", required=True)
    rbuild = rah_sub.add_parser("build")
    rbuild.add_argument("--alpha", required=True)
    rbuild.add_argument("--min", type=int, default=3)
    rbuild.add_argument("--blocks", type=int, default=1)
    rbuild.add_argument("--out")
    rbuild.set_defaults(fn=_cmd_rah_build)
    rppp1 = rah_sub.add_parser("ppp1")
    rppp1.add_argument("--alpha", required=True)
    rppp1.add_argument("--beta", required=True)
    rppp1.add_argument("--N", type=int, required=True)
    rppp1.set_defaults(fn=_cmd_rah_ppp1)

    repro = sub.add_parser("repro", help="run a registered experiment")
    repro.add_argument("name", nargs="?")
    repro.add_argument("--config")
    repro.add_argument("--out", default="out")
    repro.set_defaults(fn=_cmd_repro)

    lst = sub.add_parser("list", help="list experiments")
    lst.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    for flag in ("blocks", "universe", "max_size", "samples"):
        if getattr(args, flag, 0) < 0:
            print(f"error: --{flag.replace('_', '-')} must be at least 0, got "
                  f"{getattr(args, flag)}", file=sys.stderr)
            return 2
    try:
        result = args.fn(args)
    except (FamilyError, VectorError, ConfigError, BudgetExceeded,
            NormDomainError, OrdinalError, GreedyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(result) if result is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
