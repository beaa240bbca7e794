"""Experiment registry with deterministic CSV/JSON outputs and config parsing.

Each experiment reproduces one construction end to end and grades itself:
every check reports PASS, FAIL (with witness) or BUDGET.  Identical specs
produce byte-identical output files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .config import BudgetExceeded
from .family_norms import jamesification_norm, weighted_schreier_norm
from .norms import kt_block_norm
from .ordinals import Ordinal, OrdinalError, parse_ordinal
from .rah import (IndexStream, ShiftedInt, democracy_growth_table,
                  int_descriptor, make_weight_family, rah_sequence,
                  weight_family_certificates)
from .schreier import min_level_find
from .spaces import make_space
from .vectors import SparseVector, sorted_sample


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_text(self) -> str:
        lines = [f"experiment = {self.experiment}", f"seed = {self.seed}"]
        for key in sorted(self.params):
            lines.append(f"{key} = {self.params[key]}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed,
                "params": {k: self.params[k] for k in sorted(self.params)}}


@dataclass
class ExperimentDef:
    """`defaults` declares the parameters: each parses as its default's type
    (a text default is an ordinal); an integer one is a count, at least 0,
    and at least its `least` entry where the runner needs more.  Each
    (lo, hi) pair of `ordered` bounds a range the runner walks, which must
    not be empty."""
    runner: object
    defaults: dict
    description: str
    least: dict = field(default_factory=dict)
    ordered: tuple = ()


def _check_ordinal(raw):
    parse_ordinal(str(raw))
    return str(raw)


def _check_type(experiment, key, val):
    """Refuse a parameter given as a value `parse_config` could not have
    read: an integer default takes an int that is not a bool, a text
    default a string `_check_ordinal` accepts."""
    name = f"parameter {key!r} of {experiment}"
    if isinstance(EXPERIMENTS[experiment].defaults[key], int):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
    elif not isinstance(val, str):
        raise ConfigError(f"{name} must be an ordinal's text, got {val!r}")
    else:
        try:
            _check_ordinal(val)
        except OrdinalError as exc:
            raise ConfigError(f"{name}: {exc}") from None


def parse_config(path) -> ExperimentSpec:
    """Parse the flat `key = value` format; unknown keys and bad values are
    rejected with their line number."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the config: {exc}") from None
    experiment = None
    seed = 0
    raw_params = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "experiment":
            experiment = val
        elif key == "seed":
            try:
                seed = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: seed must be an integer, got {val!r}")
        else:
            raw_params[key] = (val, lineno)
    if experiment is None:
        raise ConfigError("config names no experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    definition = EXPERIMENTS[experiment]
    params = dict(definition.defaults)
    for key, (val, lineno) in raw_params.items():
        if key not in definition.defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for {experiment}")
        parse = int if isinstance(definition.defaults[key], int) else _check_ordinal
        try:
            params[key] = parse(val)
        except (ValueError, OrdinalError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    return ExperimentSpec(experiment, params, seed)


def _sanitize(obj):
    """Make results JSON-safe: big integers and ShiftedInt forms become
    descriptors, Fractions become num/den pairs."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": _sanitize(obj.numerator), "den": _sanitize(obj.denominator)}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, ShiftedInt)):
        return int_descriptor(obj)
    return obj


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int) and not isinstance(value, bool):
        if value.bit_length() <= 63:
            return str(value)
        return f"bits:{value.bit_length()}"
    if isinstance(value, Fraction):
        return f"{_csv_cell(value.numerator)}/{_csv_cell(value.denominator)}"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def json_text(payload) -> str:
    """The JSON every writer emits: sanitized, keys sorted, indent 2."""
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2)


def write_json(path, payload):
    Path(path).write_text(json_text(payload) + "\n")


def _check(name, witness, refused=False, **fields):
    """A check that fails with its witness; without one it passes, or reads
    BUDGET when some of its inputs were `refused`."""
    status = "FAIL" if witness else "BUDGET" if refused else "PASS"
    return {"name": name, "status": status, "witness": witness, **fields}


def _summary(spec, checks):
    status = "PASS"
    if any(c["status"] == "FAIL" for c in checks):
        status = "FAIL"
    elif any(c["status"] == "BUDGET" for c in checks):
        status = "BUDGET"
    return {"experiment": spec.experiment, "spec": spec.to_dict(),
            "checks": checks, "status": status}


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_kt_00(spec, out_dir):
    lo, hi = spec.params["n_min"], spec.params["n_max"]
    rows = []
    bad = None
    harmonic = sum(Fraction(1, i) for i in range(1, lo))  # exact, H_(N-1)
    for N in range(lo, hi + 1):
        pos = SparseVector({i: 1.0 / math.sqrt(i - N + 1) for i in range(N, 2 * N)})
        alt = SparseVector({i: ((-1) ** i) / math.sqrt(i - N + 1)
                            for i in range(N, 2 * N)})
        pn = kt_block_norm(pos, N)
        an = kt_block_norm(alt, N)
        rows.append((N, pn, an, pn / an))
        harmonic += Fraction(1, N)
        h = float(harmonic)
        if abs(pn - h) > 1e-12 * h or abs(an - math.sqrt(h)) > 1e-12 * math.sqrt(h):
            bad = bad or {"N": N, "positive": pn, "alternating": an, "harmonic": h}
    write_csv(out_dir / "repro-kt-00.csv",
              ("N", "positive_norm", "alternating_norm", "ratio"), rows)
    return [_check("closed-forms", bad)]


def _run_parity(spec, out_dir):
    hi = spec.params["n_max"]
    space = make_space("parity")
    rows = []
    bad = None
    for N in range(1, hi + 1):
        A = tuple(range(1, 2 * N, 2))
        B = tuple(range(2 * N, 4 * N - 1, 2))
        na = space.norm(SparseVector.indicator(A, 1.0))
        nb = space.norm(SparseVector.indicator(B, 1.0))
        # A is purely odd and B purely even, so both squared norms are exact
        # integers; taking one square root of their exact quotient avoids the
        # double rounding a float division would add
        ratio = math.sqrt((len(B) * len(B)) / len(A))
        consistent = (na == math.sqrt(len(A)) and nb == float(len(B)))
        rows.append((N, na, nb, ratio))
        if ratio != math.sqrt(N) or not consistent:
            bad = bad or {"N": N, "ratio": ratio, "expected": math.sqrt(N),
                          "norms_consistent": consistent}
    write_csv(out_dir / "repro-parity.csv",
              ("N", "norm_small_family_set", "norm_partner", "democracy_ratio"),
              rows)
    return [_check("ratio-is-sqrt", bad)]


def _run_l2sum(spec, out_dir):
    rng = random.Random(spec.seed)
    samples = spec.params["samples"]
    size_cap = spec.params["size_cap"]
    space = make_space("ktsum:l2")
    rows = []
    bad = None
    for case in range(samples):
        size = rng.randint(1, size_cap)
        A = sorted_sample(rng, range(1, 4097), size)
        norm = space.norm(SparseVector.indicator(A, 1.0))
        lower = math.sqrt(size)
        upper = 2.0 * math.sqrt(size)
        ok = (lower - 1e-9) <= norm <= (upper + 1e-9)
        rows.append((case, size, norm, lower, upper, int(ok)))
        if not ok:
            bad = bad or {"case": case, "A": A, "norm": norm}
    write_csv(out_dir / "repro-l2sum.csv",
              ("case", "size", "norm", "lower", "upper", "ok"), rows)
    return [_check("two-sided-democracy", bad)]


def _run_james(spec, out_dir):
    rng = random.Random(spec.seed)
    samples = spec.params["samples"]
    bad = None
    for _ in range(samples):
        size = rng.randint(1, 12)
        supp = sorted_sample(rng, range(1, 41), size)
        x = SparseVector({i: rng.uniform(-1.0, 1.0) for i in supp})
        current = jamesification_norm(x)
        # removing a point changes no other coefficient, so the greedy order
        # (largest modulus first, ties to the smaller index) is read once
        entries = x.entries
        for top in sorted(entries, key=lambda i: (-abs(entries[i]), i)):
            x = x.drop((top,))
            nxt = jamesification_norm(x)
            if nxt > current + 1e-12:
                bad = bad or {"vector": x.to_wire(), "removed": top,
                              "before": current, "after": nxt}
                break
            current = nxt
        if bad:
            break
    checks = [_check("greedy-removal-never-grows", bad)]

    rows = []
    grow_bad = None
    refused = False
    prev_ratio = 0.0
    for start in range(3, 3 + spec.params["witness_count"]):
        try:
            vec = rah_sequence(Ordinal.from_int(2), IndexStream.naturals(start), 1)[0]
        except BudgetExceeded:
            rows.append((start, "BUDGET", "", ""))
            refused = True
            continue
        pos_norm = jamesification_norm(vec)
        alt = SparseVector({i: ((-1) ** i) * a for i, a in vec.entries.items()})
        try:
            alt_norm = jamesification_norm(alt)
        except BudgetExceeded:
            rows.append((start, pos_norm, "BUDGET", ""))
            refused = True
            continue
        ratio = pos_norm / alt_norm
        rows.append((start, pos_norm, alt_norm, ratio))
        if alt_norm >= Fraction(12, start):
            grow_bad = grow_bad or {"start": start, "alt_norm": float(alt_norm)}
        if ratio <= prev_ratio:
            grow_bad = grow_bad or {"start": start, "ratio": float(ratio),
                                    "prev": float(prev_ratio)}
        prev_ratio = ratio
    write_csv(out_dir / "repro-james.csv",
              ("block_min", "positive_norm", "alternating_norm", "ratio"), rows)
    checks.append(_check("alternating-average-shrinks", grow_bad, refused))
    return checks


def _run_walpha(spec, out_dir):
    rng = random.Random(spec.seed)
    blocks = spec.params["blocks"]
    n0 = spec.params["n0"]
    try:
        family = make_weight_family(Ordinal.from_int(1), blocks, n0)
    except BudgetExceeded as exc:
        return [{"name": "family-construction", "status": "BUDGET",
                 "witness": str(exc)}]
    write_json(out_dir / "repro-walpha.family.json", family.describe())
    checks = []

    basis_bad = None
    probes = {1, 2, 3, 24, 100}
    for n in sorted(probes):
        val = weighted_schreier_norm(SparseVector({n: 1}), family)
        if val != 1:
            basis_bad = {"n": n, "norm": float(val)}
            break
    checks.append(_check("unit-vectors-normalized", basis_bad))

    cert_rows = weight_family_certificates(family)
    cert_bad = [row for row in cert_rows
                if not all(row["checks"].values())]
    checks.append(_check("block-certificates", cert_bad or None))

    sampled_bad = None
    max_seen = 0.0
    for _ in range(spec.params["samples"]):
        s = rng.randint(1, 10 ** rng.randint(1, 9))
        size = rng.randint(1, min(s, 40))
        A = sorted_sample(rng, range(s, s + 4 * size + 1), size)
        val = weighted_schreier_norm(SparseVector.indicator(A, 1), family)
        fval = float(val)
        max_seen = max(max_seen, fval)
        if not val < 3:
            sampled_bad = {"A": A, "norm": fval}
            break
    checks.append(_check("small-family-sets-bounded", sampled_bad, value=max_seen))

    demo = democracy_growth_table(family)
    ratios = [row["ratio"] for row in demo]
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    write_json(out_dir / "repro-walpha.democracy.json", demo)
    checks.append({"name": "democracy-ratio-growth",
                   "status": "PASS" if monotone else "FAIL",
                   "ratios": ratios})
    return checks


def _run_m31(spec, out_dir):
    rng = random.Random(spec.seed)
    alpha = parse_ordinal(spec.params["alpha"])
    cap = spec.params["m_cap"]
    rows = []
    bad = None
    for case in range(spec.params["samples"]):
        size = rng.randint(1, 10)
        S = tuple(sorted_sample(rng, range(2, 41), size))
        m = min_level_find(S, alpha, cap)
        rows.append((case, ";".join(map(str, S)), "" if m is None else m))
        if m is None:
            bad = bad or {"set": S}
    write_csv(out_dir / "repro-m31.csv", ("case", "set", "level_offset"), rows)
    return [_check("every-high-set-joins-a-level", bad)]


EXPERIMENTS = {
    "repro-kt-00": ExperimentDef(
        _run_kt_00, {"n_min": 2, "n_max": 64},
        "window-space closed forms: positive vs alternating weighted sums",
        least={"n_min": 1}, ordered=(("n_min", "n_max"),)),
    "repro-parity": ExperimentDef(
        _run_parity, {"n_max": 100},
        "parity norm democracy failure: ratio grows like sqrt(N)"),
    "repro-l2sum": ExperimentDef(
        _run_l2sum, {"samples": 2000, "size_cap": 200},
        "l2 block sum: two-sided square-root democracy bounds",
        least={"size_cap": 1}),
    "repro-james": ExperimentDef(
        _run_james, {"samples": 500, "witness_count": 3},
        "interval-system space: greedy removal is non-expansive; alternating "
        "averages have small norm"),
    "repro-walpha": ExperimentDef(
        _run_walpha, {"blocks": 4, "n0": 2, "samples": 500},
        "weighted truncated space: normalized basis, bounded small-family "
        "sets, growing democracy ratios",
        least={"blocks": 1, "n0": 1}),
    "repro-m31": ExperimentDef(
        _run_m31, {"alpha": "w", "m_cap": 12, "samples": 200},
        "finite sets with min >= 2 join some finite offset of any level"),
}


def list_experiments():
    return [(name, EXPERIMENTS[name].description) for name in sorted(EXPERIMENTS)]


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    if spec.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {spec.experiment!r}")
    definition = EXPERIMENTS[spec.experiment]
    unknown = set(spec.params) - set(definition.defaults)
    if unknown:
        raise ConfigError(f"unknown parameters {sorted(unknown)} for "
                          f"{spec.experiment}")
    for key in sorted(spec.params):
        _check_type(spec.experiment, key, spec.params[key])
    params = dict(definition.defaults)
    params.update(spec.params)
    # every count first, so that a negative one keeps the count rule's message
    for floors in ({}, definition.least):
        for key in sorted(params):
            floor = floors.get(key, 0)
            if isinstance(params[key], int) and params[key] < floor:
                raise ConfigError(f"parameter {key!r} of {spec.experiment} must "
                                  f"be at least {floor}, got {params[key]}")
    for lo, hi in definition.ordered:
        if params[lo] > params[hi]:
            raise ConfigError(f"parameters {lo!r} = {params[lo]} and {hi!r} = "
                              f"{params[hi]} of {spec.experiment} leave nothing "
                              f"to run: {lo!r} must not exceed {hi!r}")
    spec = ExperimentSpec(spec.experiment, params, spec.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = definition.runner(spec, out_dir)
    summary = _summary(spec, checks)
    write_json(out_dir / f"{spec.experiment}.summary.json", summary)
    return summary
