"""The benchmark's tracer wraps library functions by name; a rename in the
library must fail here rather than as a benchmark set-up crash."""

import importlib
import importlib.util
import sys
from pathlib import Path

from greedylab import greedy
from greedylab.schreier import FamilyHandle
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _greedylab_modules():
    return [n for n in sys.modules if n.partition(".")[0] == "greedylab"]


def test_tracer_patch_points_resolve():
    points = _load_tracing().PATCH_POINTS
    assert ("family_norms", "schreier_member") in points["schreier.member"]
    assert ("family_norms", "f_alpha_member") in points["schreier.member"]
    assert ("greedy", "sigma_m") in points["greedy.sigma_m"]
    assert ("greedy", "family_members_within") in points["greedy.members_within"]
    # a fresh import, as the benchmark makes; the old modules come back after
    saved = {n: sys.modules.pop(n) for n in _greedylab_modules()}
    try:
        lib = importlib.import_module("greedylab")
        for layer, pairs in points.items():
            for module, attr in pairs:
                mod = importlib.import_module(f"greedylab.{module}")
                assert callable(getattr(mod, attr, None)), (layer, module, attr)
        assert callable(lib.norms.NormOracle.norm)
        assert callable(lib.schreier.FamilyHandle.contains)
    finally:
        for name in _greedylab_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_ratio_calls_the_searches_by_module_name(monkeypatch):
    # the tracer replaces greedy.sigma_m and greedy.almost_greedy_error in
    # the module namespace; _ratio must reach them through it
    seen = []

    def counted(name):
        fn = getattr(greedy, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sigma_m", "almost_greedy_error"):
        monkeypatch.setattr(greedy, name, counted(name))
    oracle, family = make_space("kt:N=8"), FamilyHandle.parse("s:1")
    cfg = {"vector": SparseVector({2: 1.0, 5: -0.5}), "m": 1}
    greedy._ratio("Cg", oracle, family, cfg)
    greedy._ratio("Ca", oracle, family, cfg)
    assert seen == ["sigma_m", "almost_greedy_error"]
