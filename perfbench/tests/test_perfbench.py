"""Tests of the benchmark itself: tracing changes no output, traced counts
repeat, the closed-form references hold, and seeds change only inputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import shellbound as sb  # noqa: E402
from shellbound import _quadrature as quad  # noqa: E402
from shellbound.cli import main as cli_main  # noqa: E402

import references as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FLAT = sb.flat_space()
CONSTANTS = sb.PhysicalConstants()


def two_sphere_config(path: Path, order: int) -> Path:
    surfaces = [
        {"shape": "sphere", "params": {"radius": 1.0, "center": c}, "order": order,
         "coupling": {"nu_star": nu}}
        for c, nu in (([0.0, 0.0, 0.0], 0.8), ([3.0, 0.0, 0.0], 1.2))
    ]
    path.write_text(json.dumps({"surfaces": surfaces}))
    return path


def traced(fn):
    """fn() under a fresh tracer, with cold geometry caches; (result, spans)."""
    t = tracer.Tracer()
    t.install()
    try:
        quad.clear_caches()  # through the wrapped lru_cache functions
        t.set_item("test")
        out = fn()
    finally:
        t.uninstall()
    cols = {k: np.array(v, dtype=v.typecode) for k, v in t.cols.items()}
    return out, {**cols, "names": t.names, "items": t.items}


def pair_solve(order: int):
    a = sb.build_surface(sb.Sphere((0.0, 0.0, 0.0), 1.0), order=order)
    b = sb.build_surface(sb.Sphere((4.0, 0.0, 0.0), 1.0), order=order)
    return sb.solve_ground_state([a, b], sb.CouplingSpec.from_nu_stars(0.7, 1.1), FLAT, CONSTANTS)


def test_tracing_keeps_csv_bytes(tmp_path):
    config = str(two_sphere_config(tmp_path / "pair.json", 8))
    plain, with_trace = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli_main(["bounds", "--config", config, "--out", str(plain)]) == 0
    code, spans = traced(lambda: cli_main(["bounds", "--config", config, "--out", str(with_trace)]))
    assert code == 0
    assert plain.read_bytes() == with_trace.read_bytes()
    totals = tracer.layer_totals(spans)
    assert totals["cli.load_config.calls"] == 1
    assert totals["bounds.gersgorin_energy_bound.calls"] == 1


def test_tracing_keeps_library_results():
    quad.clear_caches()
    plain = pair_solve(8)
    result, _ = traced(lambda: pair_solve(8))
    assert result.energy == plain.energy
    assert result.iterations == plain.iterations
    assert np.array_equal(result.weights, plain.weights)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracer.LAYERS}
    exported = sb.solve_ground_state
    imported = sys.modules["shellbound.cli"].solve_ground_state

    def inside():
        assert sb.solve_ground_state is not exported
        assert sys.modules["shellbound.cli"].solve_ground_state is not imported
        return quad._diag_geometry.cache_info()

    info, _ = traced(inside)
    assert info.currsize == 0
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracer.LAYERS} == before
    assert sb.solve_ground_state is exported


def test_layer_counts_repeat_exactly():
    def counts():
        _, spans = traced(lambda: pair_solve(8))
        metrics = tracer.layer_metrics(tracer.layer_totals(spans))
        return {k: v for k, v in metrics.items() if not k.endswith("_s")}

    first, second = counts(), counts()
    assert first == second
    assert first["quadrature.patch_geometry.builds"] == 2
    assert first["quadrature.pair_geometry.builds"] == 1
    assert first["quadrature.diag_sum.samples"] > 0
    assert first["principal.evals_per_solve"] > 1
    # nu*-form diagonals recompute P_ii(nu*) at every evaluation.
    assert first["principal.pair_integral.repeat_share"] > 0.3


def test_self_time_excludes_children():
    spans = {
        "name": np.array([0, 1, 1]), "parent": np.array([-1, 0, 0]), "item": np.zeros(3, int),
        "start": np.array([0.0, 1.0, 4.0]), "end": np.array([10.0, 3.0, 5.0]),
        "samples": np.zeros(3, int), "built": np.zeros(3, int), "nbytes": np.zeros(3, int),
        "repeat": np.zeros(3, int), "names": ["outer", "inner"], "items": [""],
    }
    totals = tracer.layer_totals(spans)
    assert totals["outer.self_s"] == pytest.approx(7.0)
    assert totals["inner.self_s"] == pytest.approx(3.0)
    assert totals["outer>inner.calls"] == 2
    # Each direct child's measured wrapper cost leaves its parent's self time.
    totals = tracer.layer_totals({**spans, "child_overhead": 0.5})
    assert totals["outer.self_s"] == pytest.approx(6.0)
    assert totals["inner.self_s"] == pytest.approx(3.0)


def test_calibrated_wrapper_cost_is_small_and_positive():
    overhead = tracer.Tracer().calibrate()
    assert 0.0 < overhead < 1e-4


def test_shell_theorem_matches_quadrature_at_d4():
    a = sb.build_surface(sb.Sphere((0.0, 0.0, 0.0), 1.0), order=24)
    b = sb.build_surface(sb.Sphere((4.0, 0.0, 0.0), 1.0), order=24)
    for nu in (0.5, 1.0, 2.0):
        got = sb.pair_integral(a, b, FLAT, CONSTANTS, nu)
        assert ref.rel_err(got, ref.sphere_offdiag(1.0, 1.0, 4.0, nu)) < 1e-12


def test_shell_theorem_limits():
    # At nu = 0 the shapes drop out: P_ij = 4 pi R_i R_j (m / 2 pi hbar^2) / D.
    assert ref.sphere_offdiag(1.0, 2.0, 5.0, 0.0) == pytest.approx(2.0 * 1.0 * 2.0 * 0.5 / 5.0, rel=1e-15)
    assert 0.0 <= ref.sphere_offdiag(1.0, 1.0, 4.0, 400.0) < 1e-300
    with pytest.raises(ValueError):
        ref.sphere_offdiag(1.0, 1.0, 1.5, 1.0)


def test_two_sphere_ground_state_reference():
    spheres = [((0.0, 0.0, 0.0), 1.0), ((4.0, 0.0, 0.0), 1.0)]
    nu = ref.ground_nu(spheres, [("nu_star", 0.7), ("nu_star", 1.1)])
    assert nu > 1.1
    assert abs(np.linalg.eigvalsh(ref.principal_matrix(spheres, [("nu_star", 0.7), ("nu_star", 1.1)], nu))[0]) < 1e-14
    result = pair_solve(16)
    assert ref.rel_err(result.nu_star, nu) < 1e-9
    # A lone unit sphere binds at nu = 1 when 1/lambda = P(1) = (1 - e^-2) / 2.
    lam = 2.0 / -math.expm1(-2.0)
    assert ref.ground_nu([((0.0, 0.0, 0.0), 1.0)], [("lambda", lam)]) == pytest.approx(1.0, abs=1e-14)
    assert ref.ground_nu([((0.0, 0.0, 0.0), 1.0)], [("lambda", 0.999)]) is None


def test_seed_changes_inputs_not_item_counts():
    for make in (lambda s: workloads.cli_order(s, 0), workloads.radius_grid,
                 lambda s: workloads.warm_batch(s, 0)):
        one, two = make(1), make(2)
        assert one != two
        assert one == make(1)
        assert len(one) == len(two)
    assert sorted(workloads.cli_order(1, 0)) == sorted(workloads.cli_order(2, 0))
    for seed in (1, 2, 3):
        grid = [float(r) for r in workloads.radius_grid(seed)]
        assert len(grid) == workloads.RADIUS_POINTS
        assert all(b > a for a, b in zip(grid, grid[1:]))
        kinds = sorted(item["kind"] for item in workloads.warm_batch(seed, 0))
        assert kinds == sorted(workloads.WARM_KINDS)
        for item in workloads.warm_batch(seed, 0):
            if "nu_stars" in item:
                assert item["nu_stars"][0] != item["nu_stars"][1]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_configs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
