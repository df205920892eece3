"""Acceptance gate: one numbered criterion per test, one printed verdict line each.

Every check here reuses the public API against independently written closed
forms, shipped configs, or the command line. Tolerances are part of the
contract and must not be loosened.
"""

import math

import numpy as np
import pytest
from scipy.special import k1 as bessel_k1

from shellbound import (
    CouplingSpec,
    HybridSystem,
    KernelBoundConstants,
    PointSource,
    Sphere,
    assemble_phi,
    assemble_variational,
    build_surface,
    coupling_bound_diameter,
    coupling_bound_model,
    coupling_from_energy,
    critical_coupling_exact,
    energy_from_coupling,
    finiteness_certificate,
    flat_point,
    gersgorin_energy_bound,
    hyperbolic_space,
    pair_integral,
    point_krein,
    schur_gap,
    solve_ground_state,
    solve_hybrid_ground_state,
    solve_variational,
)
from shellbound.cli import load_config, main
from shellbound.hybrid import assemble_hybrid_phi, perturbative_shift
from shellbound.jacobi import jacobi_eigh
from shellbound.oracles import SphereOracleInput, sphere_point_potential_exact
from shellbound.principal import Coupling
from shellbound.variational import (
    energy_functional,
    normalization_Z,
    stationarity_check,
)

MH2 = 0.5  # m / hbar^2 at default constants
ROOT_PI = math.sqrt(math.pi)

NATURAL_COMMANDS = {
    "single_sphere.json": ["solve"],
    "single_sphere_lambda.json": ["variational"],
    "two_spheres.json": ["bounds"],
    "three_spheres_lambda.json": ["variational"],
    "subcritical.json": ["sweep", "--param", "lambda", "--grid", "0.9,0.999,1.5,2.5"],
    "torus.json": ["bounds"],
    "touching_spheres.json": ["bounds"],
    "hybrid_far_point.json": ["hybrid"],
    "hybrid_resonant.json": ["hybrid"],
    "ellipsoid.json": ["solve"],
    "hyperbolic_case.json": ["bounds"],
}


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_sphere_quadrature_vs_oracle(capsys, constants, flat, sphere32):
    worst = 0.0
    for nu in (0.1, 0.5, 1.0, 2.0, 5.0):
        got = pair_integral(sphere32, sphere32, flat, constants, nu)
        exact = -math.expm1(-2.0 * nu) / (2.0 * nu)
        worst = max(worst, abs(got - exact) / exact)
    report(capsys, 1, worst < 1e-6, f"max rel err {worst:.2e} over 5 nu values")


def test_criterion_02_coupling_round_trip(capsys, constants, flat, sphere24, torus24):
    worst = 0.0
    for mesh in (sphere24, torus24):
        for nu_star in (0.2, 1.0, 3.0):
            lam = coupling_from_energy(mesh, flat, constants, nu_star)
            back = energy_from_coupling(mesh, flat, constants, lam)
            worst = max(worst, abs(back - nu_star) / nu_star)
    report(capsys, 2, worst < 1e-8, f"max rel err {worst:.2e} on sphere and torus")


def test_criterion_03_critical_coupling_limit(
    capsys, constants, flat, sphere32, sphere32_r2
):
    worst = 0.0
    for mesh, R in ((sphere32, 1.0), (sphere32_r2, 2.0)):
        lam_c = critical_coupling_exact(mesh, flat, constants)
        target = 2.0 * constants.mass * R / constants.hbar**2
        worst = max(worst, abs(lam_c - target))
    report(capsys, 3, worst <= 1e-3, f"max abs dev {worst:.2e} from 2mR for R in 1,2")


def test_criterion_04_bound_hierarchy_and_model_limits(capsys, constants, flat, sphere32):
    diam = coupling_bound_diameter(sphere32, constants, 0.0)
    meta = sphere32.meta
    model = coupling_bound_model(flat, meta.H_upper, meta.rho_min, 0.0, constants)
    exact = critical_coupling_exact(sphere32, flat, constants)
    chain = diam <= model <= exact

    H, K, rho = 1.0, 1.0, 1.0
    rK, rH = math.sqrt(K), math.sqrt(H)
    rate = rK * (1.0 + 1.0 / ROOT_PI)
    rHn = math.sqrt(H / 2.0)
    hyp = hyperbolic_space(K)
    closed = {
        "NN/zero": (0.0, flat, MH2 * rho),
        "NN/pos": (
            H,
            flat,
            MH2 / (2.0 * rH) * (rH * rho + math.sin(rH * rho)),
        ),
        "NN/neg": (
            -H,
            flat,
            2.0 * MH2 / rH * math.sinh(rH * rho / 2.0),
        ),
        "NR/zero": (
            0.0,
            hyp,
            MH2 * math.pi / (1.0 + ROOT_PI) * math.exp(-rK * (1.0 + ROOT_PI) * rho / ROOT_PI),
        ),
        "NR/pos": (
            H,
            hyp,
            MH2 * (ROOT_PI / 2.0) * (1.0 - math.exp(-rate * rho)) / rate
            * (rho + math.sin(rH * rho) / rH),
        ),
        "NR/neg": (
            -H / 2.0,
            hyp,
            MH2 * ROOT_PI * (1.0 - math.exp(-(rHn + rate) * rho)) / (rHn + rate),
        ),
    }
    worst = 0.0
    for H_signed, space, want in closed.values():
        got = coupling_bound_model(space, H_signed, rho, 0.0, constants)
        worst = max(worst, abs(got - want) / want)
    ok = chain and worst < 1e-8
    report(
        capsys, 4, ok,
        f"{diam:.4f} <= {model:.6f} <= {exact:.4f}; six limits max rel {worst:.2e}",
    )


def test_criterion_05_variational_consistency(capsys, constants, flat, sphere32):
    lam = 2.31304
    spec = CouplingSpec.from_lambdas(lam)
    alpha_star, _ = solve_variational([sphere32], spec, flat, constants)
    e_dev = abs(energy_functional(sphere32, flat, constants, lam, alpha_star) + 1.0)
    dE, d2E = stationarity_check(
        sphere32, flat, constants, lam, alpha_star, 1e-4 * alpha_star
    )
    z_dev = abs(normalization_Z(sphere32, flat, constants, 1.0) - 1.866087658826884)
    ok = e_dev < 1e-5 and abs(dE) < 1e-6 and d2E > 0.0 and z_dev < 1e-5
    report(
        capsys, 5, ok,
        f"|E+1|={e_dev:.2e}, |E'|={abs(dE):.2e}, E''={d2E:.3f}, |Z-1.86608|={z_dev:.2e}",
    )


def test_criterion_06_weighted_matrix_identities(capsys, constants, flat, config_dir):
    one = load_config(str(config_dir / "single_sphere_lambda.json"))
    pair = (
        build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=16),
        build_surface(Sphere((4.0, 0.0, 0.0), 1.0), order=16),
    )
    three = load_config(str(config_dir / "three_spheres_lambda.json"))
    systems = [
        (one.surfaces, one.couplings),
        (pair, CouplingSpec.from_lambdas(2.0, 2.0)),
        (three.surfaces, three.couplings),
    ]
    worst_resid, worst_gap, worst_agree, pd_ok = 0.0, 0.0, 0.0, True
    for surfaces, couplings in systems:
        alpha_star, _ = solve_variational(surfaces, couplings, flat, constants)
        vm = assemble_variational(surfaces, couplings, flat, constants, alpha_star)
        phi = assemble_phi(
            surfaces, couplings, flat, constants, math.sqrt(alpha_star)
        )
        worst_resid = max(
            worst_resid, float(np.max(np.abs(vm.Phi_tilde - vm.D @ phi.entries @ vm.D)))
        )
        for M in (vm.K, vm.L, vm.S):
            w, _ = jacobi_eigh(M)
            pd_ok = pd_ok and w[0] > 0.0
        worst_gap = min(worst_gap, schur_gap(vm))
        gs = solve_ground_state(surfaces, couplings, flat, constants)
        worst_agree = max(worst_agree, abs(alpha_star - gs.nu_star**2) / alpha_star)
    ok = worst_resid <= 1e-10 and pd_ok and worst_gap >= -1e-10 and worst_agree < 1e-7
    report(
        capsys, 6, ok,
        f"max residual {worst_resid:.1e}, min gap {worst_gap:.1e}, "
        f"alpha* vs nu*^2 max rel {worst_agree:.1e} on 1/2/3 surfaces",
    )


def test_criterion_07_monotone_flow_and_gersgorin(capsys, constants, flat, config_dir):
    grid = np.linspace(0.2, 3.0, 50)
    flows_ok, n_flat = True, 0
    for name in sorted(NATURAL_COMMANDS):
        cfg = load_config(str(config_dir / name))
        if not cfg.space.is_flat or not cfg.surfaces:
            continue  # mesh quadrature is a flat-space facility
        n_flat += 1
        omegas = [
            assemble_phi(cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, float(nu)).omega_min()
            for nu in grid
        ]
        flows_ok = flows_ok and all(b >= a for a, b in zip(omegas, omegas[1:]))

    def star_form(cfg):
        stars = []
        for mesh, cp in zip(cfg.surfaces, cfg.couplings.items):
            if cp.nu_star is not None:
                stars.append(cp.nu_star)
            else:
                stars.append(energy_from_coupling(mesh, cfg.space, cfg.constants, cp.lam))
        return CouplingSpec(tuple(Coupling(nu_star=s) for s in stars))

    gers_ok = True
    for name in ("two_spheres.json", "three_spheres_lambda.json", "touching_spheres.json"):
        cfg = load_config(str(config_dir / name))
        spec = star_form(cfg)
        e_star = gersgorin_energy_bound(cfg.surfaces, spec, cfg.space, cfg.constants)
        gs = solve_ground_state(cfg.surfaces, spec, cfg.space, cfg.constants)
        gers_ok = gers_ok and math.isfinite(e_star) and e_star <= gs.energy + 1e-9
        gers_ok = gers_ok and math.isfinite(gs.energy) and gs.converged

    single = load_config(str(config_dir / "single_sphere.json"))
    e_one = gersgorin_energy_bound(single.surfaces, single.couplings, flat, constants)
    one_exact = abs(e_one + 1.0) < 1e-12

    ok = flows_ok and gers_ok and one_exact
    report(
        capsys, 7, ok,
        f"flow nondecreasing on {n_flat} flat configs, disk bound holds on 3 "
        f"multi-surface configs incl. touching, N=1 exact to {abs(e_one + 1.0):.1e}",
    )


def test_criterion_08_hybrid_interlacing_and_shift(capsys, constants, flat, sphere16, config_dir):
    pk_dev = abs(point_krein(constants, 1.0, 2.0, flat) - 1.0 / (4.0 * math.pi))

    sys_one = HybridSystem(
        (sphere16,),
        CouplingSpec.from_nu_stars(1.0),
        (PointSource(flat_point(3.0, 0.0, 0.0), 0.8),),
        flat,
        constants,
    )
    off = assemble_hybrid_phi(sys_one, 0.8).entries[0, 1]
    oracle = sphere_point_potential_exact(
        SphereOracleInput(R=1.0, nu=0.8, constants=constants, s=3.0)
    )
    off_rel = abs(off + oracle) / oracle

    sys_il = HybridSystem(
        (sphere16,),
        CouplingSpec.from_nu_stars(1.0),
        (PointSource(flat_point(3.0, 0.0, 0.0), 1.0),),
        flat,
        constants,
    )
    e_gr = solve_hybrid_ground_state(sys_il).energy

    cfg = load_config(str(config_dir / "hybrid_far_point.json"))
    rels = []
    for point in cfg.points:
        sub = HybridSystem(cfg.surfaces, cfg.couplings, (point,), cfg.space, cfg.constants)
        pred = perturbative_shift(sub)
        exact = solve_hybrid_ground_state(sub).nu_star ** 2 - point.mu**2
        rels.append(abs(pred - exact) / exact)
    shift_ok = rels[0] > rels[1] > rels[2] and rels[1] < 0.10

    ok = pk_dev < 1e-10 and off_rel < 1e-6 and e_gr < -1.0 and shift_ok
    report(
        capsys, 8, ok,
        f"point diag dev {pk_dev:.1e}, off-diag rel {off_rel:.1e}, E_gr={e_gr:.4f} < -1, "
        f"shift rel errs {rels[0]:.2e} > {rels[1]:.2e} > {rels[2]:.2e}",
    )


def test_criterion_09_finiteness_and_bessel(capsys, constants, flat, config_dir):
    cfg = load_config(str(config_dir / "torus.json"))
    mesh = cfg.surfaces[0]
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    nu_star = 1.0
    p_star = pair_integral(mesh, mesh, flat, constants, nu_star)
    cert_ok = True
    for nu in (1.2, 1.5, 2.0, 3.0):
        cert = finiteness_certificate(mesh, flat, constants, kc, math.inf, nu_star, nu)
        phi11 = p_star - pair_integral(mesh, mesh, flat, constants, nu)
        cert_ok = cert_ok and phi11 <= cert.total * (1.0 + 1e-12) + 1e-15
        cert_ok = cert_ok and cert.term_I == 0.0 and cert.term_II > 0.0

    zs = np.linspace(0.1, 10.0, 100)
    cap_ok = all(bessel_k1(float(z)) < math.exp(-z) * (1.0 + 1.0 / z) for z in zs)
    ref_dev = max(
        abs(bessel_k1(1.0) - 0.60190723019723457),
        abs(bessel_k1(2.0) - 0.13986588181652243),
    )
    ok = cert_ok and cap_ok and ref_dev < 1e-9
    report(
        capsys, 9, ok,
        f"certificate caps diagonal on 4 nu values, K1 cap holds on 100 points, "
        f"ref dev {ref_dev:.1e}",
    )


def test_criterion_10_bitwise_determinism(capsys, config_dir, tmp_path):
    all_ok, checked = True, 0
    for name, cmd in sorted(NATURAL_COMMANDS.items()):
        outs, codes = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}.{tag}.csv"
            argv = [cmd[0], "--config", str(config_dir / name), *cmd[1:], "--out", str(out)]
            codes.append(main(argv))
            outs.append(out)
        if name == "hybrid_resonant.json":
            all_ok = all_ok and codes == [2, 2] and not outs[0].exists() and not outs[1].exists()
        else:
            all_ok = all_ok and codes == [0, 0]
            all_ok = all_ok and outs[0].read_bytes() == outs[1].read_bytes()
        checked += 1
    report(capsys, 10, all_ok, f"{checked} shipped configs, two runs each, identical bytes")
