"""End-to-end command line checks: configs in, CSV out, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from shellbound import geometry
from shellbound.bounds import coupling_bound_model, critical_coupling_exact
from shellbound.cli import _fmt, load_config, main
from shellbound.errors import ConfigError, UnsupportedRegimeError
from shellbound.geometry import MAX_ORDER

SPHERE_NU = {
    "surfaces": [
        {
            "shape": "sphere",
            "params": {"radius": 1.0},
            "order": 12,
            "coupling": {"nu_star": 1.0},
        }
    ]
}

SPHERE_LAM = {
    "surfaces": [
        {
            "shape": "sphere",
            "params": {"radius": 1.0},
            "order": 12,
            "coupling": {"lambda": 2.313035285680343},
        }
    ]
}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    return lines, list(csv.DictReader(io.StringIO("\n".join(body))))


def test_import_loads_no_scipy():
    # scipy.optimize, .special and .integrate cost most of a CLI job's start
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, shellbound.cli, shellbound; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as ei:
        main(["-h"])
    assert ei.value.code == 0


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["solve"]) == 1
    assert main(["frobnicate", "--config", "x.json"]) == 1
    cfg = write_cfg(tmp_path, SPHERE_NU)
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "no_dir" / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: {**d, "bogus_key": 1},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "coupling": {"lambda": 1.0, "nu_star": 1.0}}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "coupling": {}}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "shape": "cube"}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "order": 3}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "order": 1}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "params": {"radius": -1.0}}]},
        lambda d: {**d, "solver": {"nu_min": 0.0}},
        lambda d: {**d, "solver": {"nu_max": 1e4}},
        lambda d: {**d, "output": {"format": "json"}},
        lambda d: {**d, "ambient": {"kind": "spherical"}},
        lambda d: {**d, "points": [{"position": [5.0, 0.0, 0.0], "mu": 0.5}]},
        lambda d: {"constants": d.get("constants", {})},
        lambda d: {
            **d,
            "surfaces": [
                {
                    "shape": "torus",
                    "params": {"R_major": 1.0, "r_minor": 2.0},
                    "order": 12,
                    "coupling": {"nu_star": 1.0},
                }
            ],
        },
        lambda d: {**d, "ambient": {"kind": "hyperbolic", "K": -0.5}},
        lambda d: {**d, "ambient": {"kind": "flat", "volume": 7.0}},
        lambda d: {**d, "ambient": {"kind": "flat", "K": 0.5}},
        lambda d: {**d, "constants": {"hbar": -1.0}},
        lambda d: {**d, "solver": {"nu_min": 0.5}},
        lambda d: {**d, "solver": {"nu_min": 1e-7}},
        # sizes and hbar whose powers leave the normal floats, NaN centres
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "params": {"radius": 1e-200}}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "params": {"radius": 1e100}}]},
        lambda d: {**d, "constants": {"hbar": 1e-300}},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "params": {"radius": math.nan}}]},
        lambda d: {
            **d,
            "surfaces": [
                {**d["surfaces"][0], "params": {"radius": 1.0, "center": [math.nan, 0.0, 0.0]}}
            ],
        },
        # an order that is not an integer, checked by the mesh builder
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "order": True}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "order": 16.0}]},
        lambda d: {**d, "surfaces": [{**d["surfaces"][0], "order": "16"}]},
        # output takes only a path: "format" is an unknown key, as "json" was
        lambda d: {**d, "output": {"format": "csv"}},
    ],
)
def test_config_errors_exit_one(tmp_path, mangle):
    cfg = write_cfg(tmp_path, mangle(SPHERE_NU))
    out = tmp_path / "never.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["solve"], ["bounds"], ["variational"], ["sweep", "--param", "nu", "--grid", "1.0"]],
    ids=lambda command: command[0],
)
def test_points_need_the_hybrid_command(tmp_path, command):
    data = {**SPHERE_LAM, "points": [{"position": [5.0, 0.0, 0.0], "mu": 0.5}]}
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "never.csv"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 1
    assert not out.exists()


def test_variational_needs_lambda_couplings(tmp_path, config_dir, monkeypatch, capsys):
    # nu*-form couplings are a config fault under variational: exit 1, no
    # file, and no solve started
    def unreachable(*args, **kwargs):
        raise AssertionError("variational solve started")

    monkeypatch.setattr("shellbound.cli.solve_variational", unreachable)
    for cfg in (config_dir / "two_spheres.json", write_cfg(tmp_path, SPHERE_NU)):
        out = tmp_path / "never.csv"
        assert main(["variational", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "lambda form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,param,grid,code",
    [
        ("two_spheres.json", "separation", "1.0", 2),  # the spheres would overlap
        ("single_sphere.json", "deformation_c", "1.0,5000", 1),  # no area match at c = 5000
        # grid values the mesh builder rejects, as it does in the config
        ("single_sphere.json", "radius", "1e80", 1),
        ("single_sphere.json", "deformation_c", "1e80", 1),
        ("two_spheres.json", "separation", "1e300", 1),
    ],
)
def test_failed_sweep_leaves_no_file(tmp_path, config_dir, config, param, grid, code):
    out = tmp_path / "never.csv"
    args = ["sweep", "--config", str(config_dir / config), "--param", param, "--grid", grid]
    assert main(args + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["solve"],
        ["variational"],
        ["sweep", "--param", "nu", "--grid", "1.0"],
        ["sweep", "--param", "radius", "--grid", "1.0"],
        ["sweep", "--param", "deformation_c", "--grid", "1.0"],
        ["hybrid"],
    ],
    ids=lambda command: "_".join(command[:1] + command[2:3]),
)
def test_hyperbolic_surfaces_run_under_bounds_only(tmp_path, config_dir, command):
    # surface meshes live in flat space: every command but bounds is a
    # config error for a hyperbolic config with surfaces
    data = json.loads((config_dir / "single_sphere_lambda.json").read_text())
    data["ambient"] = {"kind": "hyperbolic", "K": 0.5}
    if command[0] == "hybrid":
        data["points"] = [{"position": [5.0, 0.0, 0.0], "mu": 0.5}]
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "never.csv"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 1
    assert not out.exists()


def test_hyperbolic_point_only_hybrid_runs(tmp_path):
    data = {
        "ambient": {"kind": "hyperbolic", "K": 0.5},
        "points": [{"position": [0.3, 0.0, 0.0], "mu": 0.5}],
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "hybrid.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_coincident_surfaces_exit_two(tmp_path, config_dir, capsys):
    # the second sphere moved onto the first: no node lies inside the other
    # surface, but nodes coincide, which is a domain error and writes nothing
    data = json.loads((config_dir / "two_spheres.json").read_text())
    data["surfaces"][1]["params"]["center"] = [0.0, 0.0, 0.0]
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "never.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "share a node" in capsys.readouterr().err


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**5])
@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_order_above_the_cap_exits_one(tmp_path, monkeypatch, capsys, command, order):
    # rejected before any node grid of that order is built: a Gauss-Legendre
    # rule above the cap fails the test instead of allocating
    rule = geometry._gauss_legendre

    def capped(n):
        assert n <= MAX_ORDER, f"built a Gauss-Legendre rule of order {n}"
        return rule(n)

    monkeypatch.setattr(geometry, "_gauss_legendre", capped)
    data = json.loads(json.dumps(SPHERE_NU))
    data["surfaces"][0]["order"] = order
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "never.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"[4, {MAX_ORDER}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_tiny_ellipsoid_keeps_the_exit_contract(tmp_path, command):
    # each semi-axis 1e-76 passes the size check (its fourth power is normal)
    # while (abc)^2 underflows; the curvature metadata must not divide by it
    data = {
        "surfaces": [
            {
                "shape": "ellipsoid",
                "params": {"a": 1e-76, "b": 1e-76, "c": 1e-76},
                "order": 8,
                "coupling": {"nu_star": 1.0},
            }
        ]
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "tiny.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2)
    assert out.exists() == (code == 0)
    if code == 0:
        _, rows = read_rows(out)
        assert rows
        for row in rows:
            for key in ("value", "exact", "E_gr", "nu_star"):
                if row.get(key):
                    assert math.isfinite(float(row[key])), (key, row[key])


def test_missing_and_malformed_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"surfaces": [}')
    assert main(["solve", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "param,grid",
    [
        ("nu", "abc"),
        ("nu", ""),
        ("nu", "2.0,1.0"),
        ("nu", "-1.0"),
        ("nu", "0.0,1.0"),
        ("banana", "1.0"),
        ("separation", "3.0,4.0"),
        ("radius", "1.0,2.0"),
    ],
)
def test_sweep_argument_errors(tmp_path, param, grid):
    data = SPHERE_NU
    if param == "radius":
        data = {
            "surfaces": [
                {
                    "shape": "torus",
                    "params": {"R_major": 2.0, "r_minor": 0.5},
                    "order": 12,
                    "coupling": {"nu_star": 1.0},
                }
            ]
        }
    cfg = write_cfg(tmp_path, data)
    code = main(
        ["sweep", "--config", str(cfg), "--param", param, "--grid", grid,
         "--out", str(tmp_path / "never.csv")]
    )
    assert code == 1


def test_solve_csv_structure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPHERE_NU)
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "wall_time_s=" in captured.err
    assert "wall_time_s=" not in captured.out

    raw = out.read_bytes()
    assert b"\r" not in raw
    lines, rows = read_rows(out)
    sha = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert lines[0] == f"# config_sha256={sha}"
    assert lines[1] == "run_id,command,E_gr,nu_star,weights,residual,converged,iterations"
    (row,) = rows
    assert len(row["run_id"]) == 12 and int(row["run_id"], 16) >= 0
    assert row["command"] == "solve"
    assert float(row["E_gr"]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row["nu_star"]) == pytest.approx(1.0, abs=1e-9)
    assert row["weights"] == "1.0"
    assert row["converged"] == "true"
    assert float(row["residual"]) < 1e-10
    assert int(row["iterations"]) > 0
    # numpy scalars are written as plain floats (numpy 2 reprs them as np.float64(...)).
    assert _fmt(np.float64(0.5)) == "0.5"


def test_output_path_from_config(tmp_path, capsys):
    out = tmp_path / "from_config.csv"
    data = {**SPHERE_NU, "output": {"path": str(out)}}
    cfg = write_cfg(tmp_path, data)
    assert main(["solve", "--config", str(cfg)]) == 0
    assert out.exists()
    assert f"wrote {out}" in capsys.readouterr().out


def test_bounds_rows(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_NU)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    by_kind = {(r["row_kind"], r["case"]): r for r in rows}
    model = by_kind[("model", "model_flat_Hpos")]
    # quarter of (pi/2 + 1): the positive-curvature closed form on the unit sphere
    assert float(model["value"]) == pytest.approx(0.25 * (math.pi / 2.0 + 1.0), rel=1e-12)
    assert model["validation"] == "ok"
    diam = by_kind[("diameter", "")]
    assert float(diam["value"]) == pytest.approx(0.5, rel=1e-12)
    assert diam["validation"] == "ok"
    exact = by_kind[("exact", "")]
    assert float(exact["value"]) == pytest.approx(0.9999000066028212, rel=1e-9)
    assert exact["validation"] == ""
    for r in rows:
        if r["validation"]:
            assert r["validation"] == "ok"


SPHERE_FLAT_META = {
    "surfaces": [
        {
            **SPHERE_NU["surfaces"][0],
            "curvature_meta": {
                "H_upper": 0.0,
                "H_lower": 0.0,
                "rho_min": 0.5,
                "rho_max": 1.0,
                "chord_arc_delta": 0.5,
                "chord_arc_kappa": 1.0,
            },
        }
    ]
}


@pytest.mark.parametrize(
    "config,statuses",
    [
        ("torus.json", {"model_flat_Hpos": "", "model_flat_Hneg": ""}),
        (
            "hyperbolic_case.json",
            {"model_hyperbolic_Hpos": "", "model_hyperbolic_Hneg": "unsupported-regime"},
        ),
        (None, {"model_flat_H0": ""}),
    ],
    ids=["torus", "hyperbolic_case", "flat_meta_sphere"],
)
def test_bounds_model_rows_match_the_library(tmp_path, config_dir, config, statuses):
    # each model row is the library bound at the mesh's signed curvature
    path = config_dir / config if config else write_cfg(tmp_path, SPHERE_FLAT_META)
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    model = {r["case"]: r for r in rows if r["row_kind"] == "model"}
    assert {case: r["status"] for case, r in model.items()} == statuses
    cfg = load_config(str(path))
    meta = cfg.surfaces[0].meta
    signed = {"H0": 0.0, "Hpos": meta.H_upper, "Hneg": meta.H_lower}
    for case, row in model.items():
        args = (cfg.space, signed[case.rsplit("_", 1)[1]], meta.rho_min, 0.0, cfg.constants)
        if row["status"] == "unsupported-regime":
            with pytest.raises(UnsupportedRegimeError):
                coupling_bound_model(*args)
        else:
            assert float(row["value"]) == coupling_bound_model(*args)


def test_bounds_gersgorin_row(tmp_path):
    data = {
        "surfaces": [
            {
                "shape": "sphere",
                "params": {"radius": 1.0, "center": [0.0, 0.0, 0.0]},
                "order": 12,
                "coupling": {"nu_star": 1.0},
            },
            {
                "shape": "sphere",
                "params": {"radius": 1.0, "center": [4.0, 0.0, 0.0]},
                "order": 12,
                "coupling": {"nu_star": 1.0},
            },
        ]
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "bounds2.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    gers = [r for r in rows if r["row_kind"] == "gersgorin"]
    assert len(gers) == 1
    row = gers[0]
    assert row["surface_index"] == "all"
    assert float(row["value"]) <= float(row["exact"]) + 1e-12
    assert row["validation"] == "ok"


def test_sweep_nu_diagnostic(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_NU)
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", str(cfg), "--param", "nu",
         "--grid", "0.5,1.0,2.0", "--out", str(out)]
    )
    assert code == 0
    lines, rows = read_rows(out)
    assert lines[-1] == "# diagnostic: omega_min_nondecreasing=pass"
    values = {r["param_value"]: float(r["metric_value"]) for r in rows}
    # at nu = nu_star the single-channel matrix entry vanishes identically
    assert values["1.0"] == 0.0
    assert values["0.5"] < 0.0 < values["2.0"]


def test_sweep_lambda_subcritical_rows(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_LAM)
    out = tmp_path / "sweepl.csv"
    code = main(
        ["sweep", "--config", str(cfg), "--param", "lambda",
         "--grid", "0.9,0.999,1.5,2.5", "--out", str(out)]
    )
    assert code == 0
    lines, rows = read_rows(out)
    assert lines[-1] == "# diagnostic: E_gr_nonincreasing=pass"
    for r in rows:
        if float(r["param_value"]) < 1.0:
            assert r["status"] == "no-bound-state"
            assert r["metric_value"] == ""
        else:
            assert r["status"] == ""
            assert r["metric_value"] != ""
    bound = [float(r["metric_value"]) for r in rows
             if r["metric"] == "E_gr" and r["metric_value"]]
    assert bound == sorted(bound, reverse=True)


def test_sweep_radius_with_curvature_meta(tmp_path, config_dir):
    # the config's metadata describes the unit sphere; sweeps rebuild
    # meshes with the builder's own, and no sweep row reads metadata
    meta = {
        "H_upper": 1.0, "H_lower": 1.0, "rho_min": math.pi / 2, "rho_max": math.pi / 2,
        "chord_arc_delta": 0.75, "chord_arc_kappa": 1.0,
    }
    data = json.loads((config_dir / "single_sphere.json").read_text())
    cfg_plain = write_cfg(tmp_path, data, "plain.json")
    data["surfaces"][0]["curvature_meta"] = meta
    cfg_meta = write_cfg(tmp_path, data, "meta.json")
    tables = []
    for cfg in (cfg_plain, cfg_meta):
        out = tmp_path / f"{cfg.stem}.csv"
        args = ["sweep", "--config", str(cfg), "--param", "radius", "--grid", "0.9,1.5,2.0"]
        assert main([*args, "--out", str(out)]) == 0
        lines, rows = read_rows(out)
        tables.append(([{k: v for k, v in r.items() if k != "run_id"} for r in rows], lines[-1]))
    assert tables[0] == tables[1]
    # moved copies likewise, with the metadata on both spheres
    data = json.loads((config_dir / "two_spheres.json").read_text())
    tables = []
    for with_meta in (False, True):
        if with_meta:
            for surface in data["surfaces"]:
                surface["curvature_meta"] = meta
        cfg = write_cfg(tmp_path, data, f"pair_{with_meta}.json")
        out = tmp_path / f"pair_{with_meta}.csv"
        args = ["sweep", "--config", str(cfg), "--param", "separation", "--grid", "3.0,5.0"]
        assert main([*args, "--out", str(out)]) == 0
        lines, rows = read_rows(out)
        tables.append(([{k: v for k, v in r.items() if k != "run_id"} for r in rows], lines[-1]))
    assert tables[0] == tables[1]


def test_sweep_deformation_c_rows(tmp_path, config_dir, constants, flat, sphere32):
    out = tmp_path / "sweepc.csv"
    code = main(
        ["sweep", "--config", str(config_dir / "single_sphere.json"),
         "--param", "deformation_c", "--grid", "0.8,1.0,1.25", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_rows(out)
    assert [(r["param_value"], r["metric"]) for r in rows] == [
        (c, m) for c in ("0.8", "1.0", "1.25") for m in ("lambda_critical", "area")
    ]
    for r in rows:
        assert r["status"] == ""
        if r["metric"] == "area":
            assert abs(float(r["metric_value"]) - 4.0 * math.pi) <= 1e-12
    # at c = 1 the fixed-area ellipsoid is the unit sphere of the config
    nu_min = load_config(config_dir / "single_sphere.json").solver.nu_min
    sphere = critical_coupling_exact(sphere32, flat, constants, nu_min)
    (at_one,) = [float(r["metric_value"]) for r in rows
                 if r["param_value"] == "1.0" and r["metric"] == "lambda_critical"]
    assert abs(at_one - sphere) <= 1e-12


def test_variational_csv(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_LAM)
    out = tmp_path / "var.csv"
    assert main(["variational", "--config", str(cfg), "--out", str(out)]) == 0
    lines, rows = read_rows(out)
    assert lines[1] == "run_id,command,alpha_star,E_gr,weights,schur_gap,phi_tilde_residual"
    (row,) = rows
    assert float(row["alpha_star"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["E_gr"]) == -float(row["alpha_star"])
    assert float(row["schur_gap"]) > 0.0
    assert float(row["phi_tilde_residual"]) < 1e-10


def test_hybrid_csv(tmp_path):
    data = {
        "surfaces": [
            {
                "shape": "sphere",
                "params": {"radius": 1.0},
                "order": 12,
                "coupling": {"lambda": 1.5},
            }
        ],
        "points": [{"position": [6.0, 0.0, 0.0], "mu": 0.5}],
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "hyb.csv"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out)]) == 0
    lines, rows = read_rows(out)
    assert lines[1] == (
        "run_id,command,row_kind,point_index,separation,mu,E_gr,nu_star,"
        "weights,residual,delta_mu2,exact_shift,ratio"
    )
    kinds = [r["row_kind"] for r in rows]
    assert kinds == ["system", "perturbation"]
    sys_row, pert = rows
    assert float(sys_row["E_gr"]) < -0.25
    assert ";" in sys_row["weights"]
    assert float(pert["separation"]) == 6.0
    assert float(pert["delta_mu2"]) > 0.0
    assert float(pert["ratio"]) == pytest.approx(1.0, abs=0.2)


def test_domain_errors_exit_two(tmp_path, capsys):
    sub = {
        "surfaces": [
            {
                "shape": "sphere",
                "params": {"radius": 1.0},
                "order": 12,
                "coupling": {"lambda": 0.999},
            }
        ]
    }
    cfg = write_cfg(tmp_path, sub)
    out = tmp_path / "never.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: no bound state in bracket" in capsys.readouterr().err

    res = {
        "surfaces": [
            {
                "shape": "sphere",
                "params": {"radius": 1.0},
                "order": 16,
                "coupling": {"lambda": 2.313035285680343},
            }
        ],
        "points": [{"position": [10.0, 0.0, 0.0], "mu": 1.0}],
    }
    cfg2 = write_cfg(tmp_path, res, name="res.json")
    out2 = tmp_path / "never2.csv"
    assert main(["hybrid", "--config", str(cfg2), "--out", str(out2)]) == 2
    assert not out2.exists()
    assert "error: degenerate-perturbation" in capsys.readouterr().err


def test_bitwise_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_NU)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    args = ["sweep", "--config", str(cfg), "--param", "nu", "--grid", "0.5,1.5"]
    assert main(args + ["--out", str(c)]) == 0
    assert main(args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_load_config_returns_built_objects(tmp_path):
    cfg = write_cfg(tmp_path, SPHERE_NU)
    built = load_config(str(cfg))
    assert len(built.surfaces) == 1
    assert built.surfaces[0].area == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert built.constants.hbar == 1.0 and built.constants.mass == 0.5
    assert built.space.is_flat
    assert len(built.config_sha256) == 64
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_shipped_configs_parse(config_dir):
    names = sorted(p.name for p in config_dir.glob("*.json"))
    assert len(names) == 11
    for name in names:
        built = load_config(str(config_dir / name))
        assert built.surfaces or built.points
