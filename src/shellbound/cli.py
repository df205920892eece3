"""Command line front end: JSON experiment configs in, CSV result files out.

Five subcommands cover the library surface: ``solve`` (ground state of a
shell system), ``bounds`` (closed-form threshold bounds against the exact
critical coupling, plus the matrix spectral floor), ``sweep`` (one parameter
over a grid, long-format rows), ``variational`` (weighted-matrix solver with
its consistency diagnostics), and ``hybrid`` (shells plus point sources with
perturbative far-point shifts).

Exit codes: 0 success, 1 config or usage error, 2 domain error raised by the
compute modules. Each command returns its rows and ``main`` writes the CSV
only after the command has returned, so no output file exists unless the
exit code is 0. Output is deterministic; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace

from .bounds import (
    coupling_bound_diameter,
    coupling_bound_model,
    critical_coupling_exact,
    gersgorin_energy_bound,
)
from .errors import (
    ConfigError,
    DegeneratePerturbationError,
    InvalidArgumentError,
    NoBoundStateError,
    OutOfChartError,
    ShellboundError,
    UnsupportedRegimeError,
)
from .geometry import (
    AmbientSpace,
    Ellipsoid,
    PhysicalConstants,
    Sphere,
    SurfaceCurvatureMeta,
    SurfaceMesh,
    Torus,
    build_surface,
    flat_point,
    hyperbolic_point,
)
from .hybrid import HybridSystem, PointSource, perturbative_shift, solve_hybrid_ground_state
from .principal import (
    Coupling,
    CouplingSpec,
    _monotone_root,
    energy_from_coupling,
    lowest_eigenvalue_flow,
    solve_ground_state,
)
from .variational import assemble_variational, schur_gap, solve_variational

__all__ = ["ExperimentConfig", "load_config", "main"]

_SWEEP_PARAMS = ("nu", "separation", "lambda", "radius", "deformation_c")

_TOP_KEYS = {"constants", "ambient", "surfaces", "points", "solver", "output"}
_SURFACE_KEYS = {"shape", "params", "order", "coupling", "curvature_meta"}
_POINT_KEYS = {"position", "mu"}
_META_KEYS = {"H_upper", "H_lower", "rho_min", "rho_max", "chord_arc_delta", "chord_arc_kappa"}
_SHAPES = {"sphere": Sphere, "torus": Torus, "ellipsoid": Ellipsoid}


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-10
    nu_min: float = 1e-4  # stand-in for nu -> 0 in the exact critical coupling


@dataclass(frozen=True)
class ExperimentConfig:
    constants: PhysicalConstants
    space: AmbientSpace
    surfaces: tuple[SurfaceMesh, ...]
    couplings: CouplingSpec
    points: tuple[PointSource, ...]
    solver: SolverSettings
    output_path: str
    config_sha256: str = field(repr=False, default="")


def _expect_dict(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set, name: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {name}; allowed: {sorted(allowed)}"
        )


def _number(obj: dict, key: str, name: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{name} is missing required field {key!r}")
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"{name}.{key} must be a finite number, got {v!r}")
    return float(v)


def _triple(obj, name: str) -> tuple[float, float, float]:
    if not (isinstance(obj, list) and len(obj) == 3) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj
    ):
        raise ConfigError(f"{name} must be a list of three numbers")
    return (float(obj[0]), float(obj[1]), float(obj[2]))


def _parse_coupling(obj, name: str) -> Coupling:
    obj = _expect_dict(obj, name)
    keys = set(obj)
    if keys == {"lambda"}:
        return Coupling(lam=_number(obj, "lambda", name))
    if keys == {"nu_star"}:
        return Coupling(nu_star=_number(obj, "nu_star", name))
    raise ConfigError(f"{name} must have exactly one of 'lambda', 'nu_star', got {sorted(keys)}")


def _parse_surface(obj, idx: int) -> tuple[SurfaceMesh, Coupling]:
    """The mesh of one surface block and its coupling.

    The mesh keeps its shape and order, from which sweeps rebuild it."""
    name = f"surfaces[{idx}]"
    obj = _expect_dict(obj, name)
    _check_keys(obj, _SURFACE_KEYS, name)
    for req in ("shape", "params", "coupling"):
        if req not in obj:
            raise ConfigError(f"{name} is missing required field {req!r}")
    kind = obj["shape"]
    params = dict(_expect_dict(obj["params"], f"{name}.params"))
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ConfigError(f"{name}.shape must be one of {list(_SHAPES)}, got {kind!r}")
    allowed = {f.name for f in fields(_SHAPES[kind])}
    _check_keys(params, allowed, f"{name}.params")
    for key in allowed - {"center"}:
        params[key] = _number(params, key, f"{name}.params")
    params["center"] = _triple(params.get("center", [0.0, 0.0, 0.0]), f"{name}.params.center")
    meta = None
    if "curvature_meta" in obj:
        mobj = _expect_dict(obj["curvature_meta"], f"{name}.curvature_meta")
        _check_keys(mobj, _META_KEYS, f"{name}.curvature_meta")
        meta = SurfaceCurvatureMeta(
            **{k: _number(mobj, k, f"{name}.curvature_meta") for k in _META_KEYS}
        )
    coupling = _parse_coupling(obj["coupling"], f"{name}.coupling")
    return build_surface(_SHAPES[kind](**params), obj.get("order", 16), meta), coupling


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config into built objects."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    data = _expect_dict(data, "config")
    _check_keys(data, _TOP_KEYS, "config")

    # The constructors validate values; their errors are config errors too.
    try:
        cobj = _expect_dict(data.get("constants", {}), "constants")
        _check_keys(cobj, {"hbar", "mass"}, "constants")
        constants = PhysicalConstants(
            hbar=_number(cobj, "hbar", "constants", 1.0),
            mass=_number(cobj, "mass", "constants", 0.5),
        )
        aobj = _expect_dict(data.get("ambient", {}), "ambient")
        _check_keys(aobj, {"kind", "K"}, "ambient")
        space = AmbientSpace(aobj.get("kind", "flat"), _number(aobj, "K", "ambient", 0.0))
        parsed = [_parse_surface(s, i) for i, s in enumerate(data.get("surfaces", []))]
        surfaces = tuple(mesh for mesh, _ in parsed)
        couplings = CouplingSpec(tuple(coupling for _, coupling in parsed))
        points = []
        for i, pobj in enumerate(data.get("points", [])):
            name = f"points[{i}]"
            pobj = _expect_dict(pobj, name)
            _check_keys(pobj, _POINT_KEYS, name)
            xyz = _triple(pobj.get("position"), f"{name}.position")
            if space.is_flat:
                pos = flat_point(*xyz)
            else:
                pos = hyperbolic_point(space, *xyz)
            points.append(PointSource(pos, _number(pobj, "mu", name)))
    except ConfigError:
        raise
    except (ShellboundError, ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e

    if not surfaces and not points:
        raise ConfigError("config needs at least one surface or point")

    sobj = _expect_dict(data.get("solver", {}), "solver")
    _check_keys(sobj, {"tol", "nu_min"}, "solver")
    solver = SolverSettings(
        tol=_number(sobj, "tol", "solver", 1e-10),
        nu_min=_number(sobj, "nu_min", "solver", 1e-4),
    )
    if not (solver.tol > 0.0 and 1e-6 <= solver.nu_min <= 1e-2):
        raise ConfigError(f"solver needs tol > 0 and nu_min in [1e-6, 1e-2], got {solver}")

    oobj = _expect_dict(data.get("output", {}), "output")
    _check_keys(oobj, {"path"}, "output")
    out_path = oobj.get("path", "")
    if out_path and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")

    return ExperimentConfig(
        constants=constants,
        space=space,
        surfaces=surfaces,
        couplings=couplings,
        points=tuple(points),
        solver=solver,
        output_path=out_path,
        config_sha256=hashlib.sha256(raw).hexdigest(),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _fmt_weights(weights) -> str:
    return ";".join(repr(float(w)) for w in weights)


def _write_csv(path: str, config_sha: str, header, rows, comment) -> None:
    """RFC-4180 rows after a hash comment, then an optional trailing comment, LF line ends."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write(f"# config_sha256={config_sha}\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows([_fmt(v) for v in row] for row in rows)
            if comment:
                f.write(f"# {comment}\n")
    except OSError as e:
        raise ConfigError(f"cannot write output {path}: {e}") from e


def _require_surfaces(cfg: ExperimentConfig, command: str, n: int | None = None) -> None:
    if not cfg.surfaces:
        raise ConfigError(f"{command} needs at least one surface")
    if n is not None and len(cfg.surfaces) != n:
        raise ConfigError(f"{command} needs exactly {n} surface(s), got {len(cfg.surfaces)}")


def cmd_solve(cfg: ExperimentConfig, args):
    _require_surfaces(cfg, "solve")
    result = solve_ground_state(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, tol=cfg.solver.tol
    )
    columns = ["E_gr", "nu_star", "weights", "residual", "converged", "iterations"]
    return columns, [[
        result.energy, result.nu_star, _fmt_weights(result.weights),
        result.residual, result.converged, result.iterations,
    ]], None


def _model_cases(space: AmbientSpace, meta: SurfaceCurvatureMeta):
    """(name, signed H) of each closed-form threshold case that applies to
    one surface's curvature data."""
    tag = "flat" if space.is_flat else "hyperbolic"
    cases = []
    if meta.H_upper == 0.0 and meta.H_lower == 0.0:
        cases.append((f"model_{tag}_H0", 0.0))
    if meta.H_upper > 0.0:
        cases.append((f"model_{tag}_Hpos", meta.H_upper))
    if meta.H_lower < 0.0:
        cases.append((f"model_{tag}_Hneg", meta.H_lower))
    return cases


def _nu_star_spec(cfg: ExperimentConfig):
    """Equivalent nu*-form couplings, or None if some channel is subcritical."""
    stars = []
    for mesh, cp in zip(cfg.surfaces, cfg.couplings.items):
        if cp.nu_star is not None:
            stars.append(cp.nu_star)
        else:
            ns = energy_from_coupling(mesh, cfg.space, cfg.constants, cp.lam)
            if ns is None:
                return None
            stars.append(ns)
    return CouplingSpec(tuple(Coupling(nu_star=s) for s in stars))


def cmd_bounds(cfg: ExperimentConfig, args):
    _require_surfaces(cfg, "bounds")
    rows = []

    def put(kind, case, idx, value, exact, status=""):
        validation = ""
        if status == "" and value is not None and exact is not None and kind != "exact":
            slack = 1e-9 * abs(exact) + 1e-15
            validation = "ok" if value <= exact + slack else "FAIL"
        rows.append([kind, case, idx, value, exact, status, validation])

    for idx, mesh in enumerate(cfg.surfaces):
        exact = None
        if cfg.space.is_flat:
            exact = critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_min)
        for case_name, H in _model_cases(cfg.space, mesh.meta):
            try:
                val = coupling_bound_model(
                    cfg.space, H, mesh.meta.rho_min, 0.0, cfg.constants
                )
                put("model", case_name, idx, val, exact)
            except UnsupportedRegimeError:
                put("model", case_name, idx, None, exact, status="unsupported-regime")
            except OutOfChartError:
                put("model", case_name, idx, None, exact, status="out-of-chart")
        if cfg.space.is_flat:
            put("diameter", "", idx, coupling_bound_diameter(mesh, cfg.constants, 0.0), exact)
            put("exact", "", idx, exact, None)

    if len(cfg.surfaces) >= 2 and cfg.space.is_flat:
        star_spec = _nu_star_spec(cfg)
        if star_spec is None:
            put("gersgorin", "", "all", None, None, status="subcritical-channel")
        else:
            e_star = gersgorin_energy_bound(
                cfg.surfaces, star_spec, cfg.space, cfg.constants
            )
            e_gr = solve_ground_state(
                cfg.surfaces, star_spec, cfg.space, cfg.constants, tol=cfg.solver.tol
            ).energy
            put("gersgorin", "", "all", e_star, e_gr)
    columns = ["row_kind", "case", "surface_index", "value", "exact", "status", "validation"]
    return columns, rows, None


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as e:
        raise ConfigError(f"cannot parse --grid {text!r}: {e}") from e
    if not grid:
        raise ConfigError("--grid must list at least one value")
    if any(not math.isfinite(v) or v <= 0.0 for v in grid):
        raise ConfigError("--grid values must be finite and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])) and len(grid) > 1:
        raise ConfigError("--grid values must be strictly increasing")
    return grid


def _grid_mesh(shape, order: int) -> SurfaceMesh:
    """The mesh of one sweep point.

    A grid value that the builder rejects is a usage error, exit 1, as the
    same value written in the config is."""
    try:
        return build_surface(shape, order)
    except InvalidArgumentError as e:
        raise ConfigError(f"--grid value gives an invalid surface: {e}") from e


def _fixed_area_ellipsoid(sphere: SurfaceMesh, c: float) -> SurfaceMesh:
    """Prolate/oblate mesh with polar semi-axis c, the sphere's centre and
    order, and the sphere's quadrature area."""
    target_area = sphere.area

    def spheroid(a: float) -> SurfaceMesh:
        return _grid_mesh(Ellipsoid(sphere.shape.center, a, a, c), sphere.order)

    # Search in units of the area-equivalent sphere radius, so the
    # tolerance is relative.
    scale = math.sqrt(target_area / (4.0 * math.pi))
    f = lambda t: spheroid(t * scale).area - target_area
    error = ConfigError(f"cannot match area {target_area} at deformation c={c}")
    f_lo = f(1e-3)
    if f_lo > 0.0:
        raise error
    t, _ = _monotone_root(f, 1e-3, f_lo, 20.0, 20.0, error, 1e-14)
    return spheroid(t * scale)


def cmd_sweep(cfg: ExperimentConfig, args):
    param = args.param
    if param not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r}; choose from {_SWEEP_PARAMS}")
    grid = _parse_grid(args.grid)
    _require_surfaces(cfg, "sweep")
    rows = []

    def put(value, metric, mvalue, status=""):
        rows.append([param, value, metric, mvalue, status])

    def put_solve(value, surfaces, couplings):
        """E_gr and nu_star rows at one grid value; returns E_gr or None."""
        try:
            r = solve_ground_state(surfaces, couplings, cfg.space, cfg.constants, tol=cfg.solver.tol)
        except NoBoundStateError:
            put(value, "E_gr", None, "no-bound-state")
            put(value, "nu_star", None, "no-bound-state")
            return None
        put(value, "E_gr", r.energy)
        put(value, "nu_star", r.nu_star)
        return r.energy

    diagnostic = "none"
    if param == "nu":
        flow = lowest_eigenvalue_flow(cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, grid)
        for nu, om in flow:
            put(nu, "omega_min", om)
        ok = all(b >= a for (_, a), (_, b) in zip(flow, flow[1:]))
        diagnostic = f"omega_min_nondecreasing={'pass' if ok else 'fail'}"
    elif param == "separation":
        _require_surfaces(cfg, "sweep separation", 2)
        fixed, mover = cfg.surfaces
        c0, c1 = fixed.shape.center, mover.shape.center
        direction = [b - a for a, b in zip(c0, c1)]
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            raise ConfigError("sweep separation needs distinct surface centers")
        unit = [d / norm for d in direction]
        energies = []
        for s in grid:
            center = tuple(a + s * u for a, u in zip(c0, unit))
            moved = _grid_mesh(replace(mover.shape, center=center), mover.order)
            energies.append(put_solve(s, (fixed, moved), cfg.couplings))
        energies = [e for e in energies if e is not None]
        ok = all(b >= a for a, b in zip(energies, energies[1:]))
        diagnostic = f"E_gr_nondecreasing={'pass' if ok else 'fail'}"
    elif param == "lambda":
        _require_surfaces(cfg, "sweep lambda", 1)
        energies = [put_solve(lam, cfg.surfaces, CouplingSpec((Coupling(lam=lam),)))
                    for lam in grid]
        energies = [e for e in energies if e is not None]
        ok = all(b <= a for a, b in zip(energies, energies[1:]))
        diagnostic = f"E_gr_nonincreasing={'pass' if ok else 'fail'}"
    elif param == "radius":
        _require_surfaces(cfg, "sweep radius", 1)
        sphere = cfg.surfaces[0]
        if not isinstance(sphere.shape, Sphere):
            raise ConfigError("sweep radius needs a sphere surface")
        for r in grid:
            mesh = _grid_mesh(replace(sphere.shape, radius=r), sphere.order)
            put_solve(r, (mesh,), cfg.couplings)
            put(r, "lambda_critical", critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_min))
    else:
        _require_surfaces(cfg, "sweep deformation_c", 1)
        if not isinstance(cfg.surfaces[0].shape, Sphere):
            raise ConfigError("sweep deformation_c needs a sphere surface")
        for c in grid:
            mesh = _fixed_area_ellipsoid(cfg.surfaces[0], c)
            put(c, "lambda_critical", critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_min))
            put(c, "area", mesh.area)

    columns = ["param", "param_value", "metric", "metric_value", "status"]
    return columns, rows, f"diagnostic: {diagnostic}"


def cmd_variational(cfg: ExperimentConfig, args):
    _require_surfaces(cfg, "variational")
    if any(cp.lam is None for cp in cfg.couplings.items):
        raise ConfigError("variational needs every coupling in lambda form")
    alpha_star, weights = solve_variational(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants
    )
    vm = assemble_variational(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, alpha_star
    )
    columns = ["alpha_star", "E_gr", "weights", "schur_gap", "phi_tilde_residual"]
    return columns, [[
        alpha_star, -alpha_star, _fmt_weights(weights), schur_gap(vm), vm.phi_residual,
    ]], None


def cmd_hybrid(cfg: ExperimentConfig, args):
    system = HybridSystem(
        surfaces=cfg.surfaces,
        couplings=cfg.couplings,
        points=cfg.points,
        space=cfg.space,
        constants=cfg.constants,
    )
    result = solve_hybrid_ground_state(system, tol=cfg.solver.tol)
    rows = [[
        "system", None, None, None, result.energy, result.nu_star,
        _fmt_weights(result.weights), result.residual, None, None, None,
    ]]
    if len(cfg.surfaces) == 1:
        center = cfg.surfaces[0].shape.center
        for i, point in enumerate(cfg.points):
            sub = replace(system, points=(point,))
            shift = perturbative_shift(sub)
            exact = solve_hybrid_ground_state(sub, tol=cfg.solver.tol)
            exact_shift = exact.nu_star**2 - point.mu**2
            coords = point.position.as_array()[-3:]
            sep = math.dist(coords, center)
            rows.append([
                "perturbation", i, sep, point.mu, exact.energy, exact.nu_star,
                None, exact.residual, shift, exact_shift,
                shift / exact_shift if exact_shift != 0.0 else None,
            ])
    columns = [
        "row_kind", "point_index", "separation", "mu", "E_gr", "nu_star",
        "weights", "residual", "delta_mu2", "exact_shift", "ratio",
    ]
    return columns, rows, None


# Each command computes (columns, rows, trailing comment); main writes them.
_COMMANDS = {
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "variational": cmd_variational,
    "hybrid": cmd_hybrid,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="shellbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON experiment config")
        p.add_argument("--out", default=None, help="CSV output path (overrides config)")
        if name == "sweep":
            p.add_argument("--param", required=True, help=f"one of {_SWEEP_PARAMS}")
            p.add_argument("--grid", required=True, help="comma-separated grid values")
    return parser


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.command == "hybrid" and not cfg.points:
            raise ConfigError("hybrid needs at least one point source")
        if args.command != "hybrid" and cfg.points:
            raise ConfigError("config has point sources: use the hybrid command")
        # Surface meshes live in flat space; in hyperbolic space only the
        # closed-form bounds and point-only hybrid systems apply.
        if cfg.surfaces and not cfg.space.is_flat and args.command != "bounds":
            raise ConfigError(
                f"{args.command} needs a flat ambient space for surfaces; "
                "hyperbolic configs with surfaces run under bounds only"
            )
        columns, rows, comment = _COMMANDS[args.command](cfg, args)
        # run_id digests the config, the command and the sweep's arguments
        extra = f"{args.param}|{args.grid}" if args.command == "sweep" else ""
        digest = hashlib.sha256((cfg.config_sha256 + args.command + extra).encode())
        prefix = [digest.hexdigest()[:12], args.command]
        out_path = args.out or cfg.output_path or f"shellbound_{args.command}.csv"
        _write_csv(
            out_path, cfg.config_sha256, ["run_id", "command", *columns],
            [prefix + row for row in rows], comment,
        )
        print(f"wrote {out_path}")
        code = 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except DegeneratePerturbationError as e:
        print(f"error: degenerate-perturbation: {e}", file=sys.stderr)
        code = 2
    except NoBoundStateError as e:
        print(f"error: no bound state in bracket: {e}", file=sys.stderr)
        code = 2
    except ShellboundError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    finally:
        print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
