"""Command line front end: JSON experiment configs in, CSV result files out.

Five subcommands cover the library surface: ``solve`` (ground state of a
shell system), ``bounds`` (closed-form threshold bounds against the exact
critical coupling, plus the matrix spectral floor), ``sweep`` (one parameter
over a grid, long-format rows), ``variational`` (weighted-matrix solver with
its consistency diagnostics), and ``hybrid`` (shells plus point sources with
perturbative far-point shifts).

Exit codes: 0 success, 1 config or usage error, 2 domain error raised by the
compute modules. Output is deterministic; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

from .bounds import (
    BoundCase,
    NegativeRicci,
    NegativeSectional,
    NonnegativeRicci,
    PositiveSectional,
    ZeroSectional,
    coupling_bound_diameter,
    coupling_bound_model,
    critical_coupling_exact,
    gersgorin_energy_bound,
)
from .errors import (
    ConfigError,
    DegeneratePerturbationError,
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
    flat_space,
    hyperbolic_point,
    hyperbolic_space,
)
from .hybrid import HybridSystem, PointSource, perturbative_shift, solve_hybrid_ground_state
from .principal import (
    Coupling,
    CouplingSpec,
    _monotone_root,
    assemble_phi,
    energy_from_coupling,
    solve_ground_state,
)
from .variational import assemble_variational, schur_gap, solve_variational

__all__ = ["ExperimentConfig", "load_config", "main"]

_COMMANDS = ("solve", "bounds", "sweep", "variational", "hybrid")
_SWEEP_PARAMS = ("nu", "separation", "lambda", "radius", "deformation_c")

_TOP_KEYS = {"constants", "ambient", "surfaces", "points", "solver", "output"}
_SURFACE_KEYS = {"shape", "params", "order", "coupling", "curvature_meta"}
_POINT_KEYS = {"position", "mu"}
_META_KEYS = {"H_upper", "H_lower", "rho_min", "rho_max", "chord_arc_delta", "chord_arc_kappa"}


@dataclass(frozen=True)
class SurfaceSpec:
    """Parsed surface block, kept so sweeps can rebuild meshes."""

    kind: str
    params: dict
    order: int
    coupling: Coupling
    meta: SurfaceCurvatureMeta | None

    def build(self, **overrides) -> SurfaceMesh:
        p = {**self.params, **overrides}
        center = tuple(p.get("center", (0.0, 0.0, 0.0)))
        if self.kind == "sphere":
            shape = Sphere(center=center, radius=p["radius"])
        elif self.kind == "torus":
            shape = Torus(center=center, R_major=p["R_major"], r_minor=p["r_minor"])
        else:
            shape = Ellipsoid(center=center, a=p["a"], b=p["b"], c=p["c"])
        return build_surface(shape, order=self.order, meta=self.meta)


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-10
    nu_min: float = 1e-4

    @property
    def nu_floor(self) -> float:
        """Stand-in for nu -> 0 in the exact critical coupling, in [1e-6, 1e-2]."""
        return min(max(self.nu_min, 1e-6), 1e-2)


@dataclass(frozen=True)
class ExperimentConfig:
    constants: PhysicalConstants
    space: AmbientSpace
    surface_specs: tuple[SurfaceSpec, ...]
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


def _parse_surface(obj, idx: int) -> SurfaceSpec:
    name = f"surfaces[{idx}]"
    obj = _expect_dict(obj, name)
    _check_keys(obj, _SURFACE_KEYS, name)
    for req in ("shape", "params", "coupling"):
        if req not in obj:
            raise ConfigError(f"{name} is missing required field {req!r}")
    kind = obj["shape"]
    params = dict(_expect_dict(obj["params"], f"{name}.params"))
    if kind == "sphere":
        wanted = {"radius"}
    elif kind == "torus":
        wanted = {"R_major", "r_minor"}
    elif kind == "ellipsoid":
        wanted = {"a", "b", "c"}
    else:
        raise ConfigError(f"{name}.shape must be sphere, torus or ellipsoid, got {kind!r}")
    _check_keys(params, wanted | {"center"}, f"{name}.params")
    for key in wanted:
        params[key] = _number(params, key, f"{name}.params")
    if "center" in params:
        params["center"] = _triple(params["center"], f"{name}.params.center")
    order = obj.get("order", 16)
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise ConfigError(f"{name}.order must be an integer >= 2, got {order!r}")
    meta = None
    if "curvature_meta" in obj:
        mobj = _expect_dict(obj["curvature_meta"], f"{name}.curvature_meta")
        _check_keys(mobj, _META_KEYS, f"{name}.curvature_meta")
        meta = SurfaceCurvatureMeta(
            **{k: _number(mobj, k, f"{name}.curvature_meta") for k in _META_KEYS}
        )
    return SurfaceSpec(
        kind=kind,
        params=params,
        order=order,
        coupling=_parse_coupling(obj["coupling"], f"{name}.coupling"),
        meta=meta,
    )


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

    cobj = _expect_dict(data.get("constants", {}), "constants")
    _check_keys(cobj, {"hbar", "mass"}, "constants")
    constants = PhysicalConstants(
        hbar=_number(cobj, "hbar", "constants", 1.0),
        mass=_number(cobj, "mass", "constants", 0.5),
    )

    aobj = _expect_dict(data.get("ambient", {"kind": "flat"}), "ambient")
    _check_keys(aobj, {"kind", "K", "volume"}, "ambient")
    kind = aobj.get("kind", "flat")
    volume = _number(aobj, "volume", "ambient", math.inf)
    volume = None if volume == math.inf else volume
    if kind == "flat":
        space = flat_space(volume)
    elif kind == "hyperbolic":
        space = hyperbolic_space(_number(aobj, "K", "ambient"), volume)
    else:
        raise ConfigError(f"ambient.kind must be 'flat' or 'hyperbolic', got {kind!r}")

    try:
        specs = tuple(
            _parse_surface(s, i) for i, s in enumerate(data.get("surfaces", []))
        )
        surfaces = tuple(spec.build() for spec in specs)
        couplings = CouplingSpec(tuple(spec.coupling for spec in specs))
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
    if not (solver.tol > 0.0 and solver.nu_min > 0.0):
        raise ConfigError(f"solver needs tol > 0 and nu_min > 0, got {solver}")

    oobj = _expect_dict(data.get("output", {}), "output")
    _check_keys(oobj, {"path", "format"}, "output")
    fmt = oobj.get("format", "csv")
    if fmt != "csv":
        raise ConfigError(f"output.format must be 'csv', got {fmt!r}")
    out_path = oobj.get("path", "")
    if out_path and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")

    return ExperimentConfig(
        constants=constants,
        space=space,
        surface_specs=specs,
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


class _CsvOut:
    """RFC-4180 writer with a leading hash comment and LF line endings."""

    def __init__(self, path: str, config_sha: str, header: list[str]):
        self.path = path
        self._f = open(path, "w", newline="", encoding="utf-8")
        self._f.write(f"# config_sha256={config_sha}\n")
        self._w = csv.writer(self._f, lineterminator="\n")
        self._w.writerow(header)

    def row(self, values) -> None:
        self._w.writerow([_fmt(v) for v in values])

    def comment(self, text: str) -> None:
        self._f.write(f"# {text}\n")

    def close(self) -> None:
        self._f.close()


def _run_id(cfg: ExperimentConfig, command: str, extra: str = "") -> str:
    h = hashlib.sha256()
    h.update(cfg.config_sha256.encode())
    h.update(command.encode())
    h.update(extra.encode())
    return h.hexdigest()[:12]


def _require_surfaces(cfg: ExperimentConfig, command: str, n: int | None = None) -> None:
    if not cfg.surfaces:
        raise ConfigError(f"{command} needs at least one surface")
    if n is not None and len(cfg.surfaces) != n:
        raise ConfigError(f"{command} needs exactly {n} surface(s), got {len(cfg.surfaces)}")


def cmd_solve(cfg: ExperimentConfig, out_path: str) -> int:
    _require_surfaces(cfg, "solve")
    if cfg.points:
        raise ConfigError("config has point sources: use the hybrid command")
    result = solve_ground_state(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, tol=cfg.solver.tol
    )
    w = _CsvOut(
        out_path,
        cfg.config_sha256,
        ["run_id", "command", "E_gr", "nu_star", "weights", "residual", "converged", "iterations"],
    )
    w.row([
        _run_id(cfg, "solve"), "solve", result.energy, result.nu_star,
        _fmt_weights(result.weights), result.residual, result.converged, result.iterations,
    ])
    w.close()
    return 0


def _model_cases(space: AmbientSpace, meta: SurfaceCurvatureMeta):
    """Applicable closed-form threshold cases for one surface's curvature data."""
    ambient = NonnegativeRicci() if space.is_flat else NegativeRicci(space.curvature_K)
    tag = "flat" if space.is_flat else "hyperbolic"
    cases = []
    if meta.H_upper == 0.0 and meta.H_lower == 0.0:
        cases.append((f"model_{tag}_H0", ZeroSectional()))
    if meta.H_upper > 0.0:
        cases.append((f"model_{tag}_Hpos", PositiveSectional(meta.H_upper)))
    if meta.H_lower < 0.0:
        cases.append((f"model_{tag}_Hneg", NegativeSectional(-meta.H_lower)))
    return ambient, cases


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


def cmd_bounds(cfg: ExperimentConfig, out_path: str) -> int:
    _require_surfaces(cfg, "bounds")
    w = _CsvOut(
        out_path,
        cfg.config_sha256,
        ["run_id", "command", "row_kind", "case", "surface_index", "value", "exact", "status", "validation"],
    )
    rid = _run_id(cfg, "bounds")

    def put(kind, case, idx, value, exact, status=""):
        validation = ""
        if status == "" and value is not None and exact is not None and kind != "exact":
            slack = 1e-9 * abs(exact) + 1e-15
            validation = "ok" if value <= exact + slack else "FAIL"
        w.row([rid, "bounds", kind, case, idx, value, exact, status, validation])

    for idx, mesh in enumerate(cfg.surfaces):
        exact = None
        if cfg.space.is_flat:
            exact = critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_floor)
        ambient, cases = _model_cases(cfg.space, mesh.meta)
        for case_name, sub in cases:
            try:
                val = coupling_bound_model(
                    BoundCase(ambient, sub, mesh.meta.rho_min, 0.0), cfg.constants
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
    w.close()
    return 0


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


def _solve_metrics(surfaces, couplings, cfg) -> tuple[float | None, float | None]:
    try:
        r = solve_ground_state(surfaces, couplings, cfg.space, cfg.constants, tol=cfg.solver.tol)
        return r.energy, r.nu_star
    except NoBoundStateError:
        return None, None


def _fixed_area_ellipsoid(spec: SurfaceSpec, c: float, target_area: float) -> SurfaceMesh:
    """Prolate/oblate mesh with polar semi-axis c and quadrature area matched."""
    center = tuple(spec.params.get("center", (0.0, 0.0, 0.0)))

    def area_of(a: float) -> float:
        return build_surface(
            Ellipsoid(center=center, a=a, b=a, c=c), order=spec.order
        ).area

    # Search in units of the area-equivalent sphere radius, so the
    # tolerance is relative.
    scale = math.sqrt(target_area / (4.0 * math.pi))
    f = lambda t: area_of(t * scale) - target_area
    error = ConfigError(f"cannot match area {target_area} at deformation c={c}")
    f_lo = f(1e-3)
    if f_lo > 0.0:
        raise error
    t, _ = _monotone_root(f, 1e-3, f_lo, 20.0, 20.0, error, 1e-14)
    a = t * scale
    return build_surface(Ellipsoid(center=center, a=a, b=a, c=c), order=spec.order)


def cmd_sweep(cfg: ExperimentConfig, out_path: str, param: str, grid_text: str) -> int:
    if param not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r}; choose from {_SWEEP_PARAMS}")
    grid = _parse_grid(grid_text)
    _require_surfaces(cfg, "sweep")
    rid = _run_id(cfg, "sweep", f"{param}|{grid_text}")
    w = _CsvOut(
        out_path,
        cfg.config_sha256,
        ["run_id", "command", "param", "param_value", "metric", "metric_value", "status"],
    )

    def put(value, metric, mvalue, status=""):
        w.row([rid, "sweep", param, value, metric, mvalue, status])

    diagnostic = "none"
    if param == "nu":
        omegas = []
        for nu in grid:
            pm = assemble_phi(cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, nu)
            om = pm.omega_min()
            omegas.append(om)
            put(nu, "omega_min", om)
        ok = all(b >= a for a, b in zip(omegas, omegas[1:]))
        diagnostic = f"omega_min_nondecreasing={'pass' if ok else 'fail'}"
    elif param == "separation":
        _require_surfaces(cfg, "sweep separation", 2)
        c0 = tuple(cfg.surface_specs[0].params.get("center", (0.0, 0.0, 0.0)))
        c1 = tuple(cfg.surface_specs[1].params.get("center", (0.0, 0.0, 0.0)))
        direction = [b - a for a, b in zip(c0, c1)]
        norm = math.sqrt(sum(d * d for d in direction))
        if norm == 0.0:
            raise ConfigError("sweep separation needs distinct surface centers")
        unit = [d / norm for d in direction]
        energies = []
        for s in grid:
            center = tuple(a + s * u for a, u in zip(c0, unit))
            meshes = (cfg.surfaces[0], cfg.surface_specs[1].build(center=center))
            e, ns = _solve_metrics(meshes, cfg.couplings, cfg)
            status = "" if e is not None else "no-bound-state"
            put(s, "E_gr", e, status)
            put(s, "nu_star", ns, status)
            if e is not None:
                energies.append(e)
        ok = all(b >= a for a, b in zip(energies, energies[1:]))
        diagnostic = f"E_gr_nondecreasing={'pass' if ok else 'fail'}"
    elif param == "lambda":
        _require_surfaces(cfg, "sweep lambda", 1)
        energies = []
        for lam in grid:
            couplings = CouplingSpec((Coupling(lam=lam),))
            e, ns = _solve_metrics(cfg.surfaces, couplings, cfg)
            status = "" if e is not None else "no-bound-state"
            put(lam, "E_gr", e, status)
            put(lam, "nu_star", ns, status)
            if e is not None:
                energies.append(e)
        ok = all(b <= a for a, b in zip(energies, energies[1:]))
        diagnostic = f"E_gr_nonincreasing={'pass' if ok else 'fail'}"
    elif param == "radius":
        _require_surfaces(cfg, "sweep radius", 1)
        if cfg.surface_specs[0].kind != "sphere":
            raise ConfigError("sweep radius needs a sphere surface")
        for r in grid:
            mesh = cfg.surface_specs[0].build(radius=r)
            e, ns = _solve_metrics((mesh,), cfg.couplings, cfg)
            status = "" if e is not None else "no-bound-state"
            put(r, "E_gr", e, status)
            put(r, "nu_star", ns, status)
            if cfg.space.is_flat:
                put(r, "lambda_critical", critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_floor))
    else:
        _require_surfaces(cfg, "sweep deformation_c", 1)
        if cfg.surface_specs[0].kind != "sphere":
            raise ConfigError("sweep deformation_c needs a sphere surface")
        if not cfg.space.is_flat:
            raise ConfigError("sweep deformation_c needs a flat ambient space")
        target = cfg.surfaces[0].area
        for c in grid:
            mesh = _fixed_area_ellipsoid(cfg.surface_specs[0], c, target)
            put(c, "lambda_critical", critical_coupling_exact(mesh, cfg.space, cfg.constants, cfg.solver.nu_floor))
            put(c, "area", mesh.area)

    w.comment(f"diagnostic: {diagnostic}")
    w.close()
    return 0


def cmd_variational(cfg: ExperimentConfig, out_path: str) -> int:
    _require_surfaces(cfg, "variational")
    alpha_star, weights = solve_variational(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants
    )
    vm = assemble_variational(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, alpha_star
    )
    gap = schur_gap(vm)
    phi = assemble_phi(
        cfg.surfaces, cfg.couplings, cfg.space, cfg.constants, math.sqrt(alpha_star)
    )
    resid = float(abs(vm.Phi_tilde - vm.D @ phi.entries @ vm.D).max())
    w = _CsvOut(
        out_path,
        cfg.config_sha256,
        ["run_id", "command", "alpha_star", "E_gr", "weights", "schur_gap", "phi_tilde_residual"],
    )
    w.row([
        _run_id(cfg, "variational"), "variational", alpha_star, -alpha_star,
        _fmt_weights(weights), gap, resid,
    ])
    w.close()
    return 0


def cmd_hybrid(cfg: ExperimentConfig, out_path: str) -> int:
    if not cfg.points:
        raise ConfigError("hybrid needs at least one point source")
    system = HybridSystem(
        surfaces=cfg.surfaces,
        couplings=cfg.couplings,
        points=cfg.points,
        space=cfg.space,
        constants=cfg.constants,
    )
    result = solve_hybrid_ground_state(system, tol=cfg.solver.tol)
    rows = [{
        "row_kind": "system", "point_index": None, "separation": None, "mu": None,
        "E_gr": result.energy, "nu_star": result.nu_star,
        "weights": _fmt_weights(result.weights), "residual": result.residual,
        "delta_mu2": None, "exact_shift": None, "ratio": None,
    }]
    if len(cfg.surfaces) == 1:
        center = tuple(cfg.surface_specs[0].params.get("center", (0.0, 0.0, 0.0)))
        for i, point in enumerate(cfg.points):
            sub = HybridSystem(
                surfaces=cfg.surfaces,
                couplings=cfg.couplings,
                points=(point,),
                space=cfg.space,
                constants=cfg.constants,
            )
            shift = perturbative_shift(sub)
            exact = solve_hybrid_ground_state(sub, tol=cfg.solver.tol)
            exact_shift = exact.nu_star**2 - point.mu**2
            coords = point.position.as_array()[-3:]
            sep = math.sqrt(sum((a - b) ** 2 for a, b in zip(coords, center)))
            rows.append({
                "row_kind": "perturbation", "point_index": i, "separation": sep,
                "mu": point.mu, "E_gr": exact.energy, "nu_star": exact.nu_star,
                "weights": None, "residual": exact.residual,
                "delta_mu2": shift, "exact_shift": exact_shift,
                "ratio": shift / exact_shift if exact_shift != 0.0 else None,
            })
    header = [
        "run_id", "command", "row_kind", "point_index", "separation", "mu",
        "E_gr", "nu_star", "weights", "residual", "delta_mu2", "exact_shift", "ratio",
    ]
    w = _CsvOut(out_path, cfg.config_sha256, header)
    rid = _run_id(cfg, "hybrid")
    for row in rows:
        w.row([rid, "hybrid"] + [row[k] for k in header[2:]])
    w.close()
    return 0


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
        out_path = args.out or cfg.output_path or f"shellbound_{args.command}.csv"
        if args.command == "solve":
            code = cmd_solve(cfg, out_path)
        elif args.command == "bounds":
            code = cmd_bounds(cfg, out_path)
        elif args.command == "sweep":
            code = cmd_sweep(cfg, out_path, args.param, args.grid)
        elif args.command == "variational":
            code = cmd_variational(cfg, out_path)
        else:
            code = cmd_hybrid(cfg, out_path)
        print(f"wrote {out_path}")
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
