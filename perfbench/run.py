"""shellbound benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {cli_configs,warm_solves,radius_sweep,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the package is imported from ./src and
the configs are read from ./configs.  All work happens in child processes
(one client, closed loop), so each workload's memory is its own:

  cli_configs   every shipped config under its natural command, one fresh
                `shellbound` process per job, in a seeded order.
  warm_solves   one library process (warm.py) that keeps five order-24 meshes
                and runs seeded batches of ground-state solves.
  radius_sweep  one `shellbound sweep --param radius` process over a seeded
                grid of eight radii on configs/single_sphere.json.

With --trace 0 the run repeats whole units (a pass over the configs, a
batch of solves, a sweep) while the next one would still end within S
seconds, and reports the end-to-end metrics.  With --trace 1 it runs one
unit untraced, the same unit traced (tracer.py, spans recorded from
outside the package), and again untraced, and reports the per-layer
metrics, with the tracing overhead as traced minus untraced wall time.

Every output is checked against the closed forms in references.py or the
checks tier-1 tests enforce; the last line of standard output is the JSON
result.  Spans, CSV files and a full record of the run go to
.perfbench_work/<workload>/.  --workload all runs the three in turn, prints
each result, and ends with one result whose metric names are prefixed by
the workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
# A run must end within 180 s: no child outlives this many seconds of it.
DEADLINE_S = 160.0
# Set-ups per run besides the timed work's own: warm_solves adds set-up-only
# workers, radius_sweep adds `shellbound --help` jobs, which pay the same
# interpreter start and import as its sweep.  cli_configs needs none: each of
# its jobs stamps the end of its set-up.
EXTRA_SETUPS = {"warm_solves": 2, "radius_sweep": 4}
# cmd_bounds' and the radius sweep's nu floor at the default solver.nu_min.
NU_FLOOR = 1e-4
# Tolerances the tier-1 tests enforce: sphere quadrature against the oracle
# (criterion 1), a lone nu*-form channel (test_principal), the coupling
# round trip (criterion 2) and the Gersgorin floor (criterion 7).
TOL_SPHERE = 1e-6
TOL_LONE_NU = 1e-9
TOL_ROUND_TRIP = 1e-8
TOL_GERSGORIN = 1e-9
THREAD_VARS = ("SHELLBOUND_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Child:
    """Outcome of one child process: exit code, wall seconds, peak RSS, and
    the monotonic time its set-up ended, if it stamped one."""

    def __init__(self, code: int, start: float, end: float, rss_mb: float, out: str = "",
                 ready: float | None = None):
        self.code, self.start, self.end, self.rss_mb = code, start, end, rss_mb
        self.out, self.ready = out, ready

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> float | None:
        return None if self.ready is None else self.ready - self.start


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.t0 = time.monotonic()
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = {k: v for k, v in os.environ.items() if k != "SHELLBOUND_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    def keep_going(self, start: float, units: int) -> bool:
        """Another unit of --seconds, if it should also end before the deadline."""
        elapsed = time.monotonic() - start
        return (workloads.another_unit(elapsed, units, self.seconds)
                and (units == 0 or elapsed / units < self.remaining()))

    def child(self, script: str, args: list[str], log: str, out: str = "") -> Child:
        """Run perfbench/<script> with args; reap it with wait4 for its RSS."""
        argv = [sys.executable, os.path.join(BENCH, script), *args]
        with open(self.path(log), "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.remaining()), os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0, out,
                     read_ready(self.path(log)))

    def item(self, label: str, ok: bool, errors=()) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        self.errors.extend(errors)

    def err_digits(self) -> float:
        """-log10 of the largest relative error against closed forms, capped at 16."""
        worst = max(self.errors, default=0.0)
        return 16.0 if worst <= 1e-16 else -math.log10(worst)


def read_ready(log: str) -> float | None:
    """The set-up stamp child.py writes as the first line of its log."""
    with open(log, "rb") as f:
        first = f.readline().split()
    return float(first[1]) if len(first) == 2 and first[0] == b"ready" else None


def median_setup(children) -> float:
    times = [c.setup_s for c in children if c.setup_s is not None]
    if not times:
        raise RuntimeError("no child stamped the end of its set-up")
    return statistics.median(times)


# ----------------------------------------------------------------- checks

def read_csv(path: str):
    """(comment lines, rows as dicts) of a shellbound CSV."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows


def sphere_system(config: dict):
    """(spheres, couplings) for references.ground_nu, or None when the config
    is not a flat-space system of spheres."""
    if config.get("ambient", {}).get("kind", "flat") != "flat" or config.get("points"):
        return None
    spheres, couplings = [], []
    for s in config["surfaces"]:
        if s["shape"] != "sphere":
            return None
        spheres.append((tuple(s["params"].get("center", (0.0, 0.0, 0.0))), s["params"]["radius"]))
        (coupling,) = s["coupling"].items()
        couplings.append(coupling)
    return spheres, couplings


def touching(spheres) -> bool:
    return any(math.dist(ci, cj) <= (ri + rj) * (1.0 + 1e-12)
               for i, (ci, ri) in enumerate(spheres) for cj, rj in spheres[i + 1:])


def check_cli_job(name: str, code: int, out: str):
    """(ok, relative errors against closed forms) for one CLI job."""
    import references as ref

    if name in workloads.DOMAIN_ERROR_CONFIGS:
        return code == 2 and not os.path.exists(out), []
    if code != 0 or not os.path.exists(out):
        return False, []
    with open(os.path.join(CONFIGS, f"{name}.json")) as f:
        config = json.load(f)
    comments, rows = read_csv(out)
    if not comments or not comments[0].startswith("# config_sha256=") or not rows:
        return False, []
    system = sphere_system(config)
    command = workloads.NATURAL_COMMANDS[name][0]
    ok, errors = True, []

    def compare(got: str, exact: float, tol: float | None, absolute=False):
        nonlocal ok
        err = abs(float(got) - exact) if absolute else ref.rel_err(float(got), exact)
        errors.append(err)
        if tol is not None and not err <= tol:
            ok = False

    if command == "solve":
        (row,) = rows
        ok = row["converged"] == "true"
        surfaces = config["surfaces"]
        if len(surfaces) == 1 and "nu_star" in surfaces[0]["coupling"]:
            # A lone nu*-form channel binds exactly at its nu*.
            compare(row["nu_star"], surfaces[0]["coupling"]["nu_star"], TOL_LONE_NU, absolute=True)
    elif command == "variational":
        (row,) = rows
        nu = ref.ground_nu(*system)
        compare(row["alpha_star"], nu * nu, TOL_SPHERE)
        compare(row["E_gr"], -nu * nu, TOL_SPHERE)
    elif command == "bounds":
        ok = all(r["validation"] in ("", "ok") for r in rows)
        for r in rows:
            if r["row_kind"] == "exact" and system is not None:
                radius = system[0][int(r["surface_index"])][1]
                compare(r["value"], ref.sphere_pair(radius, NU_FLOOR), TOL_SPHERE)
            elif r["row_kind"] == "gersgorin":
                ok = ok and float(r["value"]) <= float(r["exact"]) + TOL_GERSGORIN
                if system is not None:
                    nu = ref.ground_nu(*system)
                    # Near contact the quadrature error is a known defect:
                    # reported in err_digits, not counted as a failure.
                    tol = None if touching(system[0]) else TOL_SPHERE
                    compare(r["exact"], -nu * nu, tol)
    elif command == "sweep":
        ok = comments[-1] == "# diagnostic: E_gr_nonincreasing=pass"
        spheres, _ = system
        for r in rows:
            nu = ref.ground_nu(spheres, [("lambda", float(r["param_value"]))])
            if nu is None:
                ok = ok and r["status"] == "no-bound-state" and r["metric_value"] == ""
            elif r["metric"] == "nu_star":
                compare(r["metric_value"], nu, TOL_SPHERE)
            else:
                compare(r["metric_value"], -nu * nu, TOL_SPHERE)
    elif command == "hybrid":
        system_rows = [r for r in rows if r["row_kind"] == "system"]
        shifts = [abs(float(r["ratio"]) - 1.0) for r in rows if r["row_kind"] == "perturbation"]
        # Criterion 8: the perturbative shift improves with separation.
        ok = (len(system_rows) == 1 and float(system_rows[0]["E_gr"]) < 0.0
              and all(b < a for a, b in zip(shifts, shifts[1:])))
    return ok, errors


def check_radius_sweep(run: Run, out: str, grid: list[str], nu_star: float,
                       reference: str | None) -> None:
    """Check each grid point; with a reference CSV, also require identical bytes."""
    try:
        _, rows = read_csv(out)
    except OSError:
        rows = []
    same = reference is None or same_bytes(out, reference)
    by_point = {}
    for r in rows:
        by_point.setdefault(r["param_value"], {})[r["metric"]] = r
    for value in grid:
        metrics = by_point.get(repr(float(value)), {})
        if set(metrics) != {"E_gr", "nu_star", "lambda_critical"}:
            run.item(f"radius {value}", False)
            continue
        ok, errors = malformed_fails(check_radius_point, value, metrics, nu_star)
        run.item(f"radius {value}", same and ok, errors)


def check_radius_point(value: str, metrics: dict, nu_star: float):
    """(ok, errors) of one grid point: a lone nu*-form sphere binds at its
    nu* whatever its radius, and lambda_critical is the pair integral at
    the nu floor."""
    import references as ref

    e_nu = abs(float(metrics["nu_star"]["metric_value"]) - nu_star)
    e_energy = ref.rel_err(float(metrics["E_gr"]["metric_value"]), -nu_star * nu_star)
    e_crit = ref.rel_err(float(metrics["lambda_critical"]["metric_value"]),
                         ref.sphere_pair(float(value), NU_FLOOR))
    ok = e_nu <= TOL_LONE_NU and e_energy <= 2.0 * TOL_LONE_NU and e_crit <= TOL_SPHERE
    return ok, [e_nu, e_energy, e_crit]


def malformed_fails(check, *args):
    """check(*args), with output it cannot parse counted as a failed item."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        print(f"malformed output: {check.__name__}{args[:1]}: {e!r}", file=sys.stderr)
        return False, []


def check_warm_item(item: dict):
    """(ok, relative errors against closed forms) for one warm_solves item."""
    import references as ref

    kind = item["kind"]
    if kind == "torus_lambda":
        return ref.rel_err(item["lam_back"], item["lam"]) <= TOL_ROUND_TRIP, []
    if kind == "sphere_lambda":
        center = workloads.WARM_MESHES["sep_a"][1]
        nu = ref.ground_nu([(center, 1.0)], [("lambda", item["lam"])])
        err = ref.rel_err(item["nu"], nu)
        return err <= TOL_SPHERE, [err]
    prefix = kind.split("_")[0]
    spheres = [(workloads.WARM_MESHES[f"{prefix}_{s}"][1], 1.0) for s in "ab"]
    nu = ref.ground_nu(spheres, [("nu_star", v) for v in item["nu_stars"]])
    errors = [ref.rel_err(item["nu"], nu), ref.rel_err(item["energy"], -nu * nu)]
    ok = item["converged"] and min(item["weights"]) >= 0.0
    # The touching pair's error is the known near-contact defect: reported
    # in err_digits, not counted as a failure.
    if kind == "sep_pair":
        ok = ok and max(errors) <= TOL_SPHERE
    return ok, errors


# -------------------------------------------------------------- workloads

def cli_pass(run: Run, pass_index: int, tag: str, traced: bool) -> tuple[float, dict]:
    jobs = {}
    start = time.monotonic()
    for name in workloads.cli_order(run.seed, pass_index):
        out = run.path(f"{tag}-{name}.csv")
        cmd = workloads.NATURAL_COMMANDS[name]
        trace = ["--trace", run.path(f"{tag}-{name}.npz"), name] if traced else []
        args = [*trace, "--", cmd[0], "--config", os.path.join("configs", f"{name}.json"),
                *cmd[1:], "--out", out]
        jobs[name] = run.child("child.py", args, f"{tag}-{name}.log", out)
    return time.monotonic() - start, jobs


def check_cli_pass(run: Run, jobs: dict, reference: dict | None) -> None:
    """Check every job; with a reference pass, also require identical bytes."""
    for name, job in sorted(jobs.items()):
        ok, errors = malformed_fails(check_cli_job, name, job.code, job.out)
        if reference is not None and os.path.exists(job.out):
            ok = ok and same_bytes(job.out, reference[name].out)
        run.item(name, ok, errors)


def cli_configs(run: Run) -> dict:
    if run.traced:
        before_s, plain = cli_pass(run, 0, "plain", False)
        traced_s, traced = cli_pass(run, 0, "traced", True)
        check_cli_pass(run, plain, None)
        check_cli_pass(run, traced, plain)
        # Three passes take over 100 s on a slow machine: the closing
        # untraced pass runs only while the deadline leaves room for it.
        after_s, after = before_s, plain
        if 1.5 * before_s < run.remaining():
            after_s, after = cli_pass(run, 0, "after", False)
            check_cli_pass(run, after, plain)
        spans = [run.path(f"traced-{name}.npz") for name in traced]
        extra = {f"cli.job_s.{name}": (plain[name].seconds + after[name].seconds) / 2
                 for name in workloads.NATURAL_COMMANDS}
        return layer_result(spans, overhead(traced_s, before_s, after_s), extra)
    passes, busy = [], 0.0
    start = time.monotonic()
    while run.keep_going(start, len(passes)):
        seconds, jobs = cli_pass(run, len(passes), f"pass{len(passes)}", False)
        busy += seconds
        passes.append(jobs)
    for jobs in passes:
        check_cli_pass(run, jobs, passes[0])
    times = [j.seconds for jobs in passes for j in jobs.values()]
    return {
        "setup_s": median_setup(j for jobs in passes for j in jobs.values()),
        "items_per_s": len(times) / busy,
        "item_p50_s": statistics.median(times),
        "item_samples": len(times),
        "peak_rss_mb": max(j.rss_mb for jobs in passes for j in jobs.values()),
    }


def warm_worker(run: Run, tag: str, seconds: float, args=()) -> tuple[Child, dict | None]:
    out = run.path(f"{tag}.json")
    c = run.child("warm.py", ["--seed", str(run.seed), "--seconds", str(seconds),
                              "--out", out, *args], f"{tag}.log")
    if c.code != 0 or not os.path.exists(out):
        return c, None
    with open(out) as f:
        return c, json.load(f)


def check_warm(run: Run, result: dict | None, reference: dict | None) -> None:
    """Check each solve; with a reference result, also require identical outputs."""
    if result is None or not result["items"]:
        for k in range(len(workloads.WARM_KINDS)):
            run.item(f"solve {k}", False)
        return
    outputs = ("nu", "energy", "weights", "converged", "residual")
    for k, item in enumerate(result["items"]):
        ok, errors = malformed_fails(check_warm_item, item)
        if reference is not None:
            other = reference["items"][k] if k < len(reference["items"]) else {}
            ok = ok and all(item.get(key) == other.get(key) for key in outputs)
        # err_digits covers the first batch, which every run makes, so it
        # does not change with the number of batches that fit in --seconds.
        run.item(f"solve {k}", ok, errors if k < len(workloads.WARM_KINDS) else ())


def warm_solves(run: Run) -> dict:
    if run.traced:
        # --seconds 0 runs exactly one batch.
        plain_child, plain = warm_worker(run, "plain", 0)
        traced_child, traced = warm_worker(run, "traced", 0, ["--trace", run.path("traced.npz")])
        after_child, after = warm_worker(run, "after", 0)
        check_warm(run, plain, None)
        check_warm(run, traced, plain)
        check_warm(run, after, plain)
        return layer_result([run.path("traced.npz")], overhead(
            traced_child.seconds, plain_child.seconds, after_child.seconds), {})
    setup = []
    for k in range(EXTRA_SETUPS[run.workload]):
        c, result = warm_worker(run, f"setup{k}", run.seconds, ["--setup-only"])
        if result is None:
            raise RuntimeError(f"set-up worker exited {c.code}; see {run.path(f'setup{k}.log')}")
        setup.append(result["ready"] - c.start)
    c, result = warm_worker(run, "solves", run.seconds)
    check_warm(run, result, None)
    if result is None:
        raise RuntimeError(f"warm_solves worker exited {c.code}; see {run.path('solves.log')}")
    setup.append(result["ready"] - c.start)
    times = [item["seconds"] for item in result["items"]]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(times) / result["timed_s"],
        "item_p50_s": statistics.median(times),
        "item_samples": len(times),
        "peak_rss_mb": c.rss_mb,
    }


def sweep(run: Run, tag: str, grid: list[str], traced: bool) -> Child:
    out = run.path(f"{tag}.csv")
    trace = ["--trace", run.path(f"{tag}.npz"), "sweep"] if traced else []
    args = [*trace, "--", "sweep", "--config", os.path.join("configs", "single_sphere.json"),
            "--param", "radius", "--grid", ",".join(grid), "--out", out]
    return run.child("child.py", args, f"{tag}.log", out)


def radius_sweep(run: Run) -> dict:
    grid = workloads.radius_grid(run.seed)
    with open(os.path.join(CONFIGS, "single_sphere.json")) as f:
        nu_star = json.load(f)["surfaces"][0]["coupling"]["nu_star"]
    if run.traced:
        plain = sweep(run, "plain", grid, False)
        traced = sweep(run, "traced", grid, True)
        after = sweep(run, "after", grid, False)
        check_radius_sweep(run, plain.out, grid, nu_star, None)
        check_radius_sweep(run, traced.out, grid, nu_star, plain.out)
        check_radius_sweep(run, after.out, grid, nu_star, plain.out)
        return layer_result([run.path("traced.npz")],
                            overhead(traced.seconds, plain.seconds, after.seconds), {})
    helps = [run.child("child.py", ["--", "--help"], f"help{k}.log")
             for k in range(EXTRA_SETUPS[run.workload])]
    if any(c.code != 0 for c in helps):
        raise RuntimeError(f"`shellbound --help` failed; see {run.path('help0.log')}")
    sweeps = []
    start = time.monotonic()
    while run.keep_going(start, len(sweeps)):
        sweeps.append(sweep(run, f"sweep{len(sweeps)}", grid, False))
    for c in sweeps:
        check_radius_sweep(run, c.out, grid, nu_star, sweeps[0].out)
    return {
        "setup_s": median_setup([*helps, *sweeps]),
        "items_per_s": len(grid) * len(sweeps) / sum(c.seconds for c in sweeps),
        # One CLI call per sweep: the per-item time is the sweep's per point.
        "item_p50_s": statistics.median(c.seconds / len(grid) for c in sweeps),
        "item_samples": len(sweeps),
        "peak_rss_mb": max(c.rss_mb for c in sweeps),
    }


def overhead(traced_s: float, before_s: float, after_s: float) -> float:
    """Tracing overhead of a unit run untraced, traced, then untraced again;
    the mean of the two untraced runs cancels a steady drift in machine speed."""
    return traced_s - (before_s + after_s) / 2


def same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def layer_result(span_files: list[str], overhead_s: float, extra: dict) -> dict:
    totals: dict = {}
    for path in span_files:
        if os.path.exists(path):
            totals = tracer.add_totals(totals, tracer.layer_totals(tracer.load(path)))
    metrics = tracer.layer_metrics(totals)
    for name in workloads.NATURAL_COMMANDS:
        metrics[f"cli.job_s.{name}"] = extra.get(f"cli.job_s.{name}", 0.0)
    metrics["trace.overhead_s"] = overhead_s
    return metrics


# ------------------------------------------------------------------ main

WORKLOADS = {"cli_configs": cli_configs, "warm_solves": warm_solves, "radius_sweep": radius_sweep}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_threads": "SHELLBOUND_THREADS unset in every child",
        "seed": seed,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def measure(workload: str, args, spec: dict, env: dict) -> dict:
    """Run one workload; its result object, also saved with the run record."""
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    raw = WORKLOADS[workload](run)
    if args.trace:
        units = spec["per_layer"]
    else:
        raw["err_digits"] = run.err_digits()
        units = spec["end_to_end"]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": raw[name], "unit": unit} for name, unit in units.items()},
    }
    with open(run.path("result.json"), "w") as f:
        json.dump({**result, "env": env, "failures": run.failures,
                   "item_samples": raw.get("item_samples"), "wall_s": time.monotonic() - run.t0}, f, indent=1)
    for name in run.failures:
        print(f"{workload}: failed: {name}", file=sys.stderr)
    if "item_samples" in raw:
        print(f"{workload}: item_p50_s over {raw['item_samples']} samples", flush=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "shellbound", "__init__.py")) or not os.path.isdir(CONFIGS):
        print(f"error: run from a shellbound checkout; no src/shellbound or configs/ in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args, spec, env)))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = measure(workload, args, spec, env)
        print(f"{workload}: {json.dumps(results[workload])}", flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
