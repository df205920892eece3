"""warm_solves worker: a library user who keeps meshes across many solves.

    python3 perfbench/warm.py --seed N --seconds S --out RESULT.json
                              [--setup-only] [--trace SPANS]

Set-up builds the order-24 meshes of workloads.WARM_MESHES and warms their
patch and pair geometry through the public API.  The timed part then runs
seeded batches of solves (workloads.warm_batch) until another batch would
overrun S seconds; the first batch always runs, so S = 0 gives exactly one.
RESULT.json gets the monotonic time set-up ended, the timed span, and every
item's inputs, outputs and seconds; the torus round trip lambda -> nu* ->
lambda is computed after the timed part.  --setup-only stops after set-up.
With --trace, layer spans of set-up and the timed part go to SPANS.
"""

from __future__ import annotations

import argparse
import json
import time

import shellbound as sb

import workloads


def build_meshes() -> dict:
    meshes = {}
    for key, (shape, center) in workloads.WARM_MESHES.items():
        if shape == "sphere":
            geometry = sb.Sphere(center, 1.0)
        else:
            geometry = sb.Torus(center, *workloads.TORUS_RADII)
        meshes[key] = sb.build_surface(geometry, order=workloads.WARM_ORDER)
    return meshes


def warm_geometry(meshes: dict, space, constants) -> None:
    for mesh in meshes.values():
        sb.pair_integral(mesh, mesh, space, constants, 1.0)
    for a, b in (("sep_a", "sep_b"), ("touch_a", "touch_b")):
        sb.pair_integral(meshes[a], meshes[b], space, constants, 1.0)


def solve(item: dict, meshes: dict, space, constants) -> dict:
    kind = item["kind"]
    if kind.endswith("_pair"):
        prefix = kind.split("_")[0]
        pair = [meshes[f"{prefix}_a"], meshes[f"{prefix}_b"]]
        r = sb.solve_ground_state(pair, sb.CouplingSpec.from_nu_stars(*item["nu_stars"]),
                                  space, constants)
        return {"energy": r.energy, "nu": r.nu_star, "weights": r.weights.tolist(),
                "converged": r.converged, "residual": r.residual}
    mesh = meshes["sep_a" if kind == "sphere_lambda" else "torus"]
    return {"nu": sb.energy_from_coupling(mesh, space, constants, item["lam"])}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default="")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.set_item("setup")
    space, constants = sb.flat_space(), sb.PhysicalConstants()
    meshes = build_meshes()
    warm_geometry(meshes, space, constants)
    ready = time.monotonic()
    items = []
    result = {"ready": ready, "items": items}
    if not args.setup_only:
        start = time.perf_counter()
        batch = 0
        while workloads.another_unit(time.perf_counter() - start, batch, args.seconds):
            for item in workloads.warm_batch(args.seed, batch):
                if tracer is not None:
                    tracer.set_item(f"solve {len(items)}")
                t0 = time.perf_counter()
                out = solve(item, meshes, space, constants)
                out["seconds"] = time.perf_counter() - t0
                items.append({**item, **out})
            batch += 1
        result["timed_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.trace)
    for item in items:
        if item["kind"] == "torus_lambda":
            item["lam_back"] = sb.coupling_from_energy(meshes["torus"], space, constants, item["nu"])
    with open(args.out, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
