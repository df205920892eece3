"""Alternating parent/change timings of one warm kernel sum per geometry kind.

Times `_quadrature.double_sum` (P and P' at nu = 1) in process on four
order-24 geometries: the sphere's and the torus's self-integrals, a ring
pair (two spheres) and a mirror-rule pair (a sphere beside an ellipsoid on
the x axis).  Each run is a fresh `python3 -c` child with the checkout's
src on PYTHONPATH; it builds and caches the geometries, then reports, per
kind, the best of REPEATS timeit repeats in microseconds.  PAIRS runs go
to each checkout, the parent first on even pairs and the change first on
odd ones, and the summary gives per kind the parent's and the change's
medians, the parent's quartiles and the change's wins, with
tests/bench_pairs.py's helpers.  End-to-end benchmark runs cannot resolve
a change to one sum; this can.

    python3 tests/time_sums.py PARENT CHANGE

Make the two checkouts with `git archive`; neither is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

import bench_pairs

PAIRS = 10
REPEATS = 15

CHILD = """
import json, timeit
import shellbound as sb
from shellbound import _quadrature as quad

space, constants = sb.flat_space(), sb.PhysicalConstants()
sphere = sb.build_surface(sb.Sphere((0.0, 0.0, 0.0), 1.0), order=24)
torus = sb.build_surface(sb.Torus((0.0, 0.0, 0.0), 2.0, 0.5), order=24)
ring = sb.build_surface(sb.Sphere((2.5, 0.0, 0.0), 1.0), order=24)
beside = sb.build_surface(sb.Ellipsoid((4.0, 0.0, 0.0), 1.2, 1.0, 0.8), order=24)
kinds = {"sphere_self": (sphere, sphere), "torus_self": (torus, torus),
         "ring_pair": (sphere, ring), "mirror_pair": (sphere, beside)}
out = {}
for name, (a, b) in kinds.items():
    timer = timeit.Timer(lambda: quad.double_sum(a, b, space, constants, 1.0, 1))
    timer.timeit(1)  # builds and caches the geometry
    number = max(1, round(0.01 / timer.timeit(1)))  # about 10 ms a repeat
    out[name] = 1e6 * min(timer.repeat(%d, number)) / number
print(json.dumps(out))
""" % REPEATS


def run_once(checkout: pathlib.Path) -> dict[str, float]:
    """{kind: microseconds} from one fresh child on checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout(text: str) -> pathlib.Path:
    path = pathlib.Path(text)
    if not (path / "src" / "shellbound" / "_quadrature.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} holds no src/shellbound/_quadrature.py")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=checkout)
    ap.add_argument("change", type=checkout)
    args = ap.parse_args(argv)
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side)) for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i} ({order[0]} first): " + json.dumps(pairs[-1]), flush=True)
    kinds = {name: ("lower", None) for name in pairs[0][0]}
    print(bench_pairs.report(bench_pairs.summarize(pairs, kinds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
