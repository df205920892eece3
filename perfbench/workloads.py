"""Inputs of the three workloads, made from the seed alone.

The same seed gives the same inputs; the package only ever sees the
generated values.  Item counts never depend on the seed.
"""

from __future__ import annotations

import random

# Each shipped config under its natural command, the pairing acceptance
# criterion 10 uses (tests/test_acceptance.py::NATURAL_COMMANDS).
NATURAL_COMMANDS = {
    "single_sphere": ["solve"],
    "single_sphere_lambda": ["variational"],
    "two_spheres": ["bounds"],
    "three_spheres_lambda": ["variational"],
    "subcritical": ["sweep", "--param", "lambda", "--grid", "0.9,0.999,1.5,2.5"],
    "torus": ["bounds"],
    "touching_spheres": ["bounds"],
    "hybrid_far_point": ["hybrid"],
    "hybrid_resonant": ["hybrid"],
    "ellipsoid": ["solve"],
    "hyperbolic_case": ["bounds"],
}

# The config that must end in a domain error: exit 2 and no output file.
DOMAIN_ERROR_CONFIGS = {"hybrid_resonant"}

RADIUS_POINTS = 8
WARM_ORDER = 24
# Meshes of warm_solves: two separated unit spheres (D = 4), a touching
# pair (D = 2) and a torus.  "sep_a" also serves the single-sphere solves.
WARM_MESHES = {
    "sep_a": ("sphere", (0.0, 0.0, 0.0)),
    "sep_b": ("sphere", (4.0, 0.0, 0.0)),
    "touch_a": ("sphere", (0.0, 10.0, 0.0)),
    "touch_b": ("sphere", (2.0, 10.0, 0.0)),
    "torus": ("torus", (0.0, 0.0, -10.0)),
}
TORUS_RADII = (2.0, 0.5)
# Items per warm batch.  Ten single-surface solves against two pair solves
# keep the median item near the middle of one kind of solve, so it does not
# jump between the two kinds, and the pairs still take half the time.
WARM_KINDS = ("sep_pair", "touch_pair") + ("sphere_lambda",) * 5 + ("torus_lambda",) * 5


def another_unit(elapsed: float, units: int, seconds: float) -> bool:
    """Whether to start another whole unit (pass, batch, sweep) of a run
    meant to last seconds: always the first, then only while one more at
    the mean pace so far still ends in time."""
    return units == 0 or elapsed + elapsed / units <= seconds


def _rng(seed: int, *what) -> random.Random:
    return random.Random("|".join(str(w) for w in (seed, *what)))


def cli_order(seed: int, pass_index: int) -> list[str]:
    names = sorted(NATURAL_COMMANDS)
    _rng(seed, "cli", pass_index).shuffle(names)
    return names


def radius_grid(seed: int) -> list[str]:
    """Eight strictly increasing radii in [0.5, 2], as the text the CLI parses."""
    rng = _rng(seed, "radius")
    grid: set[str] = set()
    while len(grid) < RADIUS_POINTS:
        grid.add(f"{rng.uniform(0.5, 2.0):.6f}")
    return sorted(grid, key=float)


def warm_batch(seed: int, batch_index: int) -> list[dict]:
    """One interleaved batch: pair solves with unequal nu* in [0.5, 1.5], and
    single-surface solves with lambda above the critical value (1.0 for the
    unit sphere, about 0.58 for the torus)."""
    rng = _rng(seed, "warm", batch_index)
    items = []
    for kind in WARM_KINDS:
        if kind.endswith("_pair"):
            a = round(rng.uniform(0.5, 1.5), 6)
            b = a
            while b == a:
                b = round(rng.uniform(0.5, 1.5), 6)
            items.append({"kind": kind, "nu_stars": [a, b]})
        elif kind == "sphere_lambda":
            items.append({"kind": kind, "lam": round(rng.uniform(1.5, 3.0), 6)})
        else:
            items.append({"kind": kind, "lam": round(rng.uniform(0.9, 1.8), 6)})
    rng.shuffle(items)
    return items
