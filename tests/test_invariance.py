"""Shipped results that must not depend on how a config is written.

The exact class of ROADMAP item 23 (metamorphic testing: Chen et al. 2018,
ACM Comput. Surv. 51(1):4): moving every centre and point by one vector,
listing a config's surfaces in reverse order, and reflecting one
coordinate axis, change no physics, so each flat shipped config's CSV
under its natural command must keep its values.  A transform moves the
nodes of every mesh off their bits, not its form, so the agreement is a
few ulp times each solve's conditioning.
At the library level, a pair's P must not depend on which surface is
outer, on a shift of both, or on which of _pair_geometry's rules, the
mirror rule or the full product, sums a pair that both can.
"""

import copy
import csv
import dataclasses
import json
import math
import pathlib

import pytest

from shellbound import Ellipsoid, Sphere, Torus, build_surface
from shellbound.principal import pair_integral
from test_csv_record import NATURAL_COMMANDS, ROOT, _numbers, _run

SHIFT = (0.3, -7.0, 2.0)
# Relative bound on every numeric cell but the residuals (1.2e-15 seen, in
# hybrid_far_point, whose point distances move; 4.2e-16 in touching_spheres
# and none elsewhere), and absolute bound on a residual, |omega_min| at the
# root, which is rounding (1.9e-15 seen on either side).
RELATIVE_BOUND = 1e-14
RESIDUAL_BOUND = 1e-14
FLAT = [
    name
    for name in NATURAL_COMMANDS
    if json.loads((ROOT / "configs" / name).read_text())["ambient"]["kind"] == "flat"
]


def _transformed(config: dict) -> dict:
    """The config with every centre and point moved by SHIFT, and its
    surfaces in reverse order (a no-op for a lone surface)."""
    out = copy.deepcopy(config)
    for surface in out["surfaces"]:
        surface["params"]["center"] = [x + dx for x, dx in zip(surface["params"]["center"], SHIFT)]
    for point in out.get("points", []):
        point["position"] = [x + dx for x, dx in zip(point["position"], SHIFT)]
    out["surfaces"].reverse()
    return out


def _rows(lines, n_surfaces, reversed_):
    """The CSV's comment lines but the config hash, its header, and its
    rows, those of a reversed config mapped back: each surface_index i to
    n - 1 - i, with the rows ordered by it, and the first n entries of
    weights, the surfaces', reversed."""
    comments = [line for line in lines if line.startswith("#") and "config_sha256" not in line]
    table = [next(csv.reader([line])) for line in lines if not line.startswith("#")]
    if not table:
        return comments, [], []
    header, rows = table[0], table[1:]
    if reversed_:
        for row in rows:
            for col, name in enumerate(header):
                if name == "surface_index" and row[col].isdigit():
                    row[col] = str(n_surfaces - 1 - int(row[col]))
                elif name == "weights" and row[col]:
                    w = row[col].split(";")
                    row[col] = ";".join(w[:n_surfaces][::-1] + w[n_surfaces:])
        if "surface_index" in header:
            rows.sort(key=lambda row: row[header.index("surface_index")])
    return comments, header, rows


def _deviations(header, rows_a, rows_b):
    """(cell, deviation, bound) of every numeric cell, relative, or
    absolute for a residual; a cell that differs as text and not as a
    number deviates by inf."""
    out = []
    for r, (a, b) in enumerate(zip(rows_a, rows_b, strict=True)):
        for name, x, y in zip(header, a, b, strict=True):
            nx, ny = _numbers(x), _numbers(y)
            if not (nx and ny and len(nx) == len(ny)):
                out.append((f"row {r} {name}", 0.0 if x == y else math.inf, 0.0))
            elif name == "residual":
                out.append((f"row {r} {name}", max(map(abs, nx + ny)), RESIDUAL_BOUND))
            else:
                dev = max(abs(q - p) / abs(p) if p else abs(q) for p, q in zip(nx, ny))
                out.append((f"row {r} {name}", dev, RELATIVE_BOUND))
    return out


@pytest.mark.parametrize("name", FLAT)
def test_shipped_results_survive_a_shift_and_a_reversed_surface_list(tmp_path, name):
    config = json.loads((ROOT / "configs" / name).read_text())
    _compare(tmp_path, name, config, _transformed(config), True)


def _reflected(config: dict, axis: int) -> dict:
    """The config with coordinate axis of every centre and point negated.
    Every shape is mirror-symmetric in its centre's coordinate planes, so
    each mesh is the mirror image of the original, node for node."""
    out = copy.deepcopy(config)
    for surface in out["surfaces"]:
        surface["params"]["center"][axis] = -surface["params"]["center"][axis]
    for point in out.get("points", []):
        point["position"][axis] = -point["position"][axis]
    return out


def _compare(tmp_path, name, config, transformed, reversed_):
    """Run name's shipped config and transformed under its natural command
    and assert equal comments and headers, and every cell within its
    bound."""
    path = tmp_path / name
    path.write_text(json.dumps(transformed))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    status_a, lines_a = _run(name, tmp_path / "a")
    status_b, lines_b = _run(name, tmp_path / "b", path)
    assert status_a == status_b
    n = len(config["surfaces"])
    comments_a, header, rows_a = _rows(lines_a, n, False)
    comments_b, header_b, rows_b = _rows(lines_b, n, reversed_ and n > 1)
    assert (comments_a, header) == (comments_b, header_b)
    bad = [d for d in _deviations(header, rows_a, rows_b) if not d[1] <= d[2]]
    assert bad == []


# Reflection is in the exact class too: the distances are the original's
# up to the rounding of each node's centre-plus-offset sum.  Every cell is
# bitwise but hybrid_far_point's in x (9.9e-16, and its residual 1.9e-15
# on either side); a ring pair placed at its signed x + y offset instead
# of its distance fails three_spheres_lambda in x and y.
@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
@pytest.mark.parametrize("name", FLAT)
def test_shipped_results_survive_reflecting_an_axis(tmp_path, name, axis):
    config = json.loads((ROOT / "configs" / name).read_text())
    _compare(tmp_path, name, config, _reflected(config, axis), False)


def test_the_reflection_negates_one_coordinate_of_every_centre_and_point():
    config = json.loads((ROOT / "configs" / "two_spheres.json").read_text())
    config["points"] = [{"position": [5.0, 1.0, -2.0], "mu": 0.5}]
    out = _reflected(config, 1)
    assert [s["params"]["center"] for s in out["surfaces"]] == [
        s["params"]["center"][:1] + [-s["params"]["center"][1]] + s["params"]["center"][2:]
        for s in config["surfaces"]
    ]
    assert out["points"][0]["position"] == [5.0, -1.0, -2.0]
    assert config["points"][0]["position"] == [5.0, 1.0, -2.0]  # a copy


def test_the_transform_moves_every_centre_and_point_and_reverses_the_surfaces():
    config = json.loads((ROOT / "configs" / "two_spheres.json").read_text())
    config["points"] = [{"position": [5.0, 0.0, 0.0], "mu": 0.5}]
    out = _transformed(config)
    assert [s["params"]["center"] for s in out["surfaces"]] == [[4.3, -7.0, 2.0], [0.3, -7.0, 2.0]]
    assert out["points"][0]["position"] == [5.3, -7.0, 2.0]
    assert config["surfaces"][0]["params"]["center"] == [0.0, 0.0, 0.0]  # a copy


def test_the_comparison_maps_a_reversal_and_finds_a_move():
    header = ["command", "surface_index", "value", "weights", "residual"]
    a = [["x", "0", "1.0", "0.6;0.8;0.5", "1e-16"], ["x", "1", "2.0", "", ""]]
    b = [["x", "0", "2.0", "", ""], ["x", "1", "1.0", "0.8;0.6;0.5", "1e-16"]]
    _, _, mapped = _rows([",".join(header), *(",".join(row) for row in b)], 2, True)
    assert mapped == a
    assert [cell for cell, dev, _ in _deviations(header, a, a) if dev] == ["row 0 residual"]
    moved = [row[:] for row in a]
    moved[1][2] = "2.00000000000004"
    moved[0][4] = "-2e-16"
    devs = {cell: dev for cell, dev, _ in _deviations(header, a, moved)}
    assert devs["row 1 value"] == pytest.approx(2e-14, rel=1e-3)
    assert devs["row 0 residual"] == 2e-16


# Library-level pair cases, one per pair path of _quadrature._pair_geometry,
# each P(nu) at orders 16 and 24 against its transformed self.
NUS = (0.1, 1.0, 3.0)


def _moved(shape, shift):
    return dataclasses.replace(shape, center=tuple(x + dx for x, dx in zip(shape.center, shift)))


def _worst(pairs, constants, flat):
    """The largest relative deviation of P(nu) over NUS between the first
    (outer, inner) pair and each of the others."""
    worst = 0.0
    for nu in NUS:
        ref = pair_integral(*pairs[0], flat, constants, nu)
        for pair in pairs[1:]:
            worst = max(worst, abs(pair_integral(*pair, flat, constants, nu) - ref) / ref)
    return worst


@pytest.mark.parametrize("order", [16, 24])
def test_ring_pair_survives_swapping_its_order(constants, flat, order):
    # each order sums the other sphere's u-rings on the line of centres
    # (4.9e-16 seen at order 24)
    a = build_surface(Sphere((0.0, 0.0, 0.0), 1.0), order=order)
    b = build_surface(Sphere((2.5, 1.0, -0.5), 0.7), order=order)
    assert _worst([(a, b), (b, a)], constants, flat) <= 2e-15


@pytest.mark.parametrize("order", [16, 24])
def test_mirror_rule_pair_is_the_full_product_rule(constants, flat, order):
    # a sphere on the ellipsoid's x axis shares its y and z mirror planes,
    # so the pair sums 300 orbit rows at order 24; nudged off both planes
    # by 1e-13, which moves P at second order only, it sums every node
    # (4.5e-16 seen at either order)
    ellipsoid = build_surface(Ellipsoid((0.0, 0.0, 0.0), 1.2, 1.0, 0.8), order=order)
    on_axis, nudged = (
        build_surface(Sphere(center, 1.0), order=order)
        for center in ((3.0, 0.0, 0.0), (3.0, 1e-13, 1e-13))
    )
    assert _worst([(ellipsoid, on_axis), (ellipsoid, nudged)], constants, flat) <= 2e-15
    assert _worst([(on_axis, ellipsoid), (nudged, ellipsoid)], constants, flat) <= 2e-15


@pytest.mark.parametrize("order", [16, 24])
def test_torus_sphere_pair_survives_a_shift_and_a_swap(constants, flat, order):
    # no shared plane, so every node pairs with every node, in the user's
    # frame moved by SHIFT (1.7e-16 seen)
    torus, sphere = Torus((0.0, 0.0, 0.0), 2.0, 0.5), Sphere((0.5, 4.0, 1.0), 1.0)
    t, s, t_moved, s_moved = (
        build_surface(shape, order=order)
        for shape in (torus, sphere, _moved(torus, SHIFT), _moved(sphere, SHIFT))
    )
    pairs = [(t, s), (s, t), (t_moved, s_moved), (s_moved, t_moved)]
    assert _worst(pairs, constants, flat) <= 1e-15
