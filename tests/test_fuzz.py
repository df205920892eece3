"""Seeded config fuzz: mutated shipped configs keep the exit-code contract.

Each shipped config is mutated under its natural command: a key dropped, a
value of the wrong type, one number set to NaN, an infinity, zero or a
huge or tiny magnitude, a surface duplicated, or one surface moved onto
another.  cli.main must then exit 0, 1 or 2 without letting an exception
escape, write its CSV only on exit 0, and write only finite numbers.
Quadrature orders are never raised, so no mutation asks for a large
allocation.
"""

import copy
import csv
import io
import json
import math
import random

import pytest

from shellbound.cli import main
from test_acceptance import NATURAL_COMMANDS

_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300, 1e-300, -1e-300)
_WRONG_TYPES = ("x", None, True, [], {}, [1.0, 2.0])
_KINDS = ("drop", "wrong_type", "number", "duplicate", "move")
_DROP = object()  # _set's marker for deleting a key


def _paths(obj, path=()):
    """(path, value) for every node of a JSON tree, the root included."""
    yield path, obj
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _set(data, path, value):
    """Set the node at path to value, or delete it if value is _DROP."""
    for key in path[:-1]:
        data = data[key]
    if value is _DROP:
        del data[path[-1]]
    else:
        data[path[-1]] = value


def _mutate(data: dict, kind: str, rng: random.Random):
    """A mutated deep copy of data and a label, or None if kind does not apply."""
    data = copy.deepcopy(data)
    nodes = list(_paths(data))[1:]
    surfaces = data.get("surfaces", [])
    if kind == "drop":
        path, _ = rng.choice([(p, v) for p, v in nodes if isinstance(p[-1], str)])
        _set(data, path, _DROP)
        value = "dropped"
    elif kind == "wrong_type":
        path, old = rng.choice(nodes)
        value = rng.choice([v for v in _WRONG_TYPES if type(v) is not type(old)])
        _set(data, path, value)
    elif kind == "number":
        numbers = [
            p for p, v in nodes
            if isinstance(v, (int, float)) and not isinstance(v, bool) and "order" not in p
        ]
        path = rng.choice(numbers)
        value = rng.choice(_NUMBERS)
        _set(data, path, value)
    elif kind == "duplicate":
        if not surfaces:
            return None
        i = rng.randrange(len(surfaces))
        surfaces.insert(i, copy.deepcopy(surfaces[i]))
        path, value = ("surfaces", i), "duplicated"
    else:  # move one surface onto another
        if len(surfaces) < 2:
            return None
        i, j = rng.sample(range(len(surfaces)), 2)
        surfaces[j]["params"]["center"] = list(surfaces[i]["params"]["center"])
        path, value = ("surfaces", j), f"onto surface {i}"
    return data, f"{kind} {'/'.join(map(str, path))} {value!r}"


def _check_run(tmp_path, command, data, label):
    """Run cli.main on data in tmp_path and check the exit-code contract."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    argv = [command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
    try:
        code = main(argv)
    except (Exception, SystemExit) as e:
        pytest.fail(f"{label}: {type(e).__name__} escaped: {e}")
    assert code in (0, 1, 2), label
    written = sorted(p.name for p in tmp_path.iterdir() if p != cfg)
    assert written == (["out.csv"] if code == 0 else []), (label, code, written)
    if code == 0:
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        for row in csv.reader(io.StringIO("\n".join(lines))):
            for cell in row[1:]:  # run_id is a hex digest, not a number
                for piece in cell.split(";"):  # weights are ;-separated
                    try:
                        value = float(piece)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (label, row)
        out.unlink()
    return code


@pytest.mark.parametrize("name", sorted(NATURAL_COMMANDS))
def test_mutated_config_keeps_the_exit_contract(tmp_path, config_dir, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # a default output path would land here
    base = json.loads((config_dir / name).read_text())
    rng = random.Random(name)
    for kind in _KINDS:
        for _ in range(3):
            mutated = _mutate(base, kind, rng)
            if mutated is not None:
                _check_run(tmp_path, NATURAL_COMMANDS[name], *mutated)


# Cases the fuzz found: an OverflowError escaped from mu**2 (mu is now
# rejected unless its square is a normal float), a far surface gave an
# infinite point separation (now math.dist), and a point or a centre at
# 1e300 overflowed a squared distance (coordinates now need a finite
# fourth power).
@pytest.mark.parametrize(
    "name,path,value",
    [
        ("hybrid_resonant.json", ("points", 0, "mu"), 1e300),
        ("hybrid_far_point.json", ("surfaces", 0, "params", "center", 1), 1e300),
        ("hybrid_far_point.json", ("points", 0, "position", 2), 1e300),
        ("three_spheres_lambda.json", ("surfaces", 1, "params", "center", 0), -1e300),
    ],
)
def test_fuzz_findings_keep_the_exit_contract(tmp_path, config_dir, capsys, name, path, value):
    data = json.loads((config_dir / name).read_text())
    _set(data, path, value)
    _check_run(tmp_path, NATURAL_COMMANDS[name], data, f"{path} {value}")


@pytest.mark.parametrize(
    "name,path,value",
    [
        ("hybrid_far_point.json", ("points", 0, "position", 2), 1e300),
        ("hybrid_far_point.json", ("points", 0, "position", 2), math.inf),
        ("three_spheres_lambda.json", ("surfaces", 1, "params", "center", 0), -1e300),
    ],
)
def test_coordinates_without_a_finite_fourth_power_exit_one(
    tmp_path, config_dir, capsys, name, path, value
):
    # an overflowing coordinate is a config error like an infinite one,
    # not a domain error found later in a distance or a kernel
    data = json.loads((config_dir / name).read_text())
    _set(data, path, value)
    assert _check_run(tmp_path, NATURAL_COMMANDS[name], data, f"{path} {value}") == 1
    assert "fourth power" in capsys.readouterr().err
