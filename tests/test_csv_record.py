"""Every shipped config's CSV under its natural command, held against a record.

tests/shipped_csv.txt keeps each CSV with its run_id column dropped (the
wall time goes to stderr, not the file), and hybrid_resonant.json's exit 2
with no file.  The equality rule: on the numpy version and machine named in
the record's header every cell must match as text, and CSV floats are
written by repr, so a float cell matches bit for bit.  Elsewhere a numpy
built with other SIMD exp paths may differ in last bits, so there numeric
cells need only agree within RELATIVE_BOUND.

A change that moves a value rewrites the record, so the move shows in the
diff:

    PYTHONPATH=src python tests/test_csv_record.py           # moves, then one line per config
    PYTHONPATH=src python tests/test_csv_record.py --write   # rewrite the record
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import pathlib
import platform
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = pathlib.Path(__file__).resolve().parent / "shipped_csv.txt"
RELATIVE_BOUND = 1e-12
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


def _platform() -> str:
    return f"numpy {np.__version__} on {platform.machine()}"


def _run(name: str, workdir: pathlib.Path, config: pathlib.Path | None = None) -> tuple[str, list[str]]:
    """(the exit line, the CSV lines without run_id) of one shipped config,
    or of the config file given in its place, under its natural command."""
    from shellbound.cli import main

    cmd = NATURAL_COMMANDS[name]
    out = workdir / f"{name}.csv"
    config = ROOT / "configs" / name if config is None else config
    argv = [cmd[0], "--config", str(config), *cmd[1:], "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if not out.exists():
        return f"exit {code}, no file", []
    lines = []
    for line in out.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="").writerow(next(csv.reader([line]))[1:])
            lines.append(buf.getvalue())
    return f"exit {code}", lines


def run_all() -> dict[str, tuple[str, list[str]]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: _run(name, pathlib.Path(tmp)) for name in NATURAL_COMMANDS}


def _format(runs) -> str:
    out = [
        "# Shipped CSVs under their natural commands, run_id dropped.",
        "# Rewrite with: PYTHONPATH=src python tests/test_csv_record.py --write",
        f"# bitwise on {_platform()}",
    ]
    for name, (status, lines) in runs.items():
        out.append(f"== {name}: {' '.join(NATURAL_COMMANDS[name])}; {status}")
        out.extend(lines)
    return "\n".join(out) + "\n"


def _parse(text: str):
    """(platform, {name: (status, lines)}) of a record."""
    runs, lines = {}, text.splitlines()
    recorded_on = lines[2].removeprefix("# bitwise on ")
    for line in lines[3:]:
        if line.startswith("== "):
            name, _, status = line[3:].partition(": ")
            current = runs[name] = (status.partition("; ")[2], [])
        else:
            current[1].append(line)
    return recorded_on, runs


def _numbers(cell: str):
    try:
        return [float(x) for x in cell.split(";")]
    except ValueError:
        return None


def _moves(old, new):
    """(cell, old, new, relative change) for every cell that differs."""
    moves = []
    for name in NATURAL_COMMANDS:
        (s_old, l_old), (s_new, l_new) = old.get(name, ("missing", [])), new[name]
        if s_old != s_new or len(l_old) != len(l_new):
            moves.append((name, f"{s_old}, {len(l_old)} lines", f"{s_new}, {len(l_new)} lines", None))
            continue
        header = []
        for row, (a, b) in enumerate(zip(l_old, l_new)):
            if a.startswith("#") or b.startswith("#"):
                if a != b:
                    moves.append((f"{name} line {row + 1}", a, b, None))
                continue
            ca, cb = next(csv.reader([a])), next(csv.reader([b]))
            if not header:
                header = ca
            for col, (x, y) in enumerate(zip(ca, cb)):
                if x == y:
                    continue
                cell = f"{name} line {row + 1} {header[col] if col < len(header) else col}"
                nx, ny = _numbers(x), _numbers(y)
                rel = None
                if nx and ny and len(nx) == len(ny):
                    rel = max(abs(q - p) / abs(p) if p else math.inf for p, q in zip(nx, ny) if p != q)
                moves.append((cell, x, y, rel))
            if len(ca) != len(cb):
                moves.append((f"{name} line {row + 1}", a, b, None))
    return moves


def test_shipped_csvs_match_their_record():
    recorded_on, old = _parse(RECORD.read_text(encoding="utf-8"))
    moves = _moves(old, run_all())
    if recorded_on != _platform():
        moves = [m for m in moves if m[3] is None or m[3] > RELATIVE_BOUND]
    assert not moves, "unrecorded CSV moves:\n" + "\n".join(
        f"{cell}: {a} -> {b} (relative {rel})" for cell, a, b, rel in moves
    )


def _summary(name: str, moves) -> str:
    """One line for a config's moves: how many cells moved and the largest
    relative move.  A residual cell, |omega_min| at the root, is rounding,
    so those give the largest absolute value on either side instead."""
    rel = [r for cell, _, _, r in moves if not cell.endswith(" residual")]
    residual = [
        abs(x) for cell, a, b, _ in moves if cell.endswith(" residual") for x in _numbers(a) + _numbers(b)
    ]
    line = f"{name}: {len(moves)} cells moved"
    if rel:
        line += ", largest relative " + ("-" if None in rel else f"{max(rel):.1e}")
    if residual:
        line += f", residual cells up to {max(residual):.1e}"
    return line


def test_the_summary_counts_moves_and_reads_residuals_by_size():
    moves = [
        ("a.json line 3 E_gr", "-1.0", "-1.0000000000000004", 4e-16),
        ("a.json line 3 residual", "1e-18", "-3e-18", 4.0),
        ("a.json line 4 weights", "0.5;0.5", "0.5;0.5000000000000002", 4e-16),
    ]
    assert _summary("a.json", moves) == (
        "a.json: 3 cells moved, largest relative 4.0e-16, residual cells up to 3.0e-18"
    )
    assert _summary("b.json", []) == "b.json: 0 cells moved"
    assert _summary("c.json", [("c.json", "exit 0, 3 lines", "exit 2, 0 lines", None)]) == (
        "c.json: 1 cells moved, largest relative -"
    )


def main(argv) -> int:
    runs = run_all()
    old = _parse(RECORD.read_text(encoding="utf-8"))[1] if RECORD.exists() else {}
    moves = _moves(old, runs)
    for cell, a, b, rel in moves:
        print(f"{cell} | {a} | {b} | {'-' if rel is None else f'{rel:.1e}'}")
    for name in NATURAL_COMMANDS:
        print(_summary(name, [m for m in moves if m[0].partition(" ")[0] == name]))
    if "--write" in argv:
        RECORD.write_text(_format(runs), encoding="utf-8")
        print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
