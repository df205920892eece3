"""tests/time_sums.py's argument handling and report, on made-up timings."""

import pathlib

import pytest

import time_sums


def _checkout(root: pathlib.Path) -> pathlib.Path:
    (root / "src" / "shellbound").mkdir(parents=True)
    (root / "src" / "shellbound" / "_quadrature.py").touch()
    return root


def test_time_sums_arguments_and_report(tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    # two checkouts are required, each holding the package's sources
    for argv in ([str(parent)], [str(parent), str(tmp_path)]):
        with pytest.raises(SystemExit) as exit_info:
            time_sums.main(argv)
        assert exit_info.value.code == 2
    assert "holds no src/shellbound/_quadrature.py" in capsys.readouterr().err
    # made-up runs: pair i reads 100 + i us at the parent and 90 + i at the
    # change, except that the change loses pair 0 on the torus
    runs = []

    def run_once(checkout):
        runs.append(checkout)
        i = runs.count(checkout) - 1
        base = {parent: 100.0, change: 90.0}[checkout] + i
        torus = 101.0 if (checkout, i) == (change, 0) else base
        return {"sphere_self": base, "torus_self": torus}

    monkeypatch.setattr(time_sums, "run_once", run_once)
    assert time_sums.main([str(parent), str(change)]) == 0
    # fresh runs alternate which side goes first
    assert runs[:4] == [parent, change, change, parent] and len(runs) == 2 * time_sums.PAIRS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 0 (parent first): ")
    assert lines[1].startswith("pair 1 (change first): ")
    assert lines[-2:] == [
        "sphere_self: 104.5 [102.25, 106.75] -> 94.5, change wins 10/10, worse by -9.57%",
        "torus_self: 104.5 [102.25, 106.75] -> 95.5, change wins 9/10, worse by -8.61%",
    ]
