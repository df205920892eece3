"""Alternating parent/change benchmark pairs, summarized against BENCHMARK.json.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`,
T the change checkout's BENCHMARK.json run_seconds, once in each of two
checkouts per seed, the parent first on even pairs and the change first
on odd ones, so that drift in machine load falls on both sides alike.  Each run's last line of standard output is its JSON
result.  For every end-to-end metric BENCHMARK.json names it prints the
parent's and the change's medians, the parent's quartiles, how many pairs
the change wins, and the median's relative move against the metric's
bound (a move the wrong way by more than the bound is marked "PAST").  It
also prints each pair's failed items and whether err_digits agree pair for
pair.  Standard library only; it changes nothing in either checkout but
what perfbench/run.py itself writes (.perfbench_work/).

    python3 tests/bench_pairs.py PARENT CHANGE --workload warm_solves --seeds 5501-5510
    python3 tests/bench_pairs.py PARENT CHANGE --workload cli_configs --seeds 1,2,3

Make the two checkouts with `git archive` so neither holds cached
bytecode; the children run with PYTHONDONTWRITEBYTECODE=1, so none is
written while they run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """'5501-5503,5510' -> [5501, 5502, 5503, 5510]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec(checkout: pathlib.Path) -> tuple[float, dict[str, tuple[str, float]]]:
    """The checkout's run length in seconds and {metric: (better, bound)}
    of its end-to-end metrics."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one perfbench run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated between order statistics
    (statistics.quantiles' inclusive method, numpy's default)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], bounds: dict[str, tuple[str, float]]) -> dict:
    """Per metric, over (parent, change) metric dicts {name: value}:
    parent and change medians, the parent's quartiles, the change's wins
    (strictly better in its pair), the relative move of the medians, signed
    so that a positive move is a worsening, and whether that worsening
    stays within the bound (always, for a bound of None)."""
    out = {}
    for name, (better, bound) in bounds.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if better == "lower" else -1.0
        p50, c50 = statistics.median(parent), statistics.median(change)
        worse = sign * (c50 - p50) / abs(p50) + 0.0 if p50 else 0.0  # no -0.0
        out[name] = {
            "parent": p50,
            "change": c50,
            "parent_quartiles": quartiles(parent),
            "wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "worse": worse,
            "bound": bound,
            "within": bound is None or worse <= bound,
        }
    return out


def report(summary: dict) -> str:
    lines = []
    for name, s in summary.items():
        q1, q3 = s["parent_quartiles"]
        line = (
            f"{name}: {s['parent']:.6g} [{q1:.6g}, {q3:.6g}] -> {s['change']:.6g}, "
            f"change wins {s['wins']}/{s['pairs']}, worse by {100 * s['worse']:+.2f}%"
        )
        if s["bound"] is not None:
            verdict = "within" if s["within"] else "PAST"
            line += f" ({verdict} its {100 * s['bound']:.0f}% bound)"
        lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 5501-5510 or 1,2,7")
    args = ap.parse_args(argv)
    seconds, bounds = load_spec(args.change)
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, seconds)
                for side in order}
        metrics = tuple({k: m["value"] for k, m in runs[side]["metrics"].items()}
                        for side in ("parent", "change"))
        pairs.append(metrics)
        print(f"seed {seed} ({order[0]} first): failed {runs['parent']['failed']} / "
              f"{runs['change']['failed']}; " + json.dumps(metrics), flush=True)
    same = all(p.get("err_digits") == c.get("err_digits") for p, c in pairs)
    print(f"err_digits equal pair for pair: {same}")
    print(report(summarize(pairs, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
