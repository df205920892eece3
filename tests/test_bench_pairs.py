"""The summary arithmetic of tests/bench_pairs.py, on made-up runs."""

import pathlib

import pytest

import bench_pairs


def test_bench_pairs_summary_arithmetic():
    assert bench_pairs.parse_seeds("5501-5503,5510") == [5501, 5502, 5503, 5510]
    # the run length and bounds come from the checkout's BENCHMARK.json
    seconds, spec = bench_pairs.load_spec(pathlib.Path(__file__).resolve().parents[1])
    assert seconds > 0 and spec["item_p50_s"][0] == "lower"
    bounds = {
        "item_p50_s": ("lower", 0.25),
        "items_per_s": ("higher", 0.25),
        "peak_rss_mb": ("lower", 0.05),
    }
    parent = {
        "item_p50_s": [1.0, 2.0, 3.0, 4.0],
        "items_per_s": [100.0] * 4,
        "peak_rss_mb": [40.0] * 4,
    }
    change = {
        "item_p50_s": [0.5, 2.5, 1.0, 1.5],
        "items_per_s": [70.0, 80.0, 90.0, 130.0],
        "peak_rss_mb": [43.0, 43.0, 39.0, 43.0],
    }
    pairs = [tuple({k: side[k][i] for k in bounds} for side in (parent, change)) for i in range(4)]
    s = bench_pairs.summarize(pairs, bounds)
    # medians 2.5 -> 1.25, the parent's quartiles interpolated, 3 of 4 won
    p50 = s["item_p50_s"]
    assert (p50["parent"], p50["change"], p50["parent_quartiles"]) == (2.5, 1.25, (1.75, 3.25))
    assert (p50["wins"], p50["pairs"], p50["worse"], p50["within"]) == (3, 4, -0.5, True)
    # higher is better: a median of 85 against 100 is 15% worse, one pair won
    rate = s["items_per_s"]
    assert rate["worse"] == pytest.approx(0.15) and rate["wins"] == 1 and rate["within"]
    # 43 against 40 MB is 7.5% worse, past the 5% bound
    rss = s["peak_rss_mb"]
    assert rss["worse"] == pytest.approx(0.075) and rss["wins"] == 1 and not rss["within"]
    lines = bench_pairs.report(s).splitlines()
    assert lines[0] == (
        "item_p50_s: 2.5 [1.75, 3.25] -> 1.25, change wins 3/4, "
        "worse by -50.00% (within its 25% bound)"
    )
    assert lines[2].endswith("worse by +7.50% (PAST its 5% bound)")
