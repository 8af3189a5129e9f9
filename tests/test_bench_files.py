"""Every ``BENCH_*.json`` at the repository root parses and carries the
before/after record a performance claim rests on: for each workload, the
per-run values of every end-to-end metric on the parent and on the
change (at least ten interleaved pairs) with their median and quartiles,
the traced Bessel evaluation count, the environment block of
``benchmarks/run.py`` and the git revisions."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
# the workloads and end-to-end metrics of BENCHMARK.json when the first
# BENCH file was written; later files may record more
WORKLOADS = ("circle-2dom", "calderon-assembly", "line-1d")
END_TO_END = ("wall_s", "points_per_s", "point_tail_s", "peak_rss_mb",
              "setup_s")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_carries_the_record(path):
    data = json.loads(path.read_text())
    assert {"python", "numpy", "scipy", "cpu_count"} <= set(data["environment"])
    for side in SIDES:
        assert isinstance(data["git"][side], str) and data["git"][side]
    assert set(WORKLOADS) <= set(data["workloads"])
    for name in WORKLOADS:
        entry = data["workloads"][name]
        pairs = entry["pairs"]
        assert len(pairs) >= 10, name
        assert {p["first"] for p in pairs} == set(SIDES), name
        for side in SIDES:
            assert entry["trace"][side]["kernels.bessel_evals"] >= 0
        for metric in END_TO_END:
            for side in SIDES:
                stats = entry["end_to_end"][metric][side]
                runs = [p[side][metric] for p in pairs]
                assert stats["runs"] == runs, (name, metric, side)
                q1, med, q3 = np.percentile(runs, [25, 50, 75])
                assert (stats["q1"], stats["median"], stats["q3"]) == (
                    pytest.approx(q1), pytest.approx(med),
                    pytest.approx(q3)), (name, metric, side)
