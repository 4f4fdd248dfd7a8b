"""BENCH_protocol.json, the committed end-to-end rows, keeps its schema.

The rows are written by ``tools/bench_builds.py``.  This checks that every
row carries every field and that every time and peak is positive; it
asserts nothing about how fast a build is.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "BENCH_protocol.json"

FIELDS = {"label", "command", "k", "wall_s", "peak_rss_mb", "outputs", "commit", "dirty",
          "python", "numpy", "nproc"}
SPREAD = {"median", "min", "max", "runs"}


def test_every_row_has_its_fields_and_positive_figures():
    rows = json.loads(BENCH.read_text())["rows"]
    assert rows
    for row in rows:
        assert FIELDS <= row.keys(), row.get("command")
        assert row["command"][0] == "build-cluster"
        assert isinstance(row["label"], str) and row["label"]
        assert isinstance(row["commit"], str) and row["commit"]
        assert row["k"] >= 3 and row["nproc"] >= 1
        for key in ("wall_s", "peak_rss_mb"):
            spread = row[key]
            assert SPREAD <= spread.keys(), (row["command"], key)
            assert len(spread["runs"]) == row["k"]
            assert all(x > 0 for x in spread["runs"]), (row["command"], key)
            assert spread["min"] <= spread["median"] <= spread["max"]
        assert set(row["outputs"]) == {"cluster.dot", "cluster.json", "report.json"}
