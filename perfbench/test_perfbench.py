"""Checks of the benchmark itself: ``python -m pytest perfbench -q``.

The two smoke runs take about half a minute each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

from perfbench import compare  # noqa: E402


def _run(tmp_path_factory, *flags: str) -> tuple[subprocess.CompletedProcess, Path]:
    out = tmp_path_factory.mktemp("results")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--out", str(out), *flags],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc, out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory)


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    return _run(tmp_path_factory, "--trace")


def _printed(stdout: str) -> dict[tuple[str, str], str]:
    """``(workload, metric) -> unit`` of every metric line."""
    lines = stdout.strip().splitlines()[:-1]
    return {(w, m): unit for w, m, _value, unit in (line.split() for line in lines)}


def test_smoke_prints_every_end_to_end_metric_with_its_unit(smoke):
    proc, _ = smoke
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert printed.get((w, m["name"])) == m["unit"], (w, m["name"])
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0


def test_traced_smoke_calls_every_wrapped_function(traced_smoke):
    """A wrapper patched at the wrong import site records no calls."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.trace import TARGETS

    proc, out = traced_smoke
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    for w in WORKLOADS:
        for m in SPEC["per_layer"]:
            assert printed.get((w, m["name"])) == m["unit"], (w, m["name"])
    calls = {}
    for path in out.glob("*.json"):
        if not path.name.startswith("trace-"):  # not a span file
            doc = json.loads(path.read_text())
            calls[doc["workload"]] = doc["functions"]
    missing = [(w, target) for _, target, workloads in TARGETS for w in workloads
               if calls[w][target] < 1]
    assert not missing


# ----------------------------------------------------------------------
# compare.py on synthetic result sets
# ----------------------------------------------------------------------
HOST = {"cpu_model": "cpu", "nproc": 2, "kernel": "k", "python": "3", "numpy": "2", "scipy": "1"}


def _write_set(directory: Path, walls: list[float], **overrides) -> None:
    directory.mkdir()
    for seed, wall in enumerate(walls):
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics["wall_s"] = wall
        doc = {"workload": "fig10_flit", "seed": seed, "trace": False, "mode": "full",
               "params": {}, "repro_env": {}, "host": HOST, "correct": True,
               "metrics": metrics}
        doc.update(overrides)
        (directory / f"r{seed}.json").write_text(json.dumps(doc))


def _verdicts(tmp_path, a_walls, b_walls, **b_overrides):
    _write_set(tmp_path / "a", a_walls)
    _write_set(tmp_path / "b", b_walls, **b_overrides)
    rows, problems = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"), SPEC)
    return {r["metric"]: r["verdict"] for r in rows}, problems


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


@pytest.mark.parametrize("b_walls, expected", [
    ([w * 1.001 for w in BASE[::-1]], "unchanged"),
    ([w * 1.3 for w in BASE], "regressed"),
    ([w * 0.95 for w in BASE], "improved"),
    ([w * 0.7 for w in BASE], "improved"),
    ([5.0, 15.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0, 7.0, 13.0], "unresolved"),
])
def test_compare_verdicts(tmp_path, b_walls, expected):
    verdicts, problems = _verdicts(tmp_path, BASE, b_walls)
    assert not problems
    assert verdicts["wall_s"] == expected
    assert verdicts["setup_s"] == "unchanged"


@pytest.mark.parametrize("override", [
    {"host": dict(HOST, nproc=8)},
    {"mode": "smoke"},
    {"seed": 99},
    {"correct": False},
])
def test_compare_refuses_mismatched_sets(tmp_path, override):
    _, problems = _verdicts(tmp_path, BASE, BASE, **override)
    assert problems
