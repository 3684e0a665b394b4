"""Compare two sets of untraced benchmark results.

    python perfbench/compare.py A/ B/

``A`` (the baseline, e.g. the parent commit) and ``B`` (the change) are
``--out`` directories of ``run.py``. For every workload x end-to-end
metric it prints each side's median and quartiles, the share of
same-seed pairs B won, and one verdict, applying the bounds of
``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B won at least 90% of the pairs and its median is
  better by more than the spread between A's own runs;
* ``unresolved`` -- a side's quartile spread is wider than the bound
  (unless every run of B beats every run of A: ``improved``);
* ``unchanged``  -- otherwise.

It refuses (exit 2) to compare runs from different hosts, seeds,
settings, workload parameters or modes (smoke vs full), and runs that
failed their checks. Exit 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced results of ``directory`` by workload, oldest first."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.startswith("trace-"):
            continue
        doc = json.loads(path.read_text())
        if not doc.get("trace"):
            runs[doc["workload"]].append(doc)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    """Runs matched by seed, in order within a seed."""
    by_seed = defaultdict(list)
    for doc in b:
        by_seed[doc["seed"]].append(doc)
    out = []
    for doc in a:
        if by_seed[doc["seed"]]:
            out.append((doc, by_seed[doc["seed"]].pop(0)))
    return out


def verdict(a: list[float], b: list[float], matched: list[tuple[float, float]],
            better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    spread = max((qa[2] - qa[0]) / ma if ma else 0.0, (qb[2] - qb[0]) / mb if mb else 0.0)
    worse = sign * (mb - ma) / ma if ma else 0.0  # > 0: B is worse
    won = sum(1 for x, y in matched if sign * (y - x) < 0) / len(matched) if matched else 0.0
    if spread > bound:
        beats_all = all(sign * (y - x) < 0 for x in a for y in b)
        name = "improved" if beats_all else "unresolved"
    elif worse > bound:
        name = "regressed"
    elif won >= 0.9 and worse < 0 and abs(mb - ma) > qa[2] - qa[0]:
        name = "improved"
    else:
        name = "unchanged"
    return {"a": qa, "b": qb, "change": (mb - ma) / ma if ma else 0.0, "won": won,
            "spread": spread, "verdict": name}


def refusals(a: list[dict], b: list[dict]) -> list[str]:
    problems = []
    for field in ("host", "mode", "repro_env", "params"):
        va = {json.dumps(d.get(field), sort_keys=True) for d in a}
        vb = {json.dumps(d.get(field), sort_keys=True) for d in b}
        if len(va | vb) > 1:
            problems.append(f"runs differ in {field}: {sorted(va | vb)}")
    if sorted(d["seed"] for d in a) != sorted(d["seed"] for d in b):
        problems.append("the two sides ran different seeds")
    failed = [d["seed"] for d in a + b if not d.get("correct")]
    if failed:
        problems.append(f"runs with seeds {failed} failed their checks")
    return problems


def compare(dir_a: str, dir_b: str, spec: dict) -> tuple[list[dict], list[str]]:
    runs_a, runs_b = load(dir_a), load(dir_b)
    rows, problems = [], []
    for workload in sorted(set(runs_a) | set(runs_b)):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            problems.append(f"{workload}: results on one side only")
            continue
        refused = refusals(a, b)
        problems.extend(f"{workload}: {p}" for p in refused)
        if refused:
            continue
        matched = pairs(a, b)
        for m in spec["end_to_end"]:
            name = m["name"]
            row = verdict([d["metrics"][name] for d in a], [d["metrics"][name] for d in b],
                          [(x["metrics"][name], y["metrics"][name]) for x, y in matched],
                          m["better"], m["bound"])
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "bound": m["bound"], "runs": (len(a), len(b)), **row})
    return rows, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline results directory")
    ap.add_argument("b", help="results directory of the change")
    args = ap.parse_args(argv)
    rows, problems = compare(args.a, args.b, json.loads(BENCHMARK.read_text()))
    if problems:
        for p in problems:
            print(f"refused: {p}", file=sys.stderr)
        return 2
    print(f"{'workload':<17} {'metric':<12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'won':>5} {'bound':>6}  verdict")
    for r in rows:
        fa = f"{r['a'][1]:.4g} [{r['a'][0]:.4g}, {r['a'][2]:.4g}]"
        fb = f"{r['b'][1]:.4g} [{r['b'][0]:.4g}, {r['b'][2]:.4g}]"
        print(f"{r['workload']:<17} {r['metric']:<12} {fa:>30} {fb:>30} "
              f"{r['change']:>+8.1%} {r['won']:>5.0%} {r['bound']:>6.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
