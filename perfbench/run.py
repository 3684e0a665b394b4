"""Run the benchmark workloads and print their metrics.

    python perfbench/run.py [--workloads a,b | --workload a] [--seed N]
                            [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in fresh subprocesses (``perfbench/workloads.py``):
untraced runs start the workload process three times and report the
median set-up time, then measure timed passes for ``--seconds``.
Every metric is printed as ``<workload> <metric> <value> <unit>``, one
JSON result per workload is written to ``--out`` (with the provenance
of the run), and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace`` reports
the per-layer metrics of ``BENCHMARK.json`` instead of the end-to-end
ones. Exit status: 0 when every check passed, 1 when an output check
failed, 2 when a workload could not run at all (no result printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path[0] = str(ROOT)  # import this directory as the ``perfbench`` package

from perfbench.workloads import TMP_DIR, WORKLOADS, child_env  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3  # workload processes started per untraced run
TIME_LIMIT_S = 170.0  # per workload, under the 180 s a run may take
CALIBRATION_DRIFT = 0.10


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def calibration_score() -> float:
    """Loops per second of a fixed pure-Python loop (best of seven)."""
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def _git(*args: str) -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def host_identity() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def provenance() -> dict:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "host": host_identity(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# ----------------------------------------------------------------------
# running one workload
# ----------------------------------------------------------------------
class WorkloadError(RuntimeError):
    """A workload process exited without a result."""


def _launch(name: str, args, result: Path, deadline: float, setup_only: bool = False,
            spans: Path | None = None) -> dict:
    cmd = [sys.executable, "-m", "perfbench.workloads", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--result", str(result)]
    for flag, on in (("--trace", args.trace), ("--smoke", args.smoke),
                     ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result.unlink(missing_ok=True)
    launch = time.monotonic()
    # Its own session, so a timeout can take down the pool workers and
    # daemons it started; its stdout goes to our stderr, keeping ours
    # for the metric lines.
    proc = subprocess.Popen(cmd + ["--launch", repr(launch)], cwd=ROOT, env=child_env(),
                            stdout=sys.stderr.fileno(), start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if rc is None:
        raise WorkloadError(f"{name}: timed out")
    if rc != 0 or not result.exists():
        raise WorkloadError(f"{name}: workload process exited with status {rc}")
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


def run_workload(name: str, args, out_dir: Path) -> tuple[str, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    kind = "traced" if args.trace else "untraced"
    stem = (f"{name}.seed{args.seed}.{kind}{'.smoke' if args.smoke else ''}."
            f"{time.strftime('%Y%m%dT%H%M%S')}.{os.getpid()}")
    result_file = TMP_DIR / f"{stem}.result.json"
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    reps = 1 if (args.smoke or args.trace) else SETUP_SAMPLES
    setups = [_launch(name, args, result_file, deadline, setup_only=True)["setup_s"]
              for _ in range(reps - 1)]
    spans = out_dir / f"trace-{stem}.json" if args.trace else None
    res = _launch(name, args, result_file, deadline, spans=spans)
    setups.append(res.pop("setup_s"))
    if "metrics" in res:
        res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    res["trace"] = bool(args.trace)
    res["correct"] = res["failed"] == 0 and not res["errors"]
    return stem, res


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--workload", help="one workload (same as --workloads NAME)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one pass: every workload in well under a minute")
    ap.add_argument("--out", default=str(ROOT / ".perfbench" / "results"),
                    help="directory for the per-workload JSON results")
    args = ap.parse_args(argv)

    names = [args.workload] if args.workload else [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        ap.error(f"unknown workload(s) {unknown}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that _launch takes down the workload's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    before = calibration_score()
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args, out_dir))
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    after = calibration_score()
    drift = after / before - 1.0
    if abs(drift) > CALIBRATION_DRIFT:
        print(f"warning: calibration score moved {drift:+.1%} during the set "
              f"({before:.0f} -> {after:.0f} loops/s); the host was not steady",
              file=sys.stderr)
    calibration = {"before": before, "after": after, "drift": drift}

    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for stem, res in results:
        res.update(prov, calibration=calibration)
        (out_dir / f"{stem}.json").write_text(json.dumps(res, indent=1, sort_keys=True))
        values = res.get("layers" if args.trace else "metrics", {})
        for m in declared:
            if m["name"] in values:
                v = values[m["name"]]
                print(f"{res['workload']} {m['name']} {v!r} {m['unit']}")
                key = m["name"] if len(results) == 1 else f"{res['workload']}.{m['name']}"
                summary["metrics"][key] = {"value": v, "unit": m["unit"]}
        for err in res["errors"]:
            print(f"{res['workload']}: check failed: {err}", file=sys.stderr)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
