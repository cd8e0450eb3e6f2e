"""End-to-end benchmark of sqfr: one workload, one closed loop, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` beside this
directory. The inputs are generated from the seed and written to a work
directory under ``perfbench/work/``; then worker.py imports sqfr and runs
one operation after another for S seconds (closed loop, one operation at
a time, no threads). Every output is checked against reference.py. The
last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). The traced run also writes its spans and figures to
``perfbench/out/``. Progress and check details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(inputs.WRITERS)
#: Set-up (input generation, worker start, import, in-memory input) runs
#: this many times per run; setup_s is the median.
SETUP_REPEATS = 3
#: How long a worker may take to report ready, and to finish after --seconds.
READY_TIMEOUT_S = 60
FINISH_GRACE_S = 90


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def start_worker(args, work: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready``; returns it and the seconds taken."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def finish_worker(proc: subprocess.Popen, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def set_up_and_run(args, work: Path) -> tuple[dict, dict, list[float]]:
    """Set up SETUP_REPEATS times; the last worker goes on to the timed loop."""
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        written = inputs.WRITERS[args.workload](args.seed, work)
        generate_s = time.perf_counter() - t0
        last = i == SETUP_REPEATS - 1
        proc, ready_s = start_worker(args, work, setup_only=not last)
        setups.append(generate_s + ready_s)
        if not last and proc.wait(timeout=READY_TIMEOUT_S) != 0:
            raise RuntimeError(f"set-up worker exited with code {proc.returncode}")
    result = finish_worker(proc, args.seconds + FINISH_GRACE_S)
    return written, result, setups


def check_outputs(workload: str, work: Path, written: dict, result: dict) -> list[str]:
    problems = []
    if len(set(result["digests"])) > 1:
        problems.append("repeated operations wrote different bytes")
    if workload in ("eval-csv-int", "report-float-observed"):
        doc = json.loads((work / "report.json").read_text(encoding="utf-8"))
        problems += checks.report(doc, written["scores"], written["rows"],
                                  observed=workload == "report-float-observed")
    elif workload == "plotdata-json-int":
        problems += checks.plot(json.loads((work / "plot.json").read_text(encoding="utf-8")),
                                written["scores"])
    else:
        problems += checks.simulated_csv(work / "sim.csv", written["spec"])
    fixture_problems, red = checks.fixtures(result["fixtures"])
    for cell in red:
        log(f"reference outside published tolerance (documented): {cell}")
    return problems + fixture_problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sqfr" / "__init__.py").is_file():
        log(f"no sqfr package under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        written, result, setups = set_up_and_run(args, work)
        t0 = time.perf_counter()
        problems = check_outputs(args.workload, work, written, result)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"CHECK FAILED: {p}")
    log(f"{args.workload} seed {args.seed}: {result['attempted']} operations,"
        f" {result['failed']} failed, backend {result['backend']},"
        f" checks {'passed' if not problems else 'FAILED'} in {check_s:.1f} s")

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in result["layers"].items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"{args.workload}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": metrics,
            "untraced_walls": result["walls"], "traced_walls": result["traced_walls"],
            "spans": result["spans"],
        }), encoding="utf-8")
        log(f"spans and per-layer figures written to {trace_file.relative_to(ROOT)}")
    else:
        walls = result["walls"]
        metrics = {
            "op_wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_cpu_s": {"value": statistics.median(result["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        log(f"op walls {[round(w, 3) for w in walls]}, setups {[round(s, 3) for s in setups]}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
