"""Runs one workload's operations in a closed loop inside one process.

Started by run.py after the inputs are on disk, so the memory high-water
mark below is this process's own: importing sqfr, any in-memory input and
the operations. Protocol on stdout: a line ``ready`` once set-up is done
(the process exits there with ``--setup-only``), then one JSON line with
the per-operation timings, output hashes and, when traced, the per-layer
figures. Anything the program prints during an operation is captured and
dropped, so it cannot mix with the protocol.

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Each kind of timed operation runs at least this often, however short the run.
MIN_SAMPLES = 3


def peak_rss_mb() -> float:
    """VmHWM of this process.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` carries over the
    high-water mark of the parent at the time it forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_operation(workload: str, work: Path, sqfr):
    """Set-up for one workload; returns ``(run, finish)``.

    ``run()`` is one timed operation and returns the program's exit code and
    any in-memory output; ``finish(output)``, outside the timing, returns
    the digest of the output (keeping the first copy on disk for the checks).
    """
    if workload == "report-float-observed":
        import numpy as np
        from sqfr.dataset import Dataset, Provenance

        with np.load(work / "scores.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        components = {}
        for key in sorted(arrays):
            cid, label = key.split(".")
            arr = arrays[key]
            arr.flags.writeable = False
            components.setdefault(cid, {})[label] = arr
        dataset = Dataset(
            {cid: sqfr.GroupedScores(cid, groups) for cid, groups in components.items()},
            Provenance("in-memory", sum(a.size for a in arrays.values())),
        )
        out = work / "report.json"

        def run():
            text = sqfr.report.render(
                sqfr.report.build_report(dataset, thresholds_mode="observed"), "json")
            return 0, text

        def finish(text):
            if not out.exists():
                out.write_text(text, encoding="utf-8")
            return hashlib.sha256(text.encode()).hexdigest()

        return run, finish

    argv, out = {
        "eval-csv-int": (["eval", "--input", str(work / "scores.csv")], work / "report.json"),
        "plotdata-json-int": (["plotdata", "--input", str(work / "scores.json")],
                              work / "plot.json"),
        "simulate-csv": (["simulate", "--spec", str(work / "spec.json")], work / "sim.csv"),
    }[workload]
    argv = argv + ["--out", str(out)]
    sink = io.StringIO()

    def run():
        with contextlib.redirect_stdout(sink):
            code = sqfr.cli.main(argv)
        return code, None

    def finish(_):
        sink.seek(0)
        sink.truncate()
        return file_digest(out)

    return run, finish


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not (SRC / "sqfr" / "__init__.py").is_file():
        print(f"worker: no sqfr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sqfr
    import sqfr.cli
    import sqfr.plotdata
    import sqfr.report

    run, finish = make_operation(args.workload, args.work, sqfr)
    proto = sys.stdout
    print("ready", file=proto, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(sqfr)

    walls = {"plain": [], "traced": []}
    cpus = []
    digests = []
    failed = 0
    attempted = 0
    start = time.perf_counter()
    round_no = 0
    while True:
        # The traced run alternates untraced and traced operations, each
        # side going first in every other round.
        kinds = ["plain"] if tracer is None else (
            ["plain", "traced"] if round_no % 2 == 0 else ["traced", "plain"])
        for kind in kinds:
            if kind == "traced":
                tracer.op = attempted
                tracer.install()
            w0 = time.perf_counter()
            c0 = time.process_time()
            try:
                code, result = run()
            except Exception:  # a crash is a failed operation; the loop goes on
                traceback.print_exc()
                code, result = -1, None
            finally:
                c1 = time.process_time()
                w1 = time.perf_counter()
                if kind == "traced":
                    tracer.uninstall()
            attempted += 1
            if code != 0:
                failed += 1
                continue
            walls[kind].append(w1 - w0)
            if kind == "plain":
                cpus.append(c1 - c0)
            digests.append(finish(result))
        round_no += 1
        samples = min(len(walls[kind]) for kind in kinds)
        if time.perf_counter() - start >= args.seconds and (samples >= MIN_SAMPLES or failed):
            break
    rss = peak_rss_mb()

    result = {
        "attempted": attempted,
        "failed": failed,
        "walls": walls["plain"],
        "cpus": cpus,
        "peak_rss_mb": rss,
        "digests": digests,
        "backend": sqfr.kernels.BACKEND,
        "fixtures": [
            {"name": f.name, "group_values": f.group_values, "expected": f.expected,
             "tolerance": f.tolerance}
            for f in sqfr.scenarios.builtin_fixtures()
        ],
    }
    if tracer is not None:
        layers = layer_metrics(tracer.per_op())
        plain = statistics.median(walls["plain"]) if walls["plain"] else 0.0
        traced = statistics.median(walls["traced"]) if walls["traced"] else 0.0
        layers["trace.op_wall_s"] = (traced, "s")
        layers["trace.untraced_op_wall_s"] = (plain, "s")
        layers["trace.overhead_s"] = (traced - plain, "s")
        result["layers"] = layers
        result["traced_walls"] = walls["traced"]
        result["spans"] = tracer.span_dicts()
    json.dump(result, proto)
    proto.write("\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
