"""lvdyn benchmark: one command prints every metric by name and unit, outputs checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads and metrics are listed in
BENCHMARK.json and explained in benchmarks/README.md.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.

Each workload runs in a fresh worker process (worker.py).  With ``--trace 0``
two more workers only set up and warm up, so that ``setup_s`` is the median
of three set-ups.  The last stdout line is the result; the line before it
records the code, library versions and machine that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
import gate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_fixture_suite", "sobol_large_n", "phase_export_dense", "fit_batch")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker to completion; its set-up time is measured from the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    finally:
        # The worker waits for its own children; this only reaps strays.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def end_to_end(main: dict, setups: list[float], attempted: int, failed: int) -> dict:
    timed = main["timed"]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": timed["throughput_ops_s"],
        "op_p50_s": timed["p50_s"],
        "op_tail_s": timed["tail_s"],
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit so that spawn() still kills the worker's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    checkout.guard(checkout.lvdyn_origin())
    recorded = gate.load_expected()["recorded_with"]
    moved = {k: (recorded[k], v) for k, v in checkout.versions().items() if recorded[k] != v}
    if moved:
        print(f"warning: the expected outputs were recorded with other versions "
              f"(recorded, now): {moved}; byte checks may fail for that reason",
              file=sys.stderr)
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = checkout.ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    try:
        workers = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                workers.append(spawn(args, work / f"setup{i}", deadline, setup_only=True))
        main_run = spawn(args, work / "main", deadline, setup_only=False)
        workers.append(main_run)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        values = main_run["per_layer"]
        wanted = bench["per_layer"]
        timing = {k: main_run[k] for k in ("untraced", "traced", "self_s_per_op",
                                           "hooks_not_reached", "hooks_missing")}
    else:
        values = end_to_end(main_run, [w["setup_s"] for w in workers], attempted, failed)
        wanted = bench["end_to_end"]
        timing = {"timed": main_run["timed"], "setup_samples_s": [w["setup_s"] for w in workers]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    status: dict[str, int] = {}
    for w in workers:
        for k, n in w["status"].items():
            status[k] = status.get(k, 0) + n
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "provenance": checkout.provenance(), "op_status": status,
               "errors_seen": [e for w in workers for e in w["errors_seen"]], **timing}
    for name, m in metrics.items():
        print(f"{args.workload:>20} {name:<32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
