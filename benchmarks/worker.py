"""The workload process: set up, warm up, run ops in a closed loop, report.

Started by run.py, which times this process from its spawn to the moment it
is ready for the first timed op (``t_ready``).  Prints one JSON line.

With ``--trace 1`` the loop runs twice for half the time each: untraced, then
with the hooks installed.  The difference of the two op medians is the
tracing overhead, and the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout
import gate
import tracing
from workloads import WORKLOADS, ExitCode, subprocess_env

#: Tail percentiles tried from the highest, in permille.  p99.9 is left out:
#: with a few dozen ops beyond it, it moved by half between runs.
TAIL_LADDER = (990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is
    returned, marked as percentile 50.
    """
    v = sorted(values)
    n = len(v)
    for pm in TAIL_LADDER:
        if n * (1000 - pm) // 1000 >= TAIL_MIN_BEYOND:
            return pm / 10, v[max(-(-n * pm // 1000) - 1, 0)]
    return 50.0, statistics.median(v)


def classify(exc: BaseException) -> str:
    """Outcome of a failed op: wrong output, a typed LvdynError, or a bare error.

    A CLI process is typed when it exits with a documented code (2, 3 or 4).
    In-process, a stage error counts by its cause, so that a raw exception
    wrapped by run_pipeline is still bare.
    """
    if isinstance(exc, gate.Mismatch):
        return "wrong_output"
    if isinstance(exc, ExitCode):
        return "typed_error" if exc.code in (2, 3, 4) else "bare_error"
    from lvdyn.errors import LvdynError, PipelineStageError

    cause = exc.cause if isinstance(exc, PipelineStageError) else exc
    return "typed_error" if isinstance(cause, LvdynError) else "bare_error"


class Runner:
    def __init__(self, wl, tracer: tracing.Tracer | None = None):
        self.wl = wl
        self.tracer = tracer
        self.status: dict[str, int] = {}
        self.errors_seen: list[str] = []

    def execute(self, op, index: int) -> tuple[str, float]:
        tracer = self.tracer
        in_span = tracer is not None and self.wl.in_process
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            try:
                if in_span:
                    with tracer.span(self.wl.root_span):
                        out = op.run()
                else:
                    out = op.run()
            finally:
                wall = time.perf_counter() - t0
            op.check(out)
            status = "ok"
        except Exception as exc:
            status = classify(exc)
            if len(self.errors_seen) < 5:
                self.errors_seen.append(f"{op.kind}: {status}: {exc!r}"[:500])
        finally:
            if op.out_dir is not None:
                shutil.rmtree(op.out_dir, ignore_errors=True)
        if tracer is not None and op.spans_file is not None:
            self._absorb_spans(op.spans_file, index)
        self.status[status] = self.status.get(status, 0) + 1
        return status, wall

    def _absorb_spans(self, path: Path, index: int) -> None:
        try:
            dump = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        base = len(self.tracer.spans)
        for row in dump["spans"]:
            s = tracing.Span.from_list(row)
            s.op = index
            s.parent = None if s.parent is None else s.parent + base
            self.tracer.spans.append(s)
        for name, n in dump["calls"].items():
            self.tracer.calls[name] = self.tracer.calls.get(name, 0) + n
        self.tracer.missing = sorted(set(self.tracer.missing) | set(dump["missing"]))
        path.unlink()

    def loop(self, seconds: float, first_index: int) -> dict:
        """Run whole rounds until ``seconds`` have passed; a round is one timed op.

        A round is ``round_size`` consecutive calls: the five CLI processes of
        cli_fixture_suite, the four phase_export_dense configurations, a
        fit_batch batch of 33 series, one sobol_large_n call.  It fails if any
        call in it failed.
        """
        ops = self.wl.ops(traced=self.tracer is not None)
        size = self.wl.round_size
        walls, kinds, rounds, failed = [], [], [], 0
        t0 = time.perf_counter()
        while True:
            round_wall, round_ok = 0.0, True
            for _ in range(size):
                op = next(ops)
                status, wall = self.execute(op, first_index + len(rounds))
                walls.append(wall)
                kinds.append(op.kind)
                round_wall += wall
                round_ok &= status == "ok"
            rounds.append(round_wall)
            failed += not round_ok
            if time.perf_counter() - t0 >= seconds:
                break
        elapsed = time.perf_counter() - t0
        pct, tail_s = tail(rounds)
        by_kind = {}
        for k in sorted(set(kinds)):
            w = [x for x, kk in zip(walls, kinds) if kk == k]
            by_kind[k] = {"n": len(w), "p50_s": statistics.median(w)}
        return {"n": len(rounds), "failed": failed, "wall_s": elapsed,
                "throughput_ops_s": len(rounds) / elapsed,
                "p50_s": statistics.median(rounds), "tail_pct": pct, "tail_s": tail_s,
                "by_kind": by_kind}


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def cli_probes(root: Path) -> dict:
    """Interpreter start, and the cost of ``import lvdyn`` in a fresh interpreter."""
    env = subprocess_env(root)
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
        starts.append(time.perf_counter() - t0)
    lvdyn_s, stats_s = [], []
    for _ in range(3):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lvdyn"],
                           env=env, cwd=root, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in p.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        lvdyn_s.append(cumulative.get("lvdyn", 0.0))
        stats_s.append(cumulative.get("scipy.stats", 0.0))
    return {"cli.interpreter_s": statistics.median(starts),
            "cli.import_s": statistics.median(lvdyn_s),
            "cli.import_scipy_stats_s": statistics.median(stats_s)}


def per_layer(wl, tracer: tracing.Tracer, traced: dict, untraced: dict, root: Path) -> dict:
    n_ops = traced["n"]
    metrics = tracing.layer_metrics(tracer.spans, n_ops)
    metrics.update(cli_probes(root))
    for kind in ("analyze", "fit", "sobol", "phase"):
        group = untraced["by_kind"].get(kind) if not wl.in_process else None
        metrics[f"cli.{kind}_p50_s"] = group["p50_s"] if group else 0.0
    if not wl.in_process:
        metrics["cli.errors"] = traced["failed"]
    metrics["bench.trace_overhead_s"] = traced["p50_s"] - untraced["p50_s"]
    metrics["bench.trace_overhead_frac"] = metrics["bench.trace_overhead_s"] / untraced["p50_s"]
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = checkout.ROOT
    os.chdir(root)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    checkout.guard(checkout.lvdyn_origin())
    if cls.in_process:
        import lvdyn

        checkout.guard(Path(lvdyn.__file__).resolve())
    wl = cls(root, args.seed, work, gate.load_expected())
    wl.setup()
    runner = Runner(wl)
    warm_status, _ = runner.execute(wl.warmup(), -1)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    runs = []
    if not args.setup_only:
        if args.trace:
            untraced = runner.loop(args.seconds / 2, 0)
            tracer = tracing.Tracer()
            if wl.in_process:
                tracer.install(wl.hooks)
            runner.tracer = tracer
            traced = runner.loop(args.seconds / 2, untraced["n"])
            tracer.uninstall()
            runs = [untraced, traced]
            not_reached = [h for h in wl.hooks if tracer.calls.get(h, 0) == 0]
            for name in not_reached:
                tracing.loud(f"HOOK NOT REACHED: {name} was wrapped but never called "
                             f"({wl.name})")
            result.update(per_layer=per_layer(wl, tracer, traced, untraced, root),
                          untraced=untraced, traced=traced,
                          self_s_per_op=tracing.self_time_by_name(tracer.spans, traced["n"]),
                          hooks_not_reached=not_reached, hooks_missing=tracer.missing)
        else:
            runs = [runner.loop(args.seconds, 0)]
            result["timed"] = runs[0]
        result["peak_rss_mb"] = wl.peak_rss_mb()
    result["attempted"] = 1 + sum(r["n"] for r in runs)
    result["failed"] = (warm_status != "ok") + sum(r["failed"] for r in runs)
    result["status"] = runner.status
    result["errors_seen"] = runner.errors_seen
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
