"""Spans around lvdyn's public functions, installed from outside the package.

A hook replaces a module attribute such as ``pipeline.integrate_ode`` with a
wrapper that records a span: name, start, end, parent span and op id.  lvdyn's
callers resolve these names through their module globals at call time, so the
real orchestration is measured and the package itself is not edited.  Hooks
are named after the module whose attribute they replace, which is not always
the module that defines the function: ``pipeline.fit_details`` is the fitting
function as ``run_pipeline`` sees it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Hook -> the per-layer time metric its self time adds to.  The layer of a
#: hook (for ``<layer>.errors``) is the prefix of that metric.
HOOK_METRIC = {
    "cli.run_pipeline": "pipeline.orchestrate_s",
    "pipeline.run_pipeline": "pipeline.orchestrate_s",
    "pipeline.load_series": "pipeline.load_s",
    "pipeline.write_report": "pipeline.write_s",
    "pipeline.export_phase_data": "pipeline.write_s",
    "pipeline.fit_details": "fitting.fit_s",
    "pipeline.fitted_trajectories": "fitting.mape_s",
    "pipeline.mape": "fitting.mape_s",
    "fitting.one_step_predictions": "fitting.mape_s",
    "fitting.free_run": "fitting.mape_s",
    "pipeline.free_run": "fitting.free_run_s",
    "pipeline.regression_to_discrete": "params.transform_s",
    "pipeline.discrete_to_continuous": "params.transform_s",
    "pipeline.continuous_to_discrete": "params.transform_s",
    "pipeline.discrete_to_regression": "params.transform_s",
    "pipeline.classify_interaction": "params.classify_s",
    "pipeline.equilibrium_set": "dynamics.equilibrium_s",
    "pipeline.stability_at": "dynamics.stability_s",
    "pipeline.phase_geometry": "dynamics.phase_s",
    "pipeline.integrate_ode": "dynamics.integrate_s",
    # analyze_sensitivity's own work is building the sampling box.
    "pipeline.analyze_sensitivity": "sensitivity.sample_s",
    "sensitivity.analyze_sensitivity": "sensitivity.sample_s",
    "sensitivity.saltelli_sample": "sensitivity.sample_s",
    "sensitivity.evaluate_equilibria": "sensitivity.eval_s",
    "sensitivity.sobol_indices": "sensitivity.indices_s",
}

TIME_METRICS = tuple(dict.fromkeys(HOOK_METRIC.values()))

#: Per-layer count metric -> the probe count it averages per op.
COUNT_METRICS = {
    "pipeline.load_bytes": "load_bytes",
    "pipeline.bytes_written": "bytes_written",
    "pipeline.rows_written": "rows_written",
    "fitting.map_steps": "map_steps",
    "dynamics.grid_points": "grid_points",
    "dynamics.rk4_steps": "rk4_steps",
    "sensitivity.rows_evaluated": "rows_evaluated",
    "sensitivity.accepted_count": "accepted_count",
    "sensitivity.rejected_count": "rejected_count",
}

LAYERS = ("cli", "pipeline", "fitting", "params", "dynamics", "sensitivity")

#: Spans under this name time the benchmark's own probes; no layer owns them.
PROBE_SPAN = "bench.probe"


def _written(paths) -> dict:
    total = rows = 0
    for p in paths:
        data = open(p, "rb").read()
        total += len(data)
        if str(p).endswith(".csv"):
            rows += max(data.count(b"\n") - 1, 0)
    return {"bytes_written": total, "rows_written": rows}


def _design(design) -> dict:
    n, d = design.n_base, design.matrix.shape[1]
    # The estimators read the A, B and D A_B^i rows of each base index.
    return {"design_bytes": design.matrix.nbytes, "rows_read": n * (d + 2)}


def _indices(res) -> dict:
    return {"retained_triples": res.retained_triples, "n_base": res.n_base,
            "accepted_count": res.accepted_count, "rejected_count": res.rejected_count}


def _map_steps(res) -> dict:
    return {"map_steps": len(res) - 1}


#: Hook -> probe(args, kwargs, result) giving the counts done in that call.
PROBES = {
    "pipeline.load_series": lambda a, k, r: {"load_bytes": os.path.getsize(a[0])},
    "pipeline.write_report": lambda a, k, r: _written(r),
    "pipeline.phase_geometry": lambda a, k, r: {"grid_points": len(r.xs) * len(r.ys)},
    "pipeline.integrate_ode": lambda a, k, r: {"rk4_steps": len(r.t) - 1},
    "fitting.one_step_predictions": lambda a, k, r: {"map_steps": len(r[0]) - 1},
    "fitting.free_run": lambda a, k, r: _map_steps(r),
    "pipeline.free_run": lambda a, k, r: _map_steps(r),
    "sensitivity.saltelli_sample": lambda a, k, r: _design(r),
    "sensitivity.evaluate_equilibria": lambda a, k, r: {"rows_evaluated": len(a[0])},
    "sensitivity.sobol_indices": lambda a, k, r: _indices(r),
}


def loud(message: str) -> None:
    print(f"!!!!!!!! {message} !!!!!!!!", file=sys.stderr, flush=True)


def layer_of(name: str) -> str:
    """Layer of a hook, or of an op root span named ``<layer>.op``."""
    metric = HOOK_METRIC.get(name)
    return (metric or name).split(".")[0]


@dataclass(slots=True)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None     # index into the same span list
    op: int = 0
    error: bool = False           # an exception first surfaced in this span
    counts: dict | None = None

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.error,
                self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    part is the sum of the children clipped to the parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            covered[s.parent] += max(0.0, min(s.end, p.end) - max(s.start, p.start))
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class Tracer:
    """Keeps spans in memory; ``install`` wraps hooks, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._raised: list[BaseException] = []
        self._patched: list[tuple[object, str, object]] = []
        self._probe_failed: set[str] = set()

    def install(self, hooks) -> None:
        for name in hooks:
            mod_name, attr = name.split(".")
            module = importlib.import_module(f"lvdyn.{mod_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                loud(f"HOOK MISSING: lvdyn.{name} does not exist; its layer reads 0")
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(name, original))
            self._patched.append((module, attr, original))
            self.calls.setdefault(name, 0)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _enter(self, name: str) -> Span:
        s = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        self.calls[name] = self.calls.get(name, 0) + 1
        s.start = time.perf_counter()
        return s

    def _exit(self, s: Span, exc: BaseException | None = None) -> None:
        s.end = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            s.error = self._first_sighting(exc)

    @contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield s
        except BaseException as exc:
            self._exit(s, exc)
            raise
        self._exit(s)

    def _first_sighting(self, exc: BaseException) -> bool:
        chain, e = [], exc
        while e is not None and len(chain) < 16:
            chain.append(e)
            e = e.__cause__ or e.__context__
        seen = any(c is r for c in chain for r in self._raised)
        self._raised.append(exc)
        return not seen

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(s, exc)
                raise
            exit_(s)
            if probe is not None:
                ps = enter(PROBE_SPAN)
                try:
                    s.counts = probe(args, kwargs, result)
                except Exception as exc:  # a probe must never fail an op
                    if name not in self._probe_failed:
                        self._probe_failed.add(name)
                        loud(f"PROBE FAILED for {name}: {exc!r}; its counts read 0")
                exit_(ps)
            return result

        return wrapper


def self_time_by_name(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Self time per op of every span name, hooks and op roots alike."""
    total: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + t
    return {name: t / max(n_ops, 1) for name, t in sorted(total.items())}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from traced spans: time and counts per op, errors."""
    out: dict[str, float] = {m: 0.0 for m in TIME_METRICS}
    for name, t in self_time_by_name(spans, n_ops).items():
        if name in HOOK_METRIC:
            out[HOOK_METRIC[name]] += t
    counts: dict[str, float] = {}
    errors = {layer: 0 for layer in LAYERS}
    designs = 0
    for s in spans:
        if s.error and layer_of(s.name) in errors:
            errors[layer_of(s.name)] += 1
        designs += s.name == "sensitivity.saltelli_sample"
        for k, v in (s.counts or {}).items():
            counts[k] = counts.get(k, 0) + v
    per_op = max(n_ops, 1)
    for metric, key in COUNT_METRICS.items():
        out[metric] = counts.get(key, 0) / per_op
    evaluated = counts.get("rows_evaluated", 0)
    out["sensitivity.row_use_ratio"] = counts.get("rows_read", 0) / evaluated if evaluated else 0.0
    n_base = counts.get("n_base", 0)
    out["sensitivity.retained_frac"] = counts.get("retained_triples", 0) / n_base if n_base else 0.0
    out["sensitivity.design_mb"] = counts.get("design_bytes", 0) / designs / 1e6 if designs else 0.0
    for layer, n in errors.items():
        out[f"{layer}.errors"] = n
    return out
