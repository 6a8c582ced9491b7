"""The four workloads: inputs made from the benchmark seed, one op, its check.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has finished.  Why each workload exists:

* ``cli_fixture_suite`` -- what a user types: ``analyze`` on both bundled
  fixtures, then ``fit``, ``sobol`` and ``phase``, each a fresh process; the
  five make one op.  Interpreter start, ``import lvdyn`` (mostly
  scipy.stats) and RK4 dominate.
* ``sobol_large_n`` -- ``analyze_sensitivity`` at N = 2^16; the sensitivity
  layer does nearly all the work, with no import, RK4 or write in the loop.
* ``phase_export_dense`` -- ``run_pipeline`` with the phase and trajectory
  stages at grid_n = 201, writing about 3 MB of CSV per call: the write
  path.  The four configurations (either fixture, fitted or published) make
  one op.
* ``fit_batch`` -- ``run_pipeline`` with classify, equilibrium, stability
  and mape stages on seeded synthetic series: loading, fitting, transforms
  and equilibrium/stability, which every other workload hides under 0.1% of
  its time.  A batch of 33 series, one of each length from 8 to 40 years,
  makes one op.

BENCHMARK.json lists the first two.  The pure-Python work of the other two
follows the host's speed too closely for the bound, so they are run by hand
(see README.md).

An op made of several calls holds a fixed mix of them, so its time does not
depend on which calls the seed happens to draw.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import gate
import synth

PHYS = "src/lvdyn/data/cn_ai_physical.csv"
LABOR = "src/lvdyn/data/cn_ai_labor.csv"

#: Fixture key -> (path relative to the checkout, y column).
FIXTURES = {"ai_physical": (PHYS, "physical_capital"), "ai_labor": (LABOR, "labor")}

#: CLI op kind -> arguments after ``lvdyn`` (``--out`` is added per op).
CLI_COMMANDS = {
    "analyze_physical": ["analyze", "--input", PHYS],
    "analyze_labor": ["analyze", "--input", LABOR, "--y-col", "labor"],
    "fit": ["fit", "--input", PHYS],
    "sobol": ["sobol", "--input", PHYS],
    "phase": ["phase", "--input", PHYS],
}

SOBOL_N = 2 ** 16
SOBOL_FRACTION = 0.1
#: Sampling seeds whose results are recorded in expected.json.
SOBOL_SEEDS = (1024, 7, 42, 271, 1729, 9001, 31337, 65521)

PHASE_GRID_N = 201
PHASE_STAGES = {"phase", "trajectories"}
#: fit_batch inputs: batches of one series of each length, 8 to 40 years.
FIT_BATCHES = 8
FIT_STAGES = {"classify", "equilibrium", "stability", "mape"}

CLI_OP_TIMEOUT_S = 60

_PIPELINE_HOOKS = ("load_series", "fit_details", "regression_to_discrete",
                   "discrete_to_continuous")
_SENSITIVITY_HOOKS = ("sensitivity.saltelli_sample", "sensitivity.evaluate_equilibria",
                      "sensitivity.sobol_indices")


class ExitCode(Exception):
    """A CLI process exited with a non-zero code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit code {code}: {stderr.strip()[-300:]}")
        self.code = code


@dataclass
class Op:
    kind: str                                 # the group its timings are reported under
    run: Callable[[], object]                 # the timed call
    check: Callable[[object], None]           # raises gate.Mismatch
    out_dir: Path | None = None               # removed after the op
    spans_file: Path | None = None            # spans a traced CLI process wrote


def subprocess_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("LVDYN_SEED", None)
    return env


class Workload:
    name = ""
    in_process = True
    round_size = 1            # consecutive calls of ops() timed together as one op
    hooks: tuple[str, ...] = ()
    root_span = "pipeline.op"

    def __init__(self, root: Path, seed: int, work: Path, expected: dict):
        self.root, self.seed, self.work, self.expected = root, seed, work, expected
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Make the inputs; runs before the warm-up op."""

    def ops(self, traced: bool) -> Iterator[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        return next(self.ops(False))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliFixtureSuite(Workload):
    name = "cli_fixture_suite"
    in_process = False
    round_size = len(CLI_COMMANDS)
    hooks = ("cli.run_pipeline",
             *(f"pipeline.{h}" for h in _PIPELINE_HOOKS + (
                 "classify_interaction", "equilibrium_set", "stability_at",
                 "phase_geometry", "fitted_trajectories", "mape", "integrate_ode",
                 "free_run", "analyze_sensitivity", "write_report", "export_phase_data")),
             "fitting.one_step_predictions", "fitting.free_run", *_SENSITIVITY_HOOKS)

    def _op(self, kind: str, traced: bool) -> Op:
        out = self.work / "out"
        spans = self.work / "spans.json" if traced else None
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans)]
        else:
            argv = [sys.executable, "-m", "lvdyn.cli"]
        argv += CLI_COMMANDS[kind] + ["--out", str(out)]
        env = subprocess_env(self.root)

        def run():
            p = subprocess.run(argv, cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, timeout=CLI_OP_TIMEOUT_S)
            if p.returncode != 0:
                raise ExitCode(p.returncode, p.stderr)
            return out

        def check(out_dir):
            gate.check_digests(gate.output_digests(out_dir), self.expected["cli"][kind])

        return Op(CLI_COMMANDS[kind][0], run, check, out_dir=out, spans_file=spans)

    def ops(self, traced):
        kinds = list(CLI_COMMANDS)
        while True:
            self.rng.shuffle(kinds)
            for kind in kinds:
                yield self._op(kind, traced)

    def warmup(self):
        return self._op("analyze_physical", False)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def fitted_params(path: str, y_col: str):
    from lvdyn import fitting, params, pipeline

    ts = pipeline.load_series(path, {"y": y_col})
    disc = params.regression_to_discrete(fitting.fit_details(ts).coeffs)
    return params.discrete_to_continuous(disc)


def sobol_param_sets() -> dict:
    """Published and fitted continuous parameters of both subsystems."""
    from lvdyn.baselines import BASELINES

    sets = {}
    for key, (path, y_col) in FIXTURES.items():
        sets[f"{key}/published"] = BASELINES[key].params
        sets[f"{key}/fitted"] = fitted_params(path, y_col)
    return sets


class SobolLargeN(Workload):
    name = "sobol_large_n"
    hooks = ("sensitivity.analyze_sensitivity", *_SENSITIVITY_HOOKS)
    root_span = "sensitivity.op"

    def setup(self):
        self.param_sets = sobol_param_sets()

    def _op(self, key: str, sampling_seed: int) -> Op:
        from lvdyn import sensitivity

        cp = self.param_sets[key]
        expected = self.expected["sobol"][f"{key}/{sampling_seed}"]
        return Op(key, lambda: sensitivity.analyze_sensitivity(
            cp, SOBOL_FRACTION, SOBOL_N, sampling_seed),
            lambda res: gate.check_sobol(res, expected))

    def ops(self, traced):
        keys = sorted(self.param_sets)
        while True:
            self.rng.shuffle(keys)
            for key in keys:
                yield self._op(key, self.rng.choice(SOBOL_SEEDS))


def phase_config(key: str, out_dir: Path):
    from lvdyn.pipeline import AnalysisConfig

    fixture, source = key.split("/")
    path, y_col = FIXTURES[fixture]
    return AnalysisConfig(input_path=path, y_col=y_col, grid_n=PHASE_GRID_N,
                          out_dir=out_dir, params_from_paper=source == "published")


PHASE_KEYS = tuple(f"{f}/{s}" for f in FIXTURES for s in ("fitted", "published"))


class PhaseExportDense(Workload):
    name = "phase_export_dense"
    round_size = len(PHASE_KEYS)
    hooks = tuple(f"pipeline.{h}" for h in _PIPELINE_HOOKS + (
        "run_pipeline", "continuous_to_discrete", "discrete_to_regression",
        "equilibrium_set", "phase_geometry", "integrate_ode", "free_run",
        "write_report", "export_phase_data"))

    def _op(self, key: str) -> Op:
        from lvdyn import pipeline

        out = self.work / "out"
        cfg = phase_config(key, out)

        def check(_report):
            gate.check_digests(gate.output_digests(out), self.expected["phase"][key])

        return Op(key, lambda: pipeline.run_pipeline(cfg, stages=PHASE_STAGES),
                  check, out_dir=out)

    def ops(self, traced):
        keys = list(PHASE_KEYS)
        while True:
            self.rng.shuffle(keys)
            for key in keys:
                yield self._op(key)


class FitBatch(Workload):
    name = "fit_batch"
    round_size = len(synth.LENGTHS)
    hooks = (*(f"pipeline.{h}" for h in _PIPELINE_HOOKS + (
        "run_pipeline", "classify_interaction", "equilibrium_set", "stability_at",
        "fitted_trajectories", "mape")),
        "fitting.one_step_predictions", "fitting.free_run")

    def setup(self):
        series_dir = self.work / "series"
        series_dir.mkdir(parents=True, exist_ok=True)
        self.batches = []
        for b, batch in enumerate(synth.make_batches(self.seed, FIT_BATCHES)):
            inputs = []
            for i, text in enumerate(batch):
                path = series_dir / f"series_{b}_{i:02d}.csv"
                path.write_text(text, encoding="utf-8")
                inputs.append((path, synth.reference(text)))
            self.batches.append(inputs)

    def ops(self, traced):
        from lvdyn import pipeline

        order = list(range(len(self.batches)))
        while True:
            self.rng.shuffle(order)
            for b in order:
                inputs = list(self.batches[b])
                self.rng.shuffle(inputs)
                for path, ref in inputs:
                    cfg = pipeline.AnalysisConfig(input_path=path)
                    yield Op("fit", lambda cfg=cfg: pipeline.run_pipeline(cfg, stages=FIT_STAGES),
                             lambda report, ref=ref: gate.check_fit(report.to_dict(), ref))


WORKLOADS = {w.name: w for w in (CliFixtureSuite, SobolLargeN, PhaseExportDense, FitBatch)}
