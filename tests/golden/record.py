"""Record or check the golden output manifest of the lvdyn CLI.

Each run calls ``lvdyn.cli.main`` in-process and records the SHA-256 of
every file it writes, of its stdout and of its stderr, and its exit code.
Before hashing, the bundled data directory becomes ``{data}``, the
temporary directory the runs write to ``{tmp}`` and a run's own directory
in it ``{run}``, so the digests do not depend on where lvdyn is installed or
checked out, and runs that should write the same bytes have equal entries.

    python tests/golden/record.py           # write manifest.json
    python tests/golden/record.py --check   # compare; exit 1 on a difference

Needs only lvdyn and numpy.  Re-record only when an output is meant to
change, and say which entries changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from lvdyn import cli, fixture_path, sensitivity

MANIFEST = Path(__file__).with_name("manifest.json")

HEADER = "year,ai_capital,physical_capital"
PHYSICAL = ["--input", "{data}/cn_ai_physical.csv"]
LABOR = ["--input", "{data}/cn_ai_labor.csv", "--y-col", "labor"]
BOTH_FORMATS = ["--format", "json", "--format", "csv"]
LARGE_N = ["sobol", *PHYSICAL, "--sobol-n", "65536", "--seed", "11", "--fraction"]


def _series(*rows: str) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


#: Series that fail with exit 3 and an incomplete report.json: the three of
#: the CI runtime-only job, then the two whose fitted field overflows the
#: phase grid.
NAN_PATH = _series("2016,1e195,3", "2017,3,3", "2018,3,3", "2019,3,3")
INF_PREDICTION = _series("2016,3,3", "2017,1e308,3", "2018,3,3", "2019,3,3")
OVERFLOWING_FIT = _series("2016,3.14,418", "2017,13.6,1e-5", "2018,1e-160,1e-5",
                          "2019,11.5,828", "2020,12.97,1e308")
PHASE_OVERFLOW = [_series("1990,1.0,1.0", "1991,2.0,2.0", "1992,1.0,1.0", "1993,1.0,2.0",
                          f"1994,20.0,{last_y}")
                  for last_y in ("1.700404767895009e+306", "8.859529221920375e+160")]
SERIES = ["--input", "{run}/input.csv"]


def _rescaled(cx: float, cy: float) -> str:
    """The physical fixture with every x multiplied by cx and every y by cy."""
    rows = fixture_path("cn_ai_physical.csv").read_text(encoding="utf-8").splitlines()[1:]
    return _series(*(f"{year},{float(x) * cx!r},{float(y) * cy!r}"
                     for year, x, y in (row.split(",") for row in rows)))

#: name -> (argv, series written to {run}/input.csv or None, usable CPUs or
#: None).  ``{run}`` is ``{tmp}/<name>``; every run that writes uses
#: ``{run}/out``.  Runs go in this order, so ``report`` reads a report
#: written before it.
RUNS = {
    "analyze-physical": (["analyze", *PHYSICAL, *BOTH_FORMATS], None, None),
    "analyze-labor": (["analyze", *LABOR, *BOTH_FORMATS], None, None),
    "analyze-physical-paper": (["analyze", *PHYSICAL, "--params-from-paper"], None, None),
    "analyze-labor-paper": (["analyze", *LABOR, "--params-from-paper"], None, None),
    "analyze-free-running": (["analyze", *PHYSICAL, "--mode", "free-running"], None, None),
    "fit": (["fit", *PHYSICAL], None, None),
    "phase": (["phase", *LABOR, "--grid-n", "17"], None, None),
    "sobol-65536-0.1": ([*LARGE_N, "0.1"], None, None),
    "sobol-65536-0.5": ([*LARGE_N, "0.5"], None, None),
    "sobol-65536-0.7": ([*LARGE_N, "0.7"], None, None),
    "sobol-4096": (["sobol", *PHYSICAL, "--sobol-n", "4096", "--seed", "7",
                    "--fraction", "0.5"], None, None),
    "report": (["report", "--report", "{tmp}/analyze-physical/out/report.json"], None, None),
    "nan-path": (["phase", "--params-from-paper", *SERIES], NAN_PATH, None),
    "inf-prediction": (["fit", "--params-from-paper", *SERIES], INF_PREDICTION, None),
    "overflowing-fit": (["fit", *SERIES], OVERFLOWING_FIT, None),
    "phase-overflow-306": (["analyze", *SERIES, "--sobol-n", "64", "--grid-n", "2"],
                           PHASE_OVERFLOW[0], None),
    "phase-overflow-160": (["analyze", *SERIES, "--sobol-n", "64", "--grid-n", "2"],
                           PHASE_OVERFLOW[1], None),
    "sobol-65536-0.1-one-cpu": ([*LARGE_N, "0.1"], None, 1),
    "sobol-65536-0.5-one-cpu": ([*LARGE_N, "0.5"], None, 1),
    "sobol-65536-0.7-one-cpu": ([*LARGE_N, "0.7"], None, 1),
    "invalid-sobol-n": (["sobol", *PHYSICAL, "--sobol-n", "100"], None, None),
    "invalid-classify-tol": (["fit", *PHYSICAL, "--classify-tol", "inf"], None, None),
    # Units must not change the fit: tested on the raw design, the first
    # failed as collinear and the other two warned IllConditioned.
    "fit-rescaled-1e-8-1e8": (["fit", *SERIES], _rescaled(1e-8, 1e8), None),
    "fit-rescaled-1e6-1e-3": (["fit", *SERIES], _rescaled(1e6, 1e-3), None),
    "fit-rescaled-2p20-2m20": (["fit", *SERIES], _rescaled(2.0**20, 2.0**-20), None),
    # --baseline names the reference of a fitted run too; it was ignored.
    "fit-baseline-explicit": (["fit", *LABOR, "--baseline", "ai_physical"], None, None),
    # The raw normal equations of this series underflowed, a SingularDesign.
    "fit-scaled-1e-160": (["fit", *SERIES], _rescaled(1e-160, 1e-160), None),
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run(name: str, argv: list[str], series: str | None, cpus: int | None,
         paths: dict[str, str]) -> dict:
    """Run one entry of RUNS and return its tokenised digests.

    ``paths`` maps ``{data}`` and ``{tmp}`` to the paths they stand for.
    """
    run_dir = Path(paths["{tmp}"]) / name
    run_dir.mkdir()
    # Longest path first, so that no path is replaced inside another.
    paths = dict(sorted({**paths, "{run}": str(run_dir)}.items(), key=lambda kv: -len(kv[1])))
    args = list(argv)
    for token, path in paths.items():
        args = [a.replace(token, path) for a in args]
    if args[0] != "report":
        args += ["--out", str(run_dir / "out")]
    if series is not None:
        (run_dir / "input.csv").write_text(series, encoding="utf-8")

    def digest(data: bytes) -> str:
        for token, path in paths.items():
            data = data.replace(path.encode(), token.encode())
        return hashlib.sha256(data).hexdigest()

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("LVDYN_SEED", None)
        if cpus is not None:
            stack.enter_context(mock.patch.object(sensitivity, "_usable_cpus", lambda: cpus))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:          # argparse rejected the command line
            code = exc.code
    out = run_dir / "out"
    entry = {
        "argv": argv,
        "exit": code,
        "stdout": digest(stdout.getvalue().encode()),
        "stderr": digest(stderr.getvalue().encode()),
        "files": {p.relative_to(out).as_posix(): digest(p.read_bytes())
                  for p in sorted(out.rglob("*")) if p.is_file()},
    }
    if caught:
        entry["warnings"] = [digest(f"{w.category.__name__}: {w.message}".encode())
                             for w in caught]
    return entry


def compute() -> dict:
    """Run every entry of RUNS in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{data}": str(fixture_path("")), "{tmp}": str(Path(tmp).resolve())}
        runs = {name: _run(name, argv, series, cpus, paths)
                for name, (argv, series, cpus) in RUNS.items()}
    return {"versions": versions(), "runs": runs}


def _flat(runs: dict) -> dict:
    """{"<run>.<key>": value} of a manifest's runs, one key per written file."""
    flat = {}
    for name, entry in runs.items():
        for key, value in entry.items():
            if key == "files":
                flat.update({f"{name}.files/{path}": d for path, d in value.items()})
            else:
                flat[f"{name}.{key}"] = value
    return flat


def differences(recorded: dict, computed: dict) -> list[str]:
    """Each value of the two manifests that differs, one line each."""
    old, new = _flat(recorded["runs"]), _flat(computed["runs"])
    lines = [f"{key}: recorded {old.get(key)}, got {new.get(key)}"
             for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    if lines and recorded["versions"] != computed["versions"]:
        lines.insert(0, f"versions differ: recorded {recorded['versions']}, "
                        f"running {computed['versions']}")
    return lines


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with manifest.json instead of writing it")
    args = parser.parse_args(argv)
    computed = compute()
    if not args.check:
        MANIFEST.write_text(json.dumps(computed, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"recorded {len(computed['runs'])} runs in {MANIFEST}")
        return 0
    lines = differences(load(), computed)
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(computed['runs'])} runs, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
