"""Command-line surface: ``lvdyn fit|analyze|phase|sobol|report``.

Exit codes: 0 success, else the error family's ``exit_code``: 2 validation
error, 3 numerical failure, 4 I/O failure.  Any other exception is a bug in
lvdyn (a traceback, exit 1).  --seed falls back to $LVDYN_SEED.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .baselines import BASELINES
from .errors import IoError, LvdynError, ParseError, ValidationError
from .pipeline import REPORT_FORMATS, AnalysisConfig, run_pipeline

#: Analysis stages each subcommand runs (None = everything).
_COMMAND_STAGES = {
    "analyze": None,
    "fit": {"classify", "mape"},
    "phase": {"classify", "stability", "phase", "trajectories"},
    "sobol": {"classify", "equilibrium", "sobol"},
}


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags of the pipeline subcommands.

    Each dest is an AnalysisConfig field.  The subparsers default to
    argparse.SUPPRESS, so a flag not given sets nothing and the config's own
    default applies.
    """
    p.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                   help="headered CSV input file")
    p.add_argument("--year-col")
    p.add_argument("--x-col")
    p.add_argument("--y-col")
    p.add_argument("--unit")
    p.add_argument("--classify-tol", type=float,
                   help="treat cross-coefficients within this of zero as zero (finite, >= 0)")
    p.add_argument("--sobol-n", type=int,
                   help="base sample size (power of two from 64 to 2**30)")
    p.add_argument("--fraction", type=float,
                   help="relative half-width of the sensitivity box")
    p.add_argument("--seed", type=int,
                   help=f"sampling seed (default: $LVDYN_SEED or {AnalysisConfig.seed})")
    p.add_argument("--params-from-paper", action="store_true",
                   help="skip fitting and inject the published baseline estimates")
    p.add_argument("--baseline", dest="baseline_key", choices=list(BASELINES),
                   help="which published baseline to inject (default: by y label)")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.add_argument("--format", choices=REPORT_FORMATS, action="append", dest="formats",
                   help="report format; repeat for both (default: json)")
    p.add_argument("--grid-n", type=int, help="phase-plane grid points per axis (2 to 1024)")


def _config(args: argparse.Namespace) -> AnalysisConfig:
    """AnalysisConfig from the flags given; a seed not given comes from
    $LVDYN_SEED if it is set."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    if "formats" in given:
        given["formats"] = tuple(given["formats"])
    env = os.environ.get("LVDYN_SEED")
    if "seed" not in given and env is not None:
        try:
            given["seed"] = int(env)
        except ValueError:
            raise ValidationError(f"LVDYN_SEED must be an integer, got {env!r}") from None
    return AnalysisConfig(**given)


def _print_params(d: dict) -> None:
    params = d.get("parameters")
    if not params:
        return
    print(f"parameters ({params['source']}):")
    reg, dis = params["regression"], params["discrete"]
    for i in (1, 2):
        print(f"  regression eq{i}: intercept={reg[f'intercept{i}']:.6g} "
              f"self={reg[f'self_slope{i}']:.6g} cross={reg[f'cross_slope{i}']:.6g} "
              f"adjR2={reg[f'adj_r2_{i}']}")
    for i in (1, 2):
        print(f"  discrete  eq{i}: alpha={dis[f'alpha{i}']:.6g} self={dis[f'self{i}']:.6g} "
              f"cross={dis[f'cross{i}']:.6g}")
    cont = params["continuous"]
    print("  continuous:  " + "  ".join(f"{k}={v:.6g}" for k, v in cont.items()))


def _print_summary(d: dict) -> None:
    _print_params(d)
    if "interaction" in d:
        ia = d["interaction"]
        prey = f" (prey: {ia['prey_label']})" if ia.get("prey") else ""
        print(f"interaction: {ia['kind']}{prey}")
    if "equilibria" in d and d["equilibria"].get("interior"):
        x, y = d["equilibria"]["interior"]
        print(f"interior equilibrium: ({x:.2f}, {y:.2f})")
    if "stability" in d:
        st = d["stability"]
        eig = ", ".join(f"{z['re']:.4g}{z['im']:+.4g}j" if z["im"] else f"{z['re']:.4g}"
                        for z in st["eigenvalues"])
        print(f"stability: {st['classification']} (eigenvalues: {eig})")
    if "mape" in d:
        m = d["mape"]
        print(f"mape [{m['mode']}]: one-step={m['one_step_ahead']}, "
              f"free-running={m['free_running']}")
    if "sobol" in d:
        for oname, block in d["sobol"]["outputs"].items():
            st_sorted = sorted(block["total_order"].items(), key=lambda kv: -kv[1])
            top = ", ".join(f"{k}={v:.3f}" for k, v in st_sorted[:3])
            print(f"sobol {oname}: sum(S_i)={block['sum_first_order']:.3f}; "
                  f"top S_Ti: {top}")
    if d.get("incomplete"):
        print(f"NOTE: report incomplete, failed at stage {d.get('failed_stage')!r}: "
              f"{d.get('error')}")


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = run_pipeline(cfg, stages=_COMMAND_STAGES[args.command])
    _print_summary(report.to_dict())
    if cfg.out_dir:
        print(f"outputs written to {cfg.out_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report)
    try:
        found = path.is_file()     # raises too, on a name too long for one
        d = json.loads(path.read_text(encoding="utf-8")) if found else None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, or nested too deep
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if not found:
        raise IoError(f"report file not found: {path}")
    if not (isinstance(d, dict) and isinstance(d.get("provenance"), dict)
            and d["provenance"].get("package") == "lvdyn"):
        raise ParseError(f"{path} is not an lvdyn report")
    try:
        _print_summary(d)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed lvdyn report: {exc!r}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvdyn",
        description="Fit, classify and analyze two-species interaction dynamics "
                    "from paired annual series.")
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {
        "fit": "estimate coefficients and fit quality",
        "analyze": "run the full pipeline and write a report",
        "phase": "export phase-plane geometry and trajectories",
        "sobol": "equilibrium sensitivity indices only",
    }
    for name in ("fit", "analyze", "phase", "sobol"):
        p = sub.add_parser(name, help=helps[name], argument_default=argparse.SUPPRESS)
        _add_common(p)
        p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("report", help="pretty-print an existing report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LvdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
