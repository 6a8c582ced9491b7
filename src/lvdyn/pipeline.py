"""Data ingestion, the analysis pipeline, and report/file generation.

``run_pipeline`` chains loading, fitting (or baseline injection),
interaction classification, equilibrium and stability analysis, phase
geometry, MAPE evaluation and Sobol sensitivity into a single Report.
Report objects keep full precision.  ``Report.to_dict`` and every written
file round floats half-even to nine significant digits, with a fixed field
order and no timestamps, so two runs with identical inputs are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINES, SubsystemBaseline, baseline_for_labels
from .dynamics import (
    BBox,
    EquilibriumSet,
    PhaseGeometry,
    StabilityReport,
    Trajectory,
    equilibrium_set,
    integrate_ode,
    phase_geometry,
    stability_at,
    vector_field,
)
from .errors import (
    RULES,
    InvalidBBox,
    IoError,
    LvdynError,
    NumericalError,
    ParseError,
    PipelineStageError,
    ValidationError,
    check,
)
from .fitting import (
    COND_WARN_THRESHOLD,
    FitDiagnostics,
    FitMode,
    TimeSeries,
    _ill_conditioned,
    fit_details,
    fitted_trajectories,
    free_run,
    mape,
)
from .params import (
    PARAM_NAMES,
    ContinuousParams,
    DiscreteParams,
    InteractionType,
    RegressionCoeffs,
    classify_interaction,
    continuous_to_discrete,
    discrete_to_continuous,
    discrete_to_regression,
    regression_to_discrete,
)
from .sensitivity import OUTPUT_NAMES, SobolResult, analyze_sensitivity

_DATA_DIR = Path(__file__).parent / "data"

#: Report formats ``write_report`` can write, in ``--format``'s order.
REPORT_FORMATS = ("json", "csv")


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture CSV (e.g. ``cn_ai_physical.csv``)."""
    return _DATA_DIR / name


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a pipeline run needs; validated before any work starts."""

    input_path: str | Path
    year_col: str = "year"
    x_col: str = "ai_capital"
    y_col: str = "physical_capital"
    unit: str = "billion yuan"
    classify_tol: float = 0.0
    sobol_n: int = 1024
    fraction: float = 0.1
    seed: int = 1024
    params_from_paper: bool = False
    baseline_key: str | None = None     # explicit published-baseline choice
    out_dir: str | Path | None = None
    formats: tuple[str, ...] = ("json",)
    grid_n: int = 41

    def validate(self) -> None:
        for name in RULES:
            check(name, getattr(self, name))
        for name, types, kind in (
                ("input_path", (str, os.PathLike), "a path"),
                ("out_dir", (str, os.PathLike, type(None)), "a path or None"),
                ("formats", (tuple, list), "a tuple or list"),
                ("params_from_paper", bool, "a bool"),
                *((key, str, "a str") for key in ("year_col", "x_col", "y_col", "unit"))):
            if not isinstance(getattr(self, name), types):
                raise ValidationError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        for fmt in self.formats:
            if fmt not in REPORT_FORMATS:
                raise ValidationError(f"unknown report format {fmt!r}")
        if self.baseline_key not in (None, *BASELINES):
            raise ValidationError(
                f"unknown baseline {self.baseline_key!r}; choose from {sorted(BASELINES)}")


def load_series(path: str | Path, mapping: dict[str, str] | None = None,
                unit: str = AnalysisConfig.unit) -> TimeSeries:
    """Read a headered CSV into a validated TimeSeries.

    ``mapping`` names the year/x/y columns (defaults: AnalysisConfig's), and
    the series labels are those column names.
    Columns are matched by name, so column order in the file is irrelevant.
    Parse failures carry the row and column location.  The file is read
    once; the series carries the SHA-256 of exactly the bytes parsed.
    """
    mapping = mapping or {}
    year_col = mapping.get("year", AnalysisConfig.year_col)
    x_col = mapping.get("x", AnalysisConfig.x_col)
    y_col = mapping.get("y", AnalysisConfig.y_col)

    path = Path(path)
    try:
        data = path.read_bytes() if path.is_file() else None
    except OSError as exc:     # is_file raises too, on a name too long for one
        raise IoError(f"cannot read {path}: {exc}") from exc
    if data is None:
        raise IoError(f"input file not found: {path}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc

    reader = csv.DictReader(text.splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:   # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}: row {reader.reader.line_num}: {exc}") from exc
    header = reader.fieldnames or []
    for col in (year_col, x_col, y_col):
        if col not in header:
            raise ParseError(f"{path}: missing column {col!r} (header: {header})")

    years: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    for rownum, row in enumerate(rows, start=2):
        for col, target, cast in ((year_col, years, int), (x_col, xs, float),
                                  (y_col, ys, float)):
            raw = (row.get(col) or "").strip()
            try:
                target.append(cast(raw))
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"{path}: row {rownum}, column {col!r}: "
                    f"cannot parse {raw!r}") from exc

    return TimeSeries(
        label_x=x_col,
        label_y=y_col,
        unit=unit,
        years=tuple(years),
        xs=tuple(xs),
        ys=tuple(ys),
        source_sha256=hashlib.sha256(data).hexdigest(),
    )


@dataclass
class Report:
    """Assembled pipeline results; ``to_dict`` fixes the JSON layout."""

    config: AnalysisConfig
    series: TimeSeries | None = None
    regression: RegressionCoeffs | None = None
    discrete: DiscreteParams | None = None
    continuous: ContinuousParams | None = None
    fit_diag: FitDiagnostics | None = None
    interaction: InteractionType | None = None
    equilibria: EquilibriumSet | None = None
    stability: StabilityReport | None = None
    mape_one_step: tuple[float, float] | None = None
    mape_free_running: tuple[float, float] | None = None
    phase: PhaseGeometry | None = None
    region_signs: dict[str, dict] | None = None
    ode_trajectory: Trajectory | None = None
    discrete_trajectory: np.ndarray | None = None
    convergence: dict | None = None
    sobol: SobolResult | None = None
    reference: SubsystemBaseline | None = None
    failed_stage: str | None = None
    error: str | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return _rounded(_report_dict(self))


def _round9(v: float) -> float:
    """Round half-even to nine significant digits for byte-stable output."""
    if v == 0 or not math.isfinite(v):
        return v
    return float(f"{v:.9g}")


def _rounded(obj):
    """Copy a report value with every float rounded by ``_round9``.

    Dicts keep their key order, lists and tuples become lists, and ints,
    bools, strings and None pass through unchanged.
    """
    if isinstance(obj, float):
        return _round9(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _report_dict(r: Report) -> dict:
    """The report as plain Python values at full precision, in output order."""
    cfg = r.config
    out: dict = {
        "config": {
            "input": str(cfg.input_path),
            "columns": {"year": cfg.year_col, "x": cfg.x_col, "y": cfg.y_col},
            # The fit has one reported mode; the key stays for the recorded bytes.
            "mode": FitMode.ONE_STEP_AHEAD.value,
            "classify_tol": float(cfg.classify_tol),
            "sobol_n": cfg.sobol_n,
            "fraction": float(cfg.fraction),
            "seed": cfg.seed,
            "params_from_paper": cfg.params_from_paper,
            "formats": cfg.formats,
        },
    }
    if r.series is not None:
        ts = r.series
        out["series"] = {
            "label_x": ts.label_x,
            "label_y": ts.label_y,
            "unit": ts.unit,
            "years": ts.years,
            "x": ts.xs,
            "y": ts.ys,
        }
    if r.continuous is not None:
        rc, d = r.regression, r.fit_diag
        out["parameters"] = {
            "source": "published_baseline" if cfg.params_from_paper else "fitted",
            # Each equation's adjusted R^2 (None without a fit) follows its coefficients.
            "regression": {
                "intercept1": rc.intercept1,
                "self_slope1": rc.self_slope1,
                "cross_slope1": rc.cross_slope1,
                "adj_r2_1": None if d is None else d.eq_x.adj_r2_origin,
                "intercept2": rc.intercept2,
                "self_slope2": rc.self_slope2,
                "cross_slope2": rc.cross_slope2,
                "adj_r2_2": None if d is None else d.eq_y.adj_r2_origin,
            },
            "discrete": asdict(r.discrete),
            "continuous": asdict(r.continuous),
        }
    if r.fit_diag is not None:
        d = r.fit_diag
        out["fit_diagnostics"] = {
            k: [getattr(d.eq_x, k), getattr(d.eq_y, k)]
            for k in ("adj_r2_origin", "adj_r2_full", "mean_residual")}
    if r.interaction is not None:
        ia = r.interaction
        prey_label = None
        if ia.prey is not None and r.series is not None:
            prey_label = r.series.label_x if ia.prey == "x" else r.series.label_y
        out["interaction"] = {"kind": ia.kind.value, "prey": ia.prey,
                              "prey_label": prey_label}
    if r.equilibria is not None:
        out["equilibria"] = asdict(r.equilibria)
    if r.stability is not None:
        st = r.stability
        out["stability"] = {
            "jacobian": st.jacobian.tolist(),
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in st.eigenvalues],
            "classification": st.classification.value,
        }
    if r.mape_one_step is not None or r.mape_free_running is not None:
        out["mape"] = {
            "mode": FitMode.ONE_STEP_AHEAD.value,
            "one_step_ahead": r.mape_one_step,
            "free_running": r.mape_free_running,
        }
    if r.phase is not None:
        pg = r.phase
        out["phase"] = {
            "nullcline_x": pg.nullcline_x,
            "nullcline_y": pg.nullcline_y,
            "bbox": astuple(pg.bbox),
            "grid_n": len(pg.xs),
            "region_signs": r.region_signs,
        }
    if r.convergence is not None:
        out["convergence"] = r.convergence
    if r.sobol is not None:
        sr = r.sobol
        out["sobol"] = {
            "n_base": sr.n_base,
            "seed": sr.seed,
            "fraction": float(r.config.fraction),
            "accepted_count": sr.accepted_count,
            "rejected_count": sr.rejected_count,
            "retained_triples": sr.retained_triples,
            "outputs": {oname: {
                "total_variance": float(sr.total_variance[oi]),
                "first_order": dict(zip(PARAM_NAMES, sr.first_order[oi].tolist())),
                "total_order": dict(zip(PARAM_NAMES, sr.total_order[oi].tolist())),
                "sum_first_order": float(sr.first_order[oi].sum()),
            } for oi, oname in enumerate(OUTPUT_NAMES)},
        }
    if r.reference is not None:
        ref = r.reference
        out["reference"] = {
            "baseline": ref.key,
            "continuous": asdict(ref.params),
            "ci95": ref.ci,
        }
    out["provenance"] = {
        "package": "lvdyn",
        "version": __version__,
        "input_sha256": None if r.series is None else r.series.source_sha256,
        "seed": r.config.seed,
    }
    if r.warnings:
        out["warnings"] = r.warnings
    if r.failed_stage is not None:
        out["incomplete"] = True
        out["failed_stage"] = r.failed_stage
        out["error"] = r.error
    return out


def report_json_text(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"


def _region_signs(cp: ContinuousParams, interior: tuple[float, float]) -> dict | None:
    """Sign pattern of the vector field just off the interior equilibrium.

    The two nullcline gradients are inverted to find displacement directions
    that realize each sign combination of (dx/dt, dy/dt); the four sampled
    points label the quadrants the nullclines cut around the equilibrium.
    Raises NumericalError when a sampled point or its field overflows.
    """
    grad = np.array([[cp.b11, cp.b12], [cp.b21, cp.b22]])
    try:
        inv = np.linalg.inv(grad)
    except np.linalg.LinAlgError:
        return None
    eps = 0.05 * np.array([max(abs(cp.a1), 1e-12), max(abs(cp.a2), 1e-12)])
    regions = {}
    labels = {(-1, 1): "I", (-1, -1): "II", (1, -1): "III", (1, 1): "IV"}
    for sig, label in labels.items():
        with np.errstate(over="ignore", invalid="ignore"):
            d = inv @ (np.array(sig) * eps)
            px, py = interior[0] + d[0], interior[1] + d[1]
            if px <= 0 or py <= 0:
                continue
            f1, f2 = vector_field(cp, px, py)
        if not np.isfinite([px, py, f1, f2]).all():
            raise NumericalError(f"the field off the interior equilibrium overflows "
                                 f"at ({px}, {py})")
        regions[f"region_{label}"] = {
            "point": [px, py],
            "sign_dx": int(np.sign(f1)),
            "sign_dy": int(np.sign(f2)),
        }
    return regions or None


def _default_bbox(interior: tuple[float, float] | None, ts: TimeSeries) -> BBox:
    """The phase box around a positive interior point, else around the data;
    both are finite and positive, so an invalid box under- or overflowed here."""
    try:
        if interior is not None and interior[0] > 0 and interior[1] > 0:
            return BBox(interior[0] / 50.0, 2.2 * interior[0],
                        interior[1] / 50.0, 1.6 * interior[1])
        return BBox(min(ts.xs) * 0.5, max(ts.xs) * 1.5,
                    min(ts.ys) * 0.5, max(ts.ys) * 1.5)
    except InvalidBBox as exc:
        raise NumericalError(f"the default phase box under- or overflows: {exc}") from None


#: Length of the trajectories stage: the ODE runs to t = ODE_T_END in RK4 steps
#: of ODE_DT, and the discrete map runs FREE_RUN_STEPS steps.
ODE_T_END = 10.0
ODE_DT = 0.001
FREE_RUN_STEPS = 20

#: Stage names accepted by run_pipeline's ``stages`` filter, in the order
#: they run; loading and parameter resolution always run first.
PIPELINE_STAGES = ("classify", "equilibrium", "stability", "phase", "mape",
                   "trajectories", "sobol")


def run_pipeline(cfg: AnalysisConfig, stages: set[str] | frozenset[str] | None = None) -> Report:
    """Execute the analysis chain and (optionally) write output files.

    ``stages``, a set of names in PIPELINE_STAGES, restricts which analysis
    stages run (loading and parameter resolution are unconditional); None runs
    everything.  A stage's LvdynError is wrapped in PipelineStageError carrying
    the stage name; with an output directory, the partial report is still
    written, marked ``incomplete``, before the error propagates.  Any other
    exception is a bug, not wrapped.
    """
    cfg.validate()
    if stages is None:
        stages = set(PIPELINE_STAGES)
    elif not (isinstance(stages, (set, frozenset)) and all(isinstance(s, str) for s in stages)):
        raise ValidationError(f"stages must be None or a set of stage names, got {stages!r}")
    else:
        unknown = stages.difference(PIPELINE_STAGES)
        if unknown:
            raise ValidationError(f"unknown pipeline stages: {sorted(unknown)}")
        stages = set(stages)
        # Stability, phase and trajectory analysis all need the equilibria.
        if stages & {"stability", "phase", "trajectories"}:
            stages.add("equilibrium")
    report = Report(config=cfg)

    def run_stage(name: str, fn):
        try:
            return fn()
        except LvdynError as exc:
            report.failed_stage = name
            report.error = f"{type(exc).__name__}: {exc}"
            if cfg.out_dir is not None:
                try:
                    write_report(report, cfg.out_dir)
                except LvdynError:
                    pass
            raise PipelineStageError(name, exc) from exc

    def stage_load():
        report.series = load_series(
            cfg.input_path, {"year": cfg.year_col, "x": cfg.x_col, "y": cfg.y_col}, unit=cfg.unit)

    run_stage("load", stage_load)
    ts = report.series

    def stage_params():
        ref = (BASELINES[cfg.baseline_key] if cfg.baseline_key is not None
               else baseline_for_labels(ts.label_y))
        if cfg.params_from_paper:
            if ref is None:
                raise ValidationError(
                    f"no published baseline matches series label {ts.label_y!r}; "
                    f"pass an explicit baseline key from {sorted(BASELINES)}")
            report.reference = ref
            report.continuous = ref.params
            report.discrete = continuous_to_discrete(report.continuous)
            report.regression = discrete_to_regression(report.discrete)
        else:
            def warned(conds) -> None:    # whatever the caller's warning filters showed
                report.warnings.extend(f"fit: IllConditioned: {_ill_conditioned(cond)}"
                                       for cond in conds if cond > COND_WARN_THRESHOLD)

            try:
                diag = fit_details(ts)
            except LvdynError as exc:       # also what the fit warned before it failed
                warned(exc.conds)
                raise
            warned((diag.eq_x.cond, diag.eq_y.cond))
            report.fit_diag = diag
            report.regression = diag.coeffs
            report.discrete = regression_to_discrete(diag.coeffs)
            report.continuous = discrete_to_continuous(report.discrete)
            report.reference = ref

    run_stage("fit" if not cfg.params_from_paper else "inject-params", stage_params)

    def stage_classify():
        report.interaction = classify_interaction(report.continuous, cfg.classify_tol)

    def stage_equilibria():
        report.equilibria = equilibrium_set(report.continuous)

    def stage_stability():
        interior = report.equilibria.interior
        if interior is not None:
            report.stability = stability_at(report.continuous, interior)

    def stage_phase():
        interior = report.equilibria.interior
        bbox = _default_bbox(interior, ts)
        report.phase = phase_geometry(report.continuous, bbox, cfg.grid_n)
        if interior is not None:
            report.region_signs = _region_signs(report.continuous, interior)

    def stage_mape():
        for mode, attr in ((FitMode.ONE_STEP_AHEAD, "mape_one_step"),
                           (FitMode.FREE_RUNNING, "mape_free_running")):
            fx, fy = fitted_trajectories(report.discrete, ts, mode)
            setattr(report, attr, (
                mape(np.asarray(ts.xs)[1:], fx[1:]),
                mape(np.asarray(ts.ys)[1:], fy[1:]),
            ))

    def stage_trajectories():
        x0 = (ts.xs[0], ts.ys[0])
        report.ode_trajectory = integrate_ode(report.continuous, x0, ODE_T_END, ODE_DT)
        report.discrete_trajectory = free_run(report.discrete, x0, FREE_RUN_STEPS)
        interior = report.equilibria.interior
        if interior is not None:
            star = np.array(interior)
            ode_end = report.ode_trajectory.states[-1]
            disc_end = report.discrete_trajectory[-1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                rel = np.abs(np.array([ode_end, disc_end]) - star) / np.abs(star)
            # None where not finite: a zero component of star, or a ratio that overflows.
            ode_rel, disc_rel = ([v if math.isfinite(v) else None for v in r] for r in rel.tolist())
            report.convergence = {
                "interior": interior,
                "ode_terminal": ode_end.tolist(),
                "discrete_terminal": disc_end.tolist(),
                "ode_rel_error": ode_rel,
                "discrete_rel_error": disc_rel,
            }

    def stage_sobol():
        report.sobol = analyze_sensitivity(
            report.continuous, cfg.fraction, cfg.sobol_n, cfg.seed)

    for name, fn in zip(PIPELINE_STAGES, (
            stage_classify, stage_equilibria, stage_stability, stage_phase,
            stage_mape, stage_trajectories, stage_sobol), strict=True):
        if name in stages:
            run_stage(name, fn)

    if cfg.out_dir is not None:
        run_stage("write", lambda: write_report(report, cfg.out_dir))

    return report


# --------------------------------------------------------------------------
# File outputs
# --------------------------------------------------------------------------

def _ensure_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc
    return path


#: Rows _write_csv formats and writes at a time.
_CSV_CHUNK = 1024


def _write_text(path: Path, parts) -> Path:
    """Write the strings of ``parts`` one after another."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(parts)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def _write_csv(path: Path, header: str, fmt: str, rows) -> Path:
    """Write a header line and one ``fmt % row`` line per row, _CSV_CHUNK rows at a time.

    Float columns are ``%.9g`` (nine significant digits), int columns ``%d``.
    """
    rows, line = iter(rows), fmt + "\n"
    chunks = iter(lambda: "".join([line % row for row in islice(rows, _CSV_CHUNK)]), "")
    return _write_text(path, chain([header + "\n"], chunks))


def write_report(report: Report, out_dir: str | Path) -> list[Path]:
    """Write report.json (and report.csv / sobol.csv / phase files)."""
    out = _ensure_dir(Path(out_dir))
    written: list[Path] = []

    for fmt, text in (("json", report_json_text), ("csv", _report_csv_text)):
        if fmt in report.config.formats:
            written.append(_write_text(out / f"report.{fmt}", [text(report)]))
    if report.sobol is not None:
        sr = report.sobol
        written.append(_write_csv(
            out / "sobol.csv", "parameter,output,S_i,S_Ti", "%s,%s,%.9g,%.9g",
            ((pname, oname, sr.first_order[oi, pi], sr.total_order[oi, pi])
             for oi, oname in enumerate(OUTPUT_NAMES)
             for pi, pname in enumerate(PARAM_NAMES))))
    if report.phase is not None:
        written.extend(export_phase_data(report.phase, report.ode_trajectory,
                                         report.discrete_trajectory, out / "phase"))
    return written


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, ";".join("" if v is None else str(v) for v in obj)))
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _report_csv_text(report: Report) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report.to_dict(), rows)
    lines = ["key,value"]
    for key, value in rows:
        value = value.replace('"', '""')
        lines.append(f'{key},"{value}"')
    return "\n".join(lines) + "\n"


_PHASE_README = """\
Phase-plane data files
======================

nullclines.csv   line coefficients (A + B*x + C*y = 0) and sampled points of
                 the two interior nullclines (kind = x or y).
signgrid.csv     sign of dx/dt and dy/dt on the sampling grid.
vectorfield.csv  raw (dx/dt, dy/dt) values on the sampling grid.
trajectory_*.csv integrated trajectories; `t` is model time for the ODE
                 solution, `step` an iteration count for the discrete map.

All files are plain UTF-8 CSV with a single header row.
"""


def export_phase_data(pg: PhaseGeometry, ode: Trajectory | None, discrete: np.ndarray | None,
                      out_dir: str | Path) -> list[Path]:
    """Write plot-ready CSVs for nullclines, sign grid, field and each trajectory given."""
    out = _ensure_dir(Path(out_dir))

    xs, ys = pg.xs.tolist(), pg.ys.tolist()

    def nullcline_rows():
        for kind, (ca, cb, cc) in (("x", pg.nullcline_x), ("y", pg.nullcline_y)):
            # Library callers may pass int coefficients; those print as str.
            coeffs = ",".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                              for v in (ca, cb, cc))
            if cc != 0:
                for x in xs:
                    y = -(ca + cb * x) / cc
                    if pg.bbox.y_min <= y <= pg.bbox.y_max:
                        yield kind, coeffs, x, y
            if cb != 0:
                for y in ys:
                    x = -(ca + cc * y) / cb
                    if pg.bbox.x_min <= x <= pg.bbox.x_max:
                        yield kind, coeffs, x, y

    def grid_rows(dx_rows, dy_rows):
        # Grid points in [i, j] order, one row of the fields (one x) at a time.
        for x, dx, dy in zip(xs, dx_rows, dy_rows):
            yield from zip(repeat(x), ys, dx.tolist(), dy.tolist())

    written = [
        _write_csv(out / "nullclines.csv", "kind,A,B,C,x,y", "%s,%s,%.9g,%.9g",
                   nullcline_rows()),
        _write_csv(out / "signgrid.csv", "x,y,sign_dx,sign_dy", "%.9g,%.9g,%d,%d",
                   grid_rows(map(np.sign, pg.dx), map(np.sign, pg.dy))),
        _write_csv(out / "vectorfield.csv", "x,y,dxdt,dydt", "%.9g,%.9g,%.9g,%.9g",
                   grid_rows(pg.dx, pg.dy)),
    ]
    if ode is not None:
        written.append(_write_csv(out / "trajectory_ode.csv", "t,x,y", "%.9g,%.9g,%.9g", (
            row for lo in range(0, len(ode.t), _CSV_CHUNK)
            for row in zip(*(c[lo:lo + _CSV_CHUNK].tolist() for c in (ode.t, *ode.states.T))))))

    written.append(_write_text(out / "README.md", [_PHASE_README]))
    if discrete is not None:
        written.append(_write_csv(out / "trajectory_discrete.csv", "step,x,y", "%d,%.9g,%.9g",
                                  ((k, x, y) for k, (x, y) in enumerate(discrete.tolist()))))
    return written
