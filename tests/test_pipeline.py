"""Ingestion, pipeline orchestration, report files and the CLI."""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lvdyn
from lvdyn import (
    AnalysisConfig,
    BBox,
    ContinuousParams,
    IoError,
    LvdynError,
    NumericalError,
    PipelineStageError,
    Report,
    TimeSeries,
    ValidationError,
    classify_interaction,
    continuous_to_discrete,
    fixture_path,
    load_series,
    phase_geometry,
    run_pipeline,
    write_report,
)
from lvdyn import errors, pipeline
from lvdyn.baselines import BASELINES
from lvdyn.cli import main
from lvdyn.errors import (RULES, IllConditioned, InvalidN, NonPositiveValue, ParseError,
                          SingularDesign, check)
from lvdyn.params import PARAM_NAMES
from lvdyn.pipeline import export_phase_data, report_json_text
from lvdyn.sensitivity import (OUTPUT_NAMES, _SOBOL_BITS, ParamBounds, bounds_from_baseline,
                               saltelli_sample)

from conftest import config_for


PHYS_FIXTURE = fixture_path("cn_ai_physical.csv")


def write_csv(tmp_path: Path, rows: list[str], name="data.csv") -> Path:
    p = tmp_path / name
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# load_series
# ---------------------------------------------------------------------------

def test_load_fixture_reproduces_source_table():
    ts = load_series(PHYS_FIXTURE)
    assert ts.n == 8
    assert ts.years == tuple(range(2016, 2024))
    assert ts.xs[0] == 15.40 and ts.xs[-1] == 213.70
    assert ts.ys[0] == 37202.10 and ts.ys[-1] == 50970.80
    assert ts.label_y == "physical_capital"


def test_load_labor_fixture_with_mapping():
    ts = load_series(fixture_path("cn_ai_labor.csv"), {"y": "labor"})
    assert ts.ys == (22770.0, 25500.0, 28210.0, 31820.0,
                     34880.0, 39700.0, 42390.0, 44650.0)


def test_load_survives_column_reordering(tmp_path):
    p = write_csv(tmp_path, ["physical_capital,year,ai_capital",
                             "10,2000,1", "11,2001,2", "12,2002,3", "13,2003,4"])
    ts = load_series(p)
    assert ts.xs == (1.0, 2.0, 3.0, 4.0)
    assert ts.ys == (10.0, 11.0, 12.0, 13.0)


def test_load_rejects_year_gap(tmp_path):
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital",
                             "2000,1,10", "2001,2,11", "2003,3,12", "2004,4,13"])
    with pytest.raises(ValidationError):
        load_series(p)


def test_load_rejects_zero_observation(tmp_path):
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital",
                             "2000,1,10", "2001,0,11", "2002,3,12", "2003,4,13"])
    with pytest.raises(NonPositiveValue):
        load_series(p)


def test_load_missing_column(tmp_path):
    p = write_csv(tmp_path, ["year,ai_capital", "2000,1", "2001,2"])
    with pytest.raises(ParseError, match="physical_capital"):
        load_series(p)


def test_load_reports_cell_location(tmp_path):
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital",
                             "2000,1,10", "2001,oops,11", "2002,3,12", "2003,4,13"])
    with pytest.raises(ParseError, match=r"row 3.*ai_capital"):
        load_series(p)


def test_load_rejects_non_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"year,ai_capital,physical_capital\n2016,1,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_series(p)
    assert main(["fit", "--input", str(p)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_load_hashes_the_parsed_bytes(tmp_path):
    # CRLF line ends: the digest is of the raw bytes, not the decoded text.
    p = tmp_path / "crlf.csv"
    p.write_bytes(PHYS_FIXTURE.read_bytes().replace(b"\n", b"\r\n"))
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    assert load_series(p).source_sha256 == digest
    report = run_pipeline(AnalysisConfig(input_path=p), stages={"classify"})
    assert report.series.source_sha256 == digest
    assert report.series == load_series(PHYS_FIXTURE)


def test_load_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_series(tmp_path / "nope.csv")


def test_load_rejects_oversized_field(tmp_path, capsys):
    # A field over the csv module's 131072-character limit raised csv.Error,
    # which the CLI reported through its untyped fallback with exit code 3.
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital", "2000,1,10",
                             "2001," + "1" * 131073 + ",11", "2002,3,12", "2003,4,13"])
    with pytest.raises(ParseError, match=r"data\.csv: row 3: field larger than field limit"):
        load_series(p)
    assert main(["fit", "--input", str(p)]) == 2
    assert "row 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_config_validated_before_any_work(tmp_path):
    cfg = config_for("ai_physical", sobol_n=100,
                     input_path=tmp_path / "does_not_exist.csv")
    with pytest.raises(ValidationError, match="power of two"):
        run_pipeline(cfg)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        config_for("ai_physical", seed=seed).validate()


WRONG_TYPES = [
    ("sobol_n", 1024.0), ("sobol_n", "1024"), ("sobol_n", True),
    ("grid_n", 41.5), ("grid_n", "41"), ("seed", True),
    ("fraction", "0.1"), ("fraction", None), ("classify_tol", "0"),
]
OUT_OF_RANGE = [
    ("sobol_n", 100), ("sobol_n", 32), ("sobol_n", 2**31), ("sobol_n", 2**62),
    ("fraction", 0.0), ("fraction", 1.0),
    ("fraction", float("nan")), ("classify_tol", -1e-9), ("classify_tol", float("nan")),
    ("classify_tol", float("inf")),
    # 10**400 has no float: it passed the rule, then run_pipeline raised a
    # bare OverflowError.
    pytest.param("classify_tol", 10**400, id="classify_tol-10**400"),
    ("grid_n", 1), ("grid_n", 1025), ("seed", -1),
]


@pytest.mark.parametrize("name,value", WRONG_TYPES)
def test_config_rejects_values_of_the_wrong_type(name, value):
    # A typed error before any work: no bare TypeError from a comparison,
    # and no grid_n=41.5 failing later at stage 'phase'.
    with pytest.raises(ValidationError, match=name) as err:
        config_for("ai_physical", **{name: value}).validate()
    assert err.value.exit_code == 2


def test_config_rejects_nan_classify_tol():
    with pytest.raises(ValidationError, match="classify_tol"):
        config_for("ai_physical", classify_tol=float("nan")).validate()
    assert main(["fit", "--input", str(PHYS_FIXTURE), "--classify-tol", "nan"]) == 2


def call_owning_kernel(name: str, value) -> None:
    """Pass ``value`` to the library function that applies setting ``name``'s rule."""
    cp = ContinuousParams(a1=1.0, b11=-1.0, b12=-0.5, a2=1.0, b21=0.5, b22=-1.0)
    unit = ParamBounds(lower=np.zeros(6), upper=np.ones(6))
    {
        "sobol_n": lambda: saltelli_sample(unit, value, 1),
        "seed": lambda: saltelli_sample(unit, 64, value),
        "fraction": lambda: bounds_from_baseline(cp, value),
        "classify_tol": lambda: classify_interaction(cp, value),
        "grid_n": lambda: phase_geometry(cp, BBox(1.0, 2.0, 1.0, 2.0), value),
    }[name]()


@pytest.mark.parametrize("name,value", WRONG_TYPES + OUT_OF_RANGE)
def test_owning_kernel_raises_what_validate_raises(name, value):
    # Each rule has one owner: a direct library call fails with the same
    # typed error as the config, not a bare TypeError or a message of its own.
    with pytest.raises(ValidationError) as by_config:
        config_for("ai_physical", **{name: value}).validate()
    with pytest.raises(ValidationError) as by_kernel:
        call_owning_kernel(name, value)
    assert type(by_kernel.value) is type(by_config.value)
    assert str(by_kernel.value) == str(by_config.value)
    assert isinstance(by_config.value, InvalidN) == (name == "sobol_n")


HUGE = [("sobol_n", 10 ** 5000), ("fraction", 10 ** 5000), ("classify_tol", -10 ** 5000),
        ("grid_n", -10 ** 5000), ("seed", -10 ** 5000)]


@pytest.mark.parametrize("name,value", HUGE, ids=[name for name, _ in HUGE])
def test_int_too_long_for_str_fails_typed_with_a_bounded_message(name, value):
    # str() of an int over sys.get_int_max_str_digits() digits raises a bare
    # ValueError, which formatting the rejected value used to let out.
    with pytest.raises(ValidationError) as by_check:
        check(name, value)
    with pytest.raises(ValidationError) as by_config:
        config_for("ai_physical", **{name: value}).validate()
    with pytest.raises(ValidationError) as by_kernel:
        call_owning_kernel(name, value)
    assert type(by_check.value) is type(by_config.value) is type(by_kernel.value)
    assert type(by_check.value) is RULES[name][3]
    assert str(by_check.value) == str(by_config.value) == str(by_kernel.value)
    assert str(by_check.value).startswith(f"{name} must be ")
    assert str(by_check.value).endswith(" integer of 16610 bits")
    assert len(str(by_check.value)) < 100


def test_validate_and_check_agree_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    values = st.one_of(
        st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=5),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
        st.floats().map(np.float64), st.floats(width=32).map(np.float32))

    def outcome(fn):
        try:
            fn()
        except Exception as exc:
            assert isinstance(exc, LvdynError), repr(exc)
            return type(exc), str(exc)
        return None

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(name=st.sampled_from(list(RULES)), value=values)
    def agree(name, value):
        by_config = outcome(lambda: config_for("ai_physical", **{name: value}).validate())
        assert by_config == outcome(lambda: check(name, value))

    agree()


@pytest.mark.parametrize("flags,env_seed,message", [
    (["--sobol-n", "100"], None, "sobol_n must be a power of two from 64 to 2**30, got 100"),
    (["--sobol-n", "2147483648"], None,
     "sobol_n must be a power of two from 64 to 2**30, got 2147483648"),
    (["--sobol-n", str(2**62)], None,
     f"sobol_n must be a power of two from 64 to 2**30, got {2**62}"),
    (["--fraction", "2"], None, "fraction must be in (0, 1), got 2.0"),
    (["--fraction", "nan"], None, "fraction must be in (0, 1), got nan"),
    (["--grid-n", "1"], None, "grid_n must be from 2 to 1024, got 1"),
    (["--grid-n", "1025"], None, "grid_n must be from 2 to 1024, got 1025"),
    (["--classify-tol", "-1"], None, "classify_tol must be finite and >= 0, got -1.0"),
    (["--classify-tol", "nan"], None, "classify_tol must be finite and >= 0, got nan"),
    (["--classify-tol", "inf"], None, "classify_tol must be finite and >= 0, got inf"),
    (["--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
    ([], "-3", "seed must be a non-negative integer, got -3"),
    (["--sobol-n", "100", "--fraction", "3", "--grid-n", "0"], None,
     "sobol_n must be a power of two from 64 to 2**30, got 100"),
], ids=["sobol-n", "sobol-n-2^31", "sobol-n-2^62", "fraction", "fraction-nan", "grid-n",
        "grid-n-1025", "classify-tol", "classify-tol-nan", "classify-tol-inf", "seed",
        "seed-env", "first-of-three"])
def test_cli_invalid_setting_error_bytes(monkeypatch, capsys, flags, env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("LVDYN_SEED", raising=False)
    else:
        monkeypatch.setenv("LVDYN_SEED", env_seed)
    assert main(["fit", "--input", str(PHYS_FIXTURE), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_injected_run_reproduces_published_state(injected_reports):
    d = injected_reports["ai_physical"].to_dict()
    x, y = d["equilibria"]["interior"]
    assert x == pytest.approx(198.18, abs=0.5)
    assert y == pytest.approx(51506.42, abs=0.5)
    assert d["stability"]["classification"] == "stable_node"
    assert d["parameters"]["source"] == "published_baseline"
    assert d["interaction"]["kind"] == "predator_prey"
    assert d["interaction"]["prey_label"] == "ai_capital"
    assert d["reference"]["baseline"] == "ai_physical"
    assert d["reference"]["ci95"]["a1"] == [3.35, 4.35]


def test_injected_labor_run(injected_reports):
    d = injected_reports["ai_labor"].to_dict()
    x, y = d["equilibria"]["interior"]
    assert x == pytest.approx(186.78, abs=0.5)
    assert y == pytest.approx(44021.09, abs=0.5)
    assert d["stability"]["classification"] == "stable_node"


def test_injected_layers_are_transform_consistent(injected_reports):
    # Derived layers must satisfy the exact transforms, not the printed table.
    from lvdyn.params import discrete_to_continuous

    rep = injected_reports["ai_physical"]
    back = discrete_to_continuous(rep.discrete)
    for name in ("a1", "b11", "b12", "a2", "b21", "b22"):
        assert getattr(back, name) == pytest.approx(
            getattr(rep.continuous, name), rel=1e-9)


def test_fitted_run_has_diagnostics(fitted_reports):
    d = fitted_reports["ai_physical"].to_dict()
    assert d["parameters"]["source"] == "fitted"
    assert d["parameters"]["regression"]["adj_r2_1"] is not None
    assert "fit_diagnostics" in d
    assert d["mape"]["one_step_ahead"][0] < 10.0


def test_records_that_hold_arrays_compare_by_identity(fitted_reports):
    # A field-by-field == would ask numpy for the truth value of an array
    # and raise; two runs' records are distinct objects, so they differ.
    first, again = fitted_reports["ai_physical"], run_pipeline(config_for("ai_physical"))
    for name in ("stability", "phase", "ode_trajectory", "sobol", "fit_diag"):
        record, other = getattr(first, name), getattr(again, name)
        assert record == record and record != other
    bounds = bounds_from_baseline(first.continuous, 0.1)
    assert bounds != bounds_from_baseline(first.continuous, 0.1)
    assert saltelli_sample(bounds, 64, 1) != saltelli_sample(bounds, 64, 1)
    assert first != again and first.series == again.series


def test_fitted_run_close_to_published_equilibrium(fitted_reports):
    # Fitting the fixture lands near the published operating point.
    d = fitted_reports["ai_physical"].to_dict()
    x, y = d["equilibria"]["interior"]
    assert x == pytest.approx(198.18, rel=0.05)
    assert y == pytest.approx(51506.42, rel=0.05)


def _rescaled_csv(tmp: Path, key: str, cx: float, cy: float, swap: bool = False) -> Path:
    """Fixture ``key`` with every x multiplied by cx and every y by cy, and the
    two value columns exchanged if ``swap``, written to tmp/data.csv."""
    header, *rows = config_for(key).input_path.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for year, x, y in (row.split(",") for row in rows):
        x, y = float(x) * cx, float(y) * cy
        lines.append(",".join([year, *map(repr, (y, x) if swap else (x, y))]))
    return write_csv(tmp, lines)


def _rescaled_run(tmp: Path, key: str, cx: float, cy: float, swap: bool = False) -> Report:
    """run_pipeline, writing nothing, on :func:`_rescaled_csv`'s series."""
    return run_pipeline(config_for(key, input_path=_rescaled_csv(tmp, key, cx, cy, swap)))


def _unit_free(r: Report) -> list:
    """Every result that a change of units leaves as it is."""
    d, st = r.fit_diag, r.stability
    return [r.continuous.a1, r.continuous.a2, r.regression.intercept1, r.regression.intercept2,
            [(eq.adj_r2_origin, eq.adj_r2_full) for eq in (d.eq_x, d.eq_y)],
            r.mape_one_step, r.mape_free_running, st.eigenvalues, st.classification,
            r.interaction, {k: (v["sign_dx"], v["sign_dy"]) for k, v in r.region_signs.items()},
            r.convergence["ode_rel_error"], r.convergence["discrete_rel_error"],
            r.sobol.first_order.tolist(), r.sobol.total_order.tolist()]


def _in_units(r: Report, cx: float, cy: float) -> list:
    """Every b coefficient, equilibrium and ODE state of r with x in units of
    1/cx and y in units of 1/cy: exact when cx and cy are powers of two."""
    cp, eqs = r.continuous, r.equilibria
    return [cp.b11 / cx, cp.b12 / cy, cp.b21 / cx, cp.b22 / cy,
            [p and (p[0] * cx, p[1] * cy)
             for p in (eqs.origin, eqs.axial_x, eqs.axial_y, eqs.interior)],
            r.ode_trajectory.t.tolist(), (r.ode_trajectory.states * [cx, cy]).tolist()]


def test_power_of_two_units_change_no_bit_property(fitted_reports):
    # Scaling x by 2^kx and y by 2^ky rescales each b by 1/its column's scale
    # and each state by (2^kx, 2^ky), bit for bit, and changes nothing else.
    # Before the fit solved the equilibrated normal equations, x * 2^10 and
    # (x * 2^20, y * 2^-20) moved a1, a2, every b, both MAPEs and S_1.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=12, deadline=None)
    @hyp.given(key=st.sampled_from(sorted(fitted_reports)),
               kx=st.integers(-60, 60), ky=st.integers(-60, 60))
    @hyp.example(key="ai_physical", kx=10, ky=0)
    @hyp.example(key="ai_labor", kx=10, ky=0)
    @hyp.example(key="ai_physical", kx=20, ky=-20)
    @hyp.example(key="ai_labor", kx=20, ky=-20)
    def exact(key, kx, ky):
        base = fitted_reports[key]
        cx, cy = 2.0**kx, 2.0**ky
        with tempfile.TemporaryDirectory() as tmp:
            scaled = _rescaled_run(Path(tmp), key, cx, cy)
        assert _unit_free(scaled) == _unit_free(base)
        assert _in_units(scaled, 1.0, 1.0) == _in_units(base, cx, cy)

    exact()


@pytest.mark.parametrize("key", ["ai_physical", "ai_labor"])
def test_swapping_the_series_swaps_the_results(tmp_path, fitted_reports, key):
    # Exchanging x and y exchanges every parameter, point and error of the two
    # species and flips the prey.  The Sobol' indices are left out: the
    # swapped parameters take other Sobol' dimensions, so they agree only to
    # Monte-Carlo error.
    base, swapped = fitted_reports[key], _rescaled_run(tmp_path, key, 1.0, 1.0, swap=True)

    def species(r: Report, i: int) -> list[float]:
        cp, rc, eq = r.continuous, r.regression, (r.fit_diag.eq_x, r.fit_diag.eq_y)[i]
        return [(cp.a1, cp.a2)[i], (cp.b11, cp.b22)[i], (cp.b12, cp.b21)[i],
                (rc.intercept1, rc.intercept2)[i], (rc.self_slope1, rc.self_slope2)[i],
                (rc.cross_slope1, rc.cross_slope2)[i], eq.adj_r2_origin, eq.adj_r2_full,
                r.mape_one_step[i], r.mape_free_running[i],
                r.equilibria.interior[i], (r.equilibria.axial_x, r.equilibria.axial_y)[i][i],
                *r.ode_trajectory.states[:, i]]

    def convergence(r: Report, i: int) -> list[float]:
        return [r.convergence["ode_rel_error"][i], r.convergence["discrete_rel_error"][i]]

    for i in (0, 1):
        np.testing.assert_allclose(species(swapped, i), species(base, 1 - i), rtol=1e-12, atol=0)
        # Relative errors near 1e-10 and 1e-12 are differences of nearly equal
        # states, so they agree to an absolute 1e-12, not to 1e-12 of themselves.
        np.testing.assert_allclose(convergence(swapped, i), convergence(base, 1 - i),
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(sorted(swapped.stability.eigenvalues, key=lambda z: z.real),
                               sorted(base.stability.eigenvalues, key=lambda z: z.real),
                               rtol=1e-12, atol=0)
    assert swapped.stability.classification == base.stability.classification
    assert swapped.interaction.kind == base.interaction.kind
    assert swapped.interaction.prey == {"x": "y", "y": "x"}[base.interaction.prey]
    assert (sorted((v["sign_dy"], v["sign_dx"]) for v in swapped.region_signs.values())
            == sorted((v["sign_dx"], v["sign_dy"]) for v in base.region_signs.values()))


def test_pipeline_stage_error_and_partial_report(tmp_path):
    # No published baseline matches this label, so injection fails after the
    # load stage; the partial report must be written with the marker set.
    labor = fixture_path("cn_ai_labor.csv").read_text(encoding="utf-8")
    p = write_csv(tmp_path, labor.replace("labor", "factor_two").splitlines())
    out = tmp_path / "out"
    cfg = AnalysisConfig(input_path=p, y_col="factor_two", params_from_paper=True,
                         out_dir=out)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "inject-params"
    d = json.loads((out / "report.json").read_text())
    assert d["incomplete"] is True
    assert d["failed_stage"] == "inject-params"
    assert "series" in d and "parameters" not in d


@pytest.mark.parametrize("overrides,stages,match", [
    ({"formats": ("xml",)}, None, "unknown report format 'xml'"),
    ({"baseline_key": "ai_other"}, None, "unknown baseline 'ai_other'"),
    ({}, {"classify", "fit"}, r"unknown pipeline stages: \['fit'\]"),
], ids=["format", "baseline", "stage"])
def test_unknown_names_fail_validation_before_any_work(tmp_path, overrides, stages, match):
    # The CLI's choices stop the first two before validate sees them.
    cfg = config_for("ai_physical", input_path=tmp_path / "missing.csv", **overrides)
    with pytest.raises(ValidationError, match=match):
        run_pipeline(cfg, stages)


@pytest.mark.parametrize("stages", [["sobol"], "sobol", ("sobol",), {"sobol": 1}, {1},
                                    frozenset({"sobol", None})],
                         ids=["list", "str", "tuple", "dict", "set-of-int", "frozenset-with-None"])
def test_stages_that_are_not_a_set_of_names_fail_validation(stages):
    # A list or a str raised a bare AttributeError (.difference).
    with pytest.raises(ValidationError, match="stages must be None or a set of stage names"):
        run_pipeline(config_for("ai_physical"), stages)


@pytest.mark.parametrize("name,value", [
    ("formats", None), ("baseline_key", []), ("input_path", None), ("out_dir", 3),
    ("params_from_paper", "false"), ("params_from_paper", 1), ("unit", 3), ("year_col", None),
    ("x_col", b"ai_capital"), ("y_col", 2)])
def test_fields_of_the_wrong_type_fail_validation_before_any_work(tmp_path, name, value):
    # The first four raised a bare TypeError from run_pipeline; out_dir=3 did
    # so at the write stage, after every other stage had run.  The string
    # "false" for params_from_paper ran on the published baseline, and unit=3
    # was written to the report as the number 3.
    cfg = config_for("ai_physical", **{"input_path": tmp_path / "missing.csv", name: value})
    with pytest.raises(ValidationError, match=name.removesuffix("_key")):
        run_pipeline(cfg)


def test_warnings_of_a_run_go_into_its_report(tmp_path):
    # The near-collinear series of tests/test_fitting.py: each equation of the
    # fit warns IllConditioned.  The warnings are shown as before, and
    # report.json lists them.
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    rows = ["year,ai_capital,physical_capital"] + [
        f"{2016 + i},{x!r},{x * 2.0 * (1 + 1e-10 * i)!r}" for i, x in enumerate(xs)]
    p = write_csv(tmp_path, rows)
    with pytest.warns(IllConditioned) as shown:
        assert main(["fit", "--input", str(p), "--out", str(tmp_path / "out")]) == 0
    assert len(shown) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["warnings"] == [f"fit: IllConditioned: {w.message}" for w in shown]


def test_stage_error_propagates_when_the_incomplete_report_cannot_be_written(tmp_path):
    # The output directory is a file, so the write of the incomplete report
    # fails too; the stage's own error is the one raised.
    labor = fixture_path("cn_ai_labor.csv").read_text(encoding="utf-8")
    p = write_csv(tmp_path, labor.replace("labor", "factor_two").splitlines())
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = AnalysisConfig(input_path=p, y_col="factor_two", params_from_paper=True,
                         out_dir=blocker)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "inject-params"
    assert type(err.value.cause) is ValidationError
    assert err.value.exit_code == 2
    assert blocker.read_text() == "file, not a directory"


def test_report_convergence_block(injected_reports):
    d = injected_reports["ai_physical"].to_dict()
    conv = d["convergence"]
    assert max(conv["ode_rel_error"]) < 0.01
    assert max(conv["discrete_rel_error"]) < 0.01


@pytest.mark.filterwarnings("error")
def test_convergence_of_a_zero_interior_component_is_null(tmp_path, monkeypatch):
    # The interior equilibrium is (-0.0, 1000.0): the relative error of x
    # divided by zero, warned, and the inf failed the write untyped.
    cp = ContinuousParams(0.1, -0.001, -0.0001, 0.1, 0.0005, -0.0001)
    monkeypatch.setattr(pipeline, "regression_to_discrete", lambda _: continuous_to_discrete(cp))
    monkeypatch.setattr(pipeline, "discrete_to_continuous", lambda _: cp)
    report = run_pipeline(config_for("ai_physical", out_dir=tmp_path), stages={"trajectories"})
    assert report.equilibria.interior == (-0.0, 1000.0)
    conv = json.loads((tmp_path / "report.json").read_text())["convergence"]
    for key in ("ode_rel_error", "discrete_rel_error"):
        assert conv[key][0] is None and 0 <= conv[key][1] < np.inf


def test_report_region_signs(injected_reports):
    regions = injected_reports["ai_physical"].to_dict()["phase"]["region_signs"]
    assert (regions["region_I"]["sign_dx"], regions["region_I"]["sign_dy"]) == (-1, 1)
    assert (regions["region_II"]["sign_dx"], regions["region_II"]["sign_dy"]) == (-1, -1)
    assert (regions["region_III"]["sign_dx"], regions["region_III"]["sign_dy"]) == (1, -1)
    assert (regions["region_IV"]["sign_dx"], regions["region_IV"]["sign_dy"]) == (1, 1)


def test_region_signs_fail_typed_when_the_field_overflows():
    # The points off (1e300, 1) square to inf; the field was NaN, which int() refused.
    cp = ContinuousParams(1e300, -1.0, 0.0, 1.0, 0.0, -1.0)
    with np.errstate(all="raise"), pytest.raises(NumericalError, match="interior equilibrium"):
        pipeline._region_signs(cp, (1e300, 1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("interior,x", [(None, 1.7e308), ((1e-323, 1.0), 1.0)],
                         ids=["data-box-overflows", "interior-box-underflows"])
def test_default_phase_box_that_under_or_overflows_fails_numerical(interior, x):
    # 1.5 * 1.7e308 is inf, and 1e-323 / 50 is 0.0: both were InvalidBBox (exit 2).
    ts = TimeSeries("x", "y", "u", (2016, 2017, 2018, 2019), (x, 1.0, 1.0, 1.0), (1.0,) * 4)
    with pytest.raises(NumericalError, match="default phase box"):
        pipeline._default_bbox(interior, ts)


def test_sobol_block_accounting(injected_reports):
    d = injected_reports["ai_physical"].to_dict()
    blk = d["sobol"]
    assert blk["n_base"] == 1024
    assert blk["accepted_count"] + blk["rejected_count"] == 1024 * 8
    assert blk["rejected_count"] == 0
    assert 0.94 <= blk["outputs"]["x_star"]["sum_first_order"] <= 1.04


# ---------------------------------------------------------------------------
# Files and determinism
# ---------------------------------------------------------------------------

def test_write_report_files(tmp_path):
    cfg = config_for("ai_physical", params_from_paper=True, sobol_n=64,
                     formats=("json", "csv"))
    rep = run_pipeline(cfg)
    written = write_report(rep, tmp_path)
    names = {p.name for p in written}
    assert {"report.json", "report.csv", "sobol.csv"} <= names
    sobol_lines = (tmp_path / "sobol.csv").read_text().splitlines()
    assert sobol_lines[0] == "parameter,output,S_i,S_Ti"
    assert len(sobol_lines) == 1 + 12
    phase = tmp_path / "phase"
    assert (phase / "nullclines.csv").is_file()
    assert (phase / "signgrid.csv").is_file()
    assert (phase / "vectorfield.csv").is_file()
    assert (phase / "trajectory_ode.csv").is_file()
    assert (phase / "trajectory_discrete.csv").is_file()
    assert (phase / "README.md").is_file()


def test_csv_files_match_report_arrays(tmp_path, injected_reports):
    rep = injected_reports["ai_physical"]
    write_report(rep, tmp_path)
    pg, ode, disc, sr = (rep.phase, rep.ode_trajectory, rep.discrete_trajectory,
                         rep.sobol)

    def table(path, header):
        lines = path.read_text().splitlines()
        assert lines[0] == header
        return [line.split(",") for line in lines[1:]]

    def r9(values):
        return [float(f"{v:.9g}") for v in values]

    phase = tmp_path / "phase"
    expected = []
    for kind, (a, b, c) in (("x", pg.nullcline_x), ("y", pg.nullcline_y)):
        ys = -(a + b * pg.xs) / c
        on_x = (ys >= pg.bbox.y_min) & (ys <= pg.bbox.y_max)
        xs = -(a + c * pg.ys) / b
        on_y = (xs >= pg.bbox.x_min) & (xs <= pg.bbox.x_max)
        points = list(zip(pg.xs[on_x], ys[on_x])) + list(zip(xs[on_y], pg.ys[on_y]))
        expected += [[kind] + r9((a, b, c, x, y)) for x, y in points]
    rows = table(phase / "nullclines.csv", "kind,A,B,C,x,y")
    assert len(rows) == len(expected) > 0
    assert [[r[0]] + [float(v) for v in r[1:]] for r in rows] == expected

    grid = [(x, y) for x in pg.xs for y in pg.ys]
    rows = table(phase / "signgrid.csv", "x,y,sign_dx,sign_dy")
    assert len(rows) == len(pg.xs) * len(pg.ys)
    assert [[float(r[0]), float(r[1])] for r in rows] == [r9(p) for p in grid]
    assert [int(r[2]) for r in rows] == np.sign(pg.dx).ravel().tolist()
    assert [int(r[3]) for r in rows] == np.sign(pg.dy).ravel().tolist()

    rows = table(phase / "vectorfield.csv", "x,y,dxdt,dydt")
    assert [[float(v) for v in r] for r in rows] == [
        r9(p + (dx, dy)) for p, dx, dy in zip(grid, pg.dx.ravel(), pg.dy.ravel())]

    rows = table(phase / "trajectory_ode.csv", "t,x,y")
    assert len(rows) == len(ode.t)
    assert [[float(v) for v in r] for r in rows] == [
        r9((t, x, y)) for t, (x, y) in zip(ode.t, ode.states)]

    rows = table(phase / "trajectory_discrete.csv", "step,x,y")
    assert len(rows) == len(disc)
    assert [int(r[0]) for r in rows] == list(range(len(disc)))
    assert [[float(r[1]), float(r[2])] for r in rows] == [r9(s) for s in disc]

    rows = table(tmp_path / "sobol.csv", "parameter,output,S_i,S_Ti")
    assert [r[:2] for r in rows] == [[p, o] for o in OUTPUT_NAMES for p in PARAM_NAMES]
    assert [[float(r[2]), float(r[3])] for r in rows] == [
        r9((sr.first_order[oi, pi], sr.total_order[oi, pi]))
        for oi in range(len(OUTPUT_NAMES)) for pi in range(len(PARAM_NAMES))]


def per_cell(row) -> str:
    """A CSV line by the per-cell rule: ``.9g`` for a float, ``str`` otherwise."""
    return ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)


#: Cell values a float column may meet: signed zeros and infinities, NaN,
#: subnormals, extremes, values that need all nine digits, NumPy scalars.
EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
               1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 1 / 3,
               -123456789.5, 1e16, 0.1, np.float64(-0.0), np.float64(2.5e-320),
               np.float64(-1e300), np.float64(np.nan), np.float64(1 / 3)]
SMALL_INTS = [-1, 0, 1, 7, 20, 40401]


def test_csv_row_formats_match_the_per_cell_rule(tmp_path, monkeypatch, injected_reports):
    calls = {}
    write_csv_rows = pipeline._write_csv

    def spy(path, header, fmt, rows):
        rows = list(rows)
        calls[path.name] = fmt, rows
        return write_csv_rows(path, header, fmt, rows)

    monkeypatch.setattr(pipeline, "_write_csv", spy)
    write_report(injected_reports["ai_physical"], tmp_path)
    assert sorted(calls) == ["nullclines.csv", "signgrid.csv", "sobol.csv",
                             "trajectory_discrete.csv", "trajectory_ode.csv",
                             "vectorfield.csv"]
    for fmt, rows in calls.values():
        assert rows and all(fmt % row == per_cell(row) for row in rows)
        # Every column kind of the format against its edge values.
        kinds = fmt.split(",")
        for k, v in enumerate(EDGE_FLOATS + SMALL_INTS):
            row = tuple({"%.9g": v if isinstance(v, float) else float(v),
                         "%d": SMALL_INTS[k % len(SMALL_INTS)],
                         "%s": "x"}[kind] for kind in kinds)
            assert fmt % row == per_cell(row)


def test_nullclines_print_int_coefficients_as_given(tmp_path):
    # Library callers may build parameters from ints; a coefficient of ten
    # digits shows that they print by str, not in nine significant digits.
    cp = ContinuousParams(a1=3000000001, b11=-1000000000, b12=-1000000000,
                          a2=4, b21=-1, b22=-2)
    pg = phase_geometry(cp, BBox(0.5, 3.0, 0.5, 3.0), 11)
    export_phase_data(pg, None, None, tmp_path)
    lines = (tmp_path / "nullclines.csv").read_text().splitlines()
    want = ["kind,A,B,C,x,y"]
    for kind, (ca, cb, cc) in (("x", pg.nullcline_x), ("y", pg.nullcline_y)):
        for x in pg.xs.tolist():
            y = -(ca + cb * x) / cc
            if 0.5 <= y <= 3.0:
                want.append(per_cell((kind, ca, cb, cc, x, y)))
        for y in pg.ys.tolist():
            x = -(ca + cc * y) / cb
            if 0.5 <= x <= 3.0:
                want.append(per_cell((kind, ca, cb, cc, x, y)))
    assert lines == want
    assert {line.split(",", 4)[1] for line in lines[1:]} == {"3000000001", "4"}


def test_nullcline_lines_pass_through_equilibrium(injected_reports):
    d = injected_reports["ai_physical"].to_dict()
    x, y = d["equilibria"]["interior"]
    for key in ("nullcline_x", "nullcline_y"):
        a, b, c = d["phase"][key]
        assert abs(a + b * x + c * y) <= 1e-9 * max(abs(a), abs(b * x), abs(c * y))


def test_export_phase_data_without_trajectories(tmp_path, injected_reports):
    pg = injected_reports["ai_physical"].phase
    written = export_phase_data(pg, None, None, tmp_path / "phase")
    names = {p.name for p in written}
    assert names == {"nullclines.csv", "signgrid.csv", "vectorfield.csv", "README.md"}


def test_export_phase_data_writes_both_trajectories(tmp_path, injected_reports):
    rep = injected_reports["ai_physical"]
    written = export_phase_data(rep.phase, rep.ode_trajectory, rep.discrete_trajectory,
                                tmp_path / "phase")
    assert [p.name for p in written] == [
        "nullclines.csv", "signgrid.csv", "vectorfield.csv", "trajectory_ode.csv",
        "README.md", "trajectory_discrete.csv"]
    # write_report returns the same phase paths, after its own files.
    assert [p.name for p in write_report(rep, tmp_path)][-6:] == [p.name for p in written]


def test_export_phase_data_unwritable_target(tmp_path, injected_reports):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    pg = injected_reports["ai_physical"].phase
    with pytest.raises(IoError):
        export_phase_data(pg, None, None, blocker / "sub")


def test_write_text_to_a_directory_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot write") as err:
        pipeline._write_text(tmp_path, "text")
    assert err.value.exit_code == 4


def test_reports_are_byte_identical_across_runs(tmp_path):
    texts = []
    for run in ("a", "b"):
        cfg = config_for("ai_physical", params_from_paper=True, seed=7,
                         out_dir=tmp_path / run)
        run_pipeline(cfg)
        texts.append((tmp_path / run / "report.json").read_bytes())
    assert texts[0] == texts[1]


_INT_KEYS = {"years", "sobol_n", "seed", "grid_n", "n_base", "accepted_count",
             "rejected_count", "retained_triples", "sign_dx", "sign_dy"}


def _walk(obj, key=None):
    """Yield (key, leaf) for every leaf of a nested report dict."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _walk(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v, key)
    else:
        yield key, obj


@pytest.mark.parametrize("reports", ["fitted_reports", "injected_reports"])
def test_to_dict_rounds_every_float_once(reports, request):
    for report in request.getfixturevalue(reports).values():
        leaves = list(_walk(report.to_dict()))
        seen_ints = set()
        for key, v in leaves:
            assert not isinstance(v, tuple)
            if key in _INT_KEYS:
                assert type(v) is int, key
                seen_ints.add(key)
            elif isinstance(v, float):
                assert type(v) is float, key
                assert v == float(f"{v:.9g}"), key
        assert seen_ints == _INT_KEYS
    # Report objects themselves keep full precision.
    conv = request.getfixturevalue(reports)["ai_physical"].convergence
    assert any(v != float(f"{v:.9g}") for v in conv["ode_rel_error"])


def test_to_dict_prints_int_classify_tol_as_float():
    d = Report(config=config_for("ai_physical", classify_tol=0)).to_dict()
    assert json.dumps(d["config"]["classify_tol"]) == "0.0"


def test_report_json_round_trips(injected_reports):
    text = report_json_text(injected_reports["ai_physical"])
    parsed = json.loads(text)
    assert parsed["provenance"]["package"] == "lvdyn"
    assert parsed["provenance"]["version"]
    assert len(parsed["provenance"]["input_sha256"]) == 64


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze_success(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(PHYS_FIXTURE),
                 "--params-from-paper", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").is_file()
    text = capsys.readouterr().out
    assert "stable_node" in text
    assert "predator_prey" in text


def test_cli_fit_runs_without_sampling(capsys):
    code = main(["fit", "--input", str(PHYS_FIXTURE)])
    assert code == 0
    text = capsys.readouterr().out
    assert "regression eq1" in text
    assert "sobol" not in text


def test_cli_sobol_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(["sobol", "--input", str(PHYS_FIXTURE), "--params-from-paper",
                 "--sobol-n", "128", "--out", str(out)])
    assert code == 0
    assert (out / "sobol.csv").is_file()
    assert not (out / "phase").exists()


def test_cli_phase_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(["phase", "--input", str(PHYS_FIXTURE), "--params-from-paper",
                 "--out", str(out)])
    assert code == 0
    assert (out / "phase" / "nullclines.csv").is_file()
    assert not (out / "sobol.csv").exists()


def test_sobol_n_rule_ends_at_the_sequence_length():
    # The Sobol' generator has 2**_SOBOL_BITS points per coordinate; a larger
    # N used to pass validation and reach the (12, N) allocation of its digits.
    check("sobol_n", 2**_SOBOL_BITS)
    with pytest.raises(InvalidN):
        check("sobol_n", 2**(_SOBOL_BITS + 1))


def test_cli_infinite_classify_tol_is_a_validation_error(tmp_path, capsys):
    # inf passed validation and reached stage 'write', where JSON has no inf:
    # exit 3 through the untyped fallback.
    out = tmp_path / "out"
    code = main(["fit", "--input", str(PHYS_FIXTURE), "--classify-tol", "inf", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: classify_tol must be finite and >= 0, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("grid_n", [1025, 10**6])
def test_grid_n_rule_ends_at_1024(capsys, grid_n):
    # --grid-n 1000000 passed validation and asked phase_geometry for a grid
    # of 10**12 points.  Every call below fails before a grid is built.
    message = f"grid_n must be from 2 to 1024, got {grid_n}"
    check("grid_n", 1024)
    cp = ContinuousParams(a1=1.0, b11=-1.0, b12=-0.5, a2=1.0, b21=0.5, b22=-1.0)
    for call in (lambda: check("grid_n", grid_n),
                 lambda: config_for("ai_physical", grid_n=grid_n).validate(),
                 lambda: phase_geometry(cp, BBox(1.0, 2.0, 1.0, 2.0), grid_n)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message
    assert main(["phase", "--input", str(PHYS_FIXTURE), "--grid-n", str(grid_n)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_validation_exit_code(capsys):
    code = main(["analyze", "--input", str(PHYS_FIXTURE), "--sobol-n", "100"])
    assert code == 2
    assert "power of two" in capsys.readouterr().err


def test_cli_io_exit_code(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "missing.csv")])
    assert code == 4


def test_error_families_carry_their_exit_codes():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, LvdynError)]
    assert len(classes) > 10
    for cls in classes:
        if cls not in (LvdynError, PipelineStageError):
            assert cls.exit_code in (2, 3, 4), cls
    assert (ValidationError.exit_code, NumericalError.exit_code, IoError.exit_code) == (2, 3, 4)
    for cause in (ParseError("p"), SingularDesign("s"), IoError("i")):
        assert PipelineStageError("fit", cause).exit_code == cause.exit_code


@pytest.mark.parametrize("args", [
    ["analyze", "--input", "n" * 5000], ["report", "--report", "n" * 5000]])
def test_cli_name_too_long_is_an_io_error(capsys, args):
    # Path.is_file raises OSError (ENAMETOOLONG) rather than return False.
    assert main(args) == 4
    assert "File name too long" in capsys.readouterr().err


def test_bug_in_a_stage_is_not_reported_as_a_typed_failure(tmp_path, monkeypatch, capsys):
    # A Python error that is not an LvdynError used to leave the stage as a
    # PipelineStageError, which the CLI mapped to exit 3.
    def broken(cp):
        raise ZeroDivisionError("a bug")
    monkeypatch.setattr(pipeline, "equilibrium_set", broken)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError, match="a bug"):
        main(["analyze", "--input", str(PHYS_FIXTURE), "--out", str(out)])
    assert not out.exists()


def test_cli_report_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    main(["analyze", "--input", str(PHYS_FIXTURE), "--params-from-paper",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["report", "--report", str(out / "report.json")])
    assert code == 0
    assert "interior equilibrium" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    b"[1, 2]",
    b'{"classification": 5, "equilibria": [1]}',
    b"\xff\xfe{}",
    b'{"a": 1}',
    b"not json",
    b'{"provenance": {"package": "lvdyn"}, "equilibria": [1]}',
], ids=["list", "wrong-fields", "non-utf8", "foreign-dict", "not-json", "malformed"])
def test_cli_report_rejects_non_report(tmp_path, capsys, content):
    p = tmp_path / "report.json"
    p.write_bytes(content)
    assert main(["report", "--report", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_report_rejects_deeply_nested_json(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    p = tmp_path / "report.json"
    p.write_bytes(b"[" * 200000 + b"]" * 200000)
    assert main(["report", "--report", str(p)]) == 2
    assert f"error: cannot parse {p}" in capsys.readouterr().err


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("LVDYN_SEED", "777")
    code = main(["sobol", "--input", str(PHYS_FIXTURE), "--params-from-paper",
                 "--sobol-n", "64", "--out", str(out)])
    assert code == 0
    d = json.loads((out / "report.json").read_text())
    assert d["sobol"]["seed"] == 777


def test_cli_bad_seed_env_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("LVDYN_SEED", "abc")
    code = main(["fit", "--input", str(PHYS_FIXTURE)])
    assert code == 2
    assert "LVDYN_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_cli_negative_seed_exit_code(monkeypatch, capsys, via_env):
    argv = ["sobol", "--input", str(PHYS_FIXTURE), "--sobol-n", "64"]
    if via_env:
        monkeypatch.setenv("LVDYN_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err
    assert "stage" not in err


def test_cli_baseline_choices_follow_baselines(monkeypatch, capsys):
    monkeypatch.setitem(BASELINES, "extra", BASELINES["ai_physical"])
    code = main(["fit", "--input", str(PHYS_FIXTURE), "--params-from-paper",
                 "--baseline", "extra"])
    assert code == 0
    assert "parameters (published_baseline)" in capsys.readouterr().out


@pytest.mark.parametrize("flags,baseline", [
    ([], "ai_labor"),
    (["--baseline", "ai_physical"], "ai_physical"),
], ids=["by-label", "explicit"])
def test_cli_baseline_names_the_reference_of_a_fitted_run(tmp_path, flags, baseline):
    # A fitted run took its reference from the y label and ignored --baseline.
    out = tmp_path / "out"
    assert main(["fit", "--input", str(fixture_path("cn_ai_labor.csv")), "--y-col", "labor",
                 *flags, "--out", str(out)]) == 0
    d = json.loads((out / "report.json").read_text())
    assert d["parameters"]["source"] == "fitted"
    assert d["reference"]["baseline"] == baseline


def test_cli_geometric_series_exit_code(tmp_path, capsys):
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital", "2016,1,10",
                             "2017,2,30", "2018,4,90", "2019,8,270", "2020,16,810"])
    code = main(["fit", "--input", str(p)])
    assert code == 3
    assert "geometric series" in capsys.readouterr().err


def test_cli_four_point_fit_exit_code(tmp_path, capsys):
    p = write_csv(tmp_path, ["year,ai_capital,physical_capital", "2016,1,10",
                             "2017,3,20", "2018,4,50", "2019,9,70"])
    code = main(["fit", "--input", str(p)])
    assert code == 2
    assert "stage 'fit'" in capsys.readouterr().err
    # Injected parameters need no fit, so the same file still analyses.
    assert main(["analyze", "--input", str(p), "--params-from-paper"]) == 0


def test_cli_overflowing_fit_fails_sobol_with_typed_cause(tmp_path, capsys):
    # On the fixture with x scaled by 1e-156 and y by 2e-159 the fitted
    # b11*b22 overflows, while every sum of squares of the fit stays a normal
    # float.  The closed form then gave (0, 0) with ok=True for every row, a
    # zero variance and NaN indices, and the run failed at 'write' with no report.
    header, *rows = PHYS_FIXTURE.read_text(encoding="utf-8").splitlines()
    scaled = [header] + [
        ",".join([year, repr(float(x) * 1e-156), repr(float(y) * 2e-159)])
        for year, x, y in (row.split(",") for row in rows)]
    out = tmp_path / "out"
    assert main(["sobol", "--input", str(write_csv(tmp_path, scaled)),
                 "--out", str(out)]) == 3
    assert "stage 'sobol'" in capsys.readouterr().err
    d = json.loads((out / "report.json").read_text())
    assert d["incomplete"] is True
    assert d["failed_stage"] == "sobol"
    assert d["error"].startswith("TooManyRejections:")
    assert d["equilibria"]["interior"] is None


@pytest.mark.parametrize("cx,cy,code", [(1e160, 1e160, 0), (1e-160, 1e-160, 0), (1e-320, 1.0, 3)],
                         ids=["1e160", "1e-160", "x1e-320"])
def test_cli_rescaled_fit_exit_code(tmp_path, capsys, cx, cy, code):
    # Scaled by 1e160 the raw X.T @ X overflowed, and by 1e-160 the x column's
    # sum of squares was subnormal: both exited 3.  The equilibrated normal
    # equations fit them.  With x * 1e-320 (subnormal) the slopes on x
    # overflow, still a typed failure at 'fit'.
    assert main(["fit", "--input", str(_rescaled_csv(tmp_path, "ai_physical", cx, cy))]) == code
    err = capsys.readouterr().err
    assert ("stage 'fit'" in err and "not a finite normal float" in err) == (code == 3)


def test_cli_csv_format(tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(PHYS_FIXTURE), "--params-from-paper",
                 "--format", "csv", "--format", "json", "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").is_file()
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("equilibria.interior,") for line in lines)


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

def test_public_names_are_the_imported_api():
    import types

    import lvdyn

    assert not [n for n in lvdyn.__all__ if isinstance(getattr(lvdyn, n), types.ModuleType)]
    assert all(hasattr(lvdyn, n) for n in lvdyn.__all__)
    assert len(set(lvdyn.__all__)) == len(lvdyn.__all__)
    namespace: dict = {}
    exec("from lvdyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lvdyn.__all__)
    # The public names are the bullet list of README "Library", in any order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", library, re.M)
    listed = [name for b in bullets for name in re.findall(r"`(\w+)`", b)]
    assert sorted(listed) == sorted(lvdyn.__all__)
