"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is asserted at its stated tolerance against the published
case-study values collected in conftest.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from lvdyn import (
    ContinuousParams,
    InteractionKind,
    ParamBounds,
    classify_interaction,
    evaluate_equilibria,
    integrate_ode,
    jacobian_at,
    run_pipeline,
    saltelli_sample,
    sobol_indices,
)
from lvdyn.dynamics import vector_field
from lvdyn.params import PARAM_NAMES
from lvdyn.sensitivity import OUTPUT_NAMES

from reference_kernels import block_values
from conftest import (
    PUBLISHED,
    PUBLISHED_SOBOL,
    config_for,
    published_sobol_bounds,
    roundtrip_mismatches,
)

SUBSYSTEMS = ("ai_physical", "ai_labor")


def check(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{name}]: {status}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_01_equilibrium_reproduction(injected_reports):
    failures = []
    for key in SUBSYSTEMS:
        got = injected_reports[key].equilibria.interior
        want = PUBLISHED[key]["interior"]
        for i, axis in enumerate("xy"):
            if abs(got[i] - want[i]) > 0.5:
                failures.append(f"{key} {axis}*: {got[i]:.2f} vs {want[i]} (tol 0.5)")
    check(1, "equilibrium reproduction", failures)


def test_criterion_02_eigenvalue_stability(injected_reports):
    failures = []
    for key in SUBSYSTEMS:
        st = injected_reports[key].stability
        want = PUBLISHED[key]["eigenvalues"]
        for i in range(2):
            got = st.eigenvalues[i]
            if abs(got.real - want[i]) > 0.05 or abs(got.imag) > 1e-12:
                failures.append(f"{key} lambda{i + 1}: {got} vs {want[i]} (tol 0.05)")
        if st.classification.value != "stable_node":
            failures.append(f"{key} classified {st.classification.value}")
    check(2, "eigenvalues and stable-node classification", failures)


def test_criterion_03_interaction_classification(injected_reports):
    failures = []
    for key in SUBSYSTEMS:
        # From coefficient signs alone, via the classifier itself.
        result = classify_interaction(injected_reports[key].continuous, tol=0.0)
        if result.kind is not InteractionKind.PREDATOR_PREY or result.prey != "x":
            failures.append(f"{key}: {result}")
        label = injected_reports[key].to_dict()["interaction"]["prey_label"]
        if label != "ai_capital":
            failures.append(f"{key}: prey label {label!r}")
    check(3, "predator-prey with AI capital as prey", failures)


def test_criterion_04_transform_round_trip():
    failures = []
    for key in SUBSYSTEMS:
        # 1% relative per entry plus the interval the printed rounding of the
        # inputs already allows (two cross-slopes are printed at only two
        # significant figures, where bare 1% is unattainable).
        failures.extend(roundtrip_mismatches(key, rel=0.01))
    check(4, "published layers mutually consistent under transforms", failures)


def test_criterion_05_fitting_reproduction(fitted_reports):
    failures = []
    slope_names = ("self_slope1", "cross_slope1", "self_slope2", "cross_slope2")
    for key in SUBSYSTEMS:
        rc = fitted_reports[key].regression
        pub = PUBLISHED[key]["regression"]
        for name in slope_names:
            got, want = getattr(rc, name), pub[name]
            if abs(got - want) > 0.05 * abs(want):
                failures.append(f"{key} {name}: {got:.6g} vs {want} (tol 5%)")
        for name in ("intercept1", "intercept2"):
            got, want = getattr(rc, name), pub[name]
            if abs(got - want) > 0.10 * abs(want):
                failures.append(f"{key} {name}: {got:.6g} vs {want} (tol 10%)")
        diag = fitted_reports[key].fit_diag
        for name, eq in (("adj_r2_1", diag.eq_x), ("adj_r2_2", diag.eq_y)):
            got = eq.adj_r2_origin
            if got < 0.98:
                failures.append(f"{key} {name}: {got:.4f} < 0.98")
    check(5, "fitting reproduces published coefficients", failures)


def test_criterion_06_mape_reproduction(injected_reports):
    failures = []
    for key in SUBSYSTEMS:
        rep = injected_reports[key]
        want = PUBLISHED[key]["mape"]
        got = rep.mape_one_step
        for i, series in enumerate(("x", "y")):
            if abs(got[i] - want[i]) > 1.5:
                failures.append(
                    f"{key} {series}: one-step MAPE {got[i]:.2f}% vs {want[i]}% "
                    f"(tol 1.5 points)")
        mode = rep.to_dict()["mape"]["mode"]
        if mode != rep.config.mode.value:
            failures.append(f"{key}: report mode {mode!r}")
    check(6, "one-step MAPE within 1.5 points of published", failures)


def _max_total_order_miss(key: str, res) -> float:
    return max(float(np.max(np.abs(res.total_order[oi]
                                   - np.array(PUBLISHED_SOBOL[(key, oname)]["ST"]))))
               for oi, oname in enumerate(OUTPUT_NAMES))


def test_criterion_07_sobol_reproduction(injected_reports):
    # The published tables were computed on the box published_sobol_bounds
    # infers from them, not on the documented +-10% box that the report's own
    # sobol block uses; see README "Reproduction status".
    failures = []
    for key in SUBSYSTEMS:
        rep = injected_reports[key]
        design = saltelli_sample(published_sobol_bounds(rep.continuous),
                                 rep.config.sobol_n, rep.config.seed)
        res = sobol_indices(design, *evaluate_equilibria(design))
        print(f"\n    {key} max |dS_T| vs published: documented box "
              f"{_max_total_order_miss(key, rep.sobol):.3f}, published-table box "
              f"{_max_total_order_miss(key, res):.3f}")
        for oi, oname in enumerate(OUTPUT_NAMES):
            pub = PUBLISHED_SOBOL[(key, oname)]
            got_st = res.total_order[oi]
            want_st = np.array(pub["ST"])
            top_got = {PARAM_NAMES[i] for i in np.argsort(got_st)[-2:]}
            top_want = {PARAM_NAMES[i] for i in np.argsort(want_st)[-2:]}
            if top_got != top_want:
                failures.append(
                    f"{key}/{oname} top-2 by S_Ti: {sorted(top_got)} vs "
                    f"published {sorted(top_want)}")
            for label, got, want in (("S_T", got_st, want_st),
                                     ("S_1", res.first_order[oi], pub["S1"])):
                for i, pname in enumerate(PARAM_NAMES):
                    if abs(got[i] - want[i]) > 0.08:
                        failures.append(
                            f"{key}/{oname} {label}({pname}): {got[i]:.3f} vs "
                            f"{want[i]:.3f} (tol 0.08)")
            sum_s1 = res.first_order[oi].sum()
            if not 0.94 <= sum_s1 <= 1.04:
                failures.append(f"{key}/{oname} sum S_i = {sum_s1:.3f}")
    check(7, "Sobol indices reproduce published tables", failures)


def test_criterion_08_estimator_oracles():
    failures = []

    # Single-variable function: all variance from parameter 1.
    bounds = ParamBounds(lower=np.zeros(6), upper=np.ones(6))
    design = saltelli_sample(bounds, 1024, seed=42)
    vals = block_values(lambda m: m[:, 0], design)
    res = sobol_indices(design, np.stack([vals, vals]), np.ones(vals.shape, dtype=bool))
    if abs(res.first_order[0, 0] - 1.0) > 0.02:
        failures.append(f"single-variable S_1 = {res.first_order[0, 0]:.3f}")
    if max(abs(res.first_order[0, i]) for i in range(1, 6)) > 0.02:
        failures.append("single-variable: nonzero index on inert parameter")

    # Additive two-variable function with variance shares 4/5 and 1/5.
    bounds2 = ParamBounds(lower=np.zeros(6),
                          upper=np.array([2.0, 1.0, 1e-9, 1e-9, 1e-9, 1e-9]))
    design2 = saltelli_sample(bounds2, 1024, seed=43)
    vals2 = block_values(lambda m: m[:, 0] + m[:, 1], design2)
    res2 = sobol_indices(design2, np.stack([vals2, vals2]), np.ones(vals2.shape, dtype=bool))
    for i, share in ((0, 0.8), (1, 0.2)):
        if abs(res2.first_order[0, i] - share) > 0.02:
            failures.append(
                f"additive share S_{i + 1} = {res2.first_order[0, i]:.3f} vs {share}")

    # Jacobian against central finite differences on 100 random draws.
    rng = np.random.default_rng(4242)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        cp = ContinuousParams(*rng.uniform(-1, 1, 6))
        x, y = rng.uniform(0.1, 50.0, 2)
        jac = jacobian_at(cp, (x, y))
        fd = np.empty((2, 2))
        fd[:, 0] = (np.array(vector_field(cp, x + h, y))
                    - np.array(vector_field(cp, x - h, y))) / (2 * h)
        fd[:, 1] = (np.array(vector_field(cp, x, y + h))
                    - np.array(vector_field(cp, x, y - h))) / (2 * h)
        worst = max(worst, float(np.max(np.abs(jac - fd)) / (np.max(np.abs(jac)) + 1.0)))
    if worst > 1e-5:
        failures.append(f"jacobian vs finite differences: rel err {worst:.2e}")

    # Decoupled exponential integrates to e at t = 1.
    cp = ContinuousParams(a1=1.0, b11=0, b12=0, a2=1.0, b21=0, b22=0)
    end = integrate_ode(cp, (1.0, 1.0), 1.0, 0.001).states[-1]
    if abs(end[0] - np.e) / np.e > 1e-6 or abs(end[1] - np.e) / np.e > 1e-6:
        failures.append(f"exponential endpoint {end} vs e (tol 1e-6)")

    check(8, "estimator oracles independent of published values", failures)


def test_criterion_09_convergence(injected_reports):
    failures = []
    for key in SUBSYSTEMS:
        conv = injected_reports[key].to_dict()["convergence"]
        for label in ("ode_rel_error", "discrete_rel_error"):
            worst = max(conv[label])
            if worst > 0.01:
                failures.append(f"{key} {label}: {worst:.4f} > 1%")
    check(9, "discrete free run and RK4 converge to the equilibrium", failures)


def test_criterion_10_determinism(tmp_path):
    texts = []
    for run in ("first", "second"):
        out = tmp_path / run
        run_pipeline(config_for("ai_physical", params_from_paper=True,
                                seed=2024, out_dir=out))
        texts.append((out / "report.json").read_bytes())
    failures = []
    if texts[0] != texts[1]:
        failures.append("report.json bytes differ between identical runs")
    else:
        json.loads(texts[0])  # stays parseable
    check(10, "byte-identical reports for identical config", failures)
