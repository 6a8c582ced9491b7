"""Shared fixtures and published reference values for the test suite."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from lvdyn import (
    AnalysisConfig,
    ContinuousParams,
    ParamBounds,
    fixture_path,
    run_pipeline,
)

# ---------------------------------------------------------------------------
# Published case-study reference values (point estimates as printed in the
# source tables; tests compare against these at documented tolerances).
# ---------------------------------------------------------------------------

# Three coefficient layers per subsystem.  Discrete and regression entries
# are stored by role: (intercept/alpha, self, cross) per species.
PUBLISHED = {
    "ai_physical": {
        "regression": {
            "intercept1": 0.021224, "self_slope1": 0.001769, "cross_slope1": 0.000012,
            "intercept2": 0.007191, "self_slope2": 0.000025, "cross_slope2": -0.001578,
            "adj_r2_1": 0.9908, "adj_r2_2": 0.9995,
        },
        "discrete": {
            "alpha1": 47.1160, "self1": -0.08337, "cross1": -0.000578,
            "alpha2": 139.0605, "self2": -0.003539, "cross2": 0.219529,
        },
        "continuous": {
            "a1": 3.852613, "b11": -0.006965, "b12": -0.000048,
            "a2": 4.934909, "b21": 0.007846, "b22": -0.000126,
        },
        "interior": (198.18, 51506.42),
        "eigenvalues": (-2.29, -5.57),
        "mape": (6.15, 1.25),
    },
    "ai_labor": {
        "regression": {
            "intercept1": 0.023710, "self_slope1": 0.000246, "cross_slope1": 0.000021,
            "intercept2": 0.011324, "self_slope2": 0.000041, "cross_slope2": -0.004431,
            "adj_r2_1": 0.9909, "adj_r2_2": 0.9989,
        },
        "discrete": {
            "alpha1": 42.1757, "self1": -0.010375, "cross1": -0.000888,
            "alpha2": 88.3049, "self2": -0.003656, "cross2": 0.391303,
        },
        "continuous": {
            "a1": 3.741844, "b11": -0.000943, "b12": -0.000081,
            "a2": 4.480796, "b21": 0.020083, "b22": -0.000187,
        },
        "interior": (186.78, 44021.09),
        "eigenvalues": (-2.52, -5.89),
        "mape": (6.33, 1.75),
    },
}

# Published first-/total-order sensitivity indices, ordered like PARAM_NAMES
# (a1, b11, b12, a2, b21, b22), per (subsystem, output).
PUBLISHED_SOBOL = {
    ("ai_physical", "x_star"): {
        "S1": (0.328, 0.079, 0.245, 0.080, 0.008, 0.250),
        "ST": (0.334, 0.085, 0.249, 0.083, 0.008, 0.254),
    },
    ("ai_physical", "y_star"): {
        "S1": (0.134, 0.031, 0.103, 0.174, 0.016, 0.534),
        "ST": (0.137, 0.033, 0.106, 0.175, 0.018, 0.542),
    },
    ("ai_labor", "x_star"): {
        "S1": (0.208, 0.002, 0.347, 0.056, 0.045, 0.333),
        "ST": (0.216, 0.001, 0.354, 0.056, 0.045, 0.344),
    },
    ("ai_labor", "y_star"): {
        "S1": (0.368, 0.002, 0.614, 0.001, 0.000, 0.007),
        "ST": (0.375, 0.002, 0.619, 0.001, 0.001, 0.008),
    },
}

# Half-widths, relative to |theta|, of the sampling box PUBLISHED_SOBOL was
# computed on.  The paper's text does not state this box; it is inferred from
# the tables themselves.  The documented +-10% box misses them by up to 0.15.
# Widening only the negative coefficients' intervals, by one ratio 0.135/0.10
# shared by both subsystems, reproduces all 48 entries (S1 and ST) within
# 0.013 at N = 1024.  Fitted to each subsystem's linearized variance shares
# separately, the ratio comes out at 1.34-1.35 for both.
PUBLISHED_SOBOL_HALF_WIDTH_POSITIVE = 0.10
PUBLISHED_SOBOL_HALF_WIDTH_NEGATIVE = 0.135


def published_sobol_bounds(cp: ContinuousParams) -> ParamBounds:
    """Box the published Sobol' tables imply around the baseline ``cp``."""
    theta = np.array(astuple(cp))
    rel = np.where(theta > 0, PUBLISHED_SOBOL_HALF_WIDTH_POSITIVE,
                   PUBLISHED_SOBOL_HALF_WIDTH_NEGATIVE)
    half = rel * np.abs(theta)
    return ParamBounds(lower=theta - half, upper=theta + half)


FIXTURES = {
    "ai_physical": ("cn_ai_physical.csv", "physical_capital"),
    "ai_labor": ("cn_ai_labor.csv", "labor"),
}

# Decimal places the source tables print each entry with (default 6).  Needed
# to bound the rounding already baked into the published values.
_PRINTED_DECIMALS = {
    ("ai_physical", "discrete", "alpha1"): 4,
    ("ai_physical", "discrete", "alpha2"): 4,
    ("ai_physical", "discrete", "self1"): 5,
    ("ai_labor", "discrete", "alpha1"): 4,
    ("ai_labor", "discrete", "alpha2"): 4,
}


def printed_half_ulp(key: str, layer: str, name: str) -> float:
    return 0.5 * 10.0 ** -_PRINTED_DECIMALS.get((key, layer, name), 6)


def _corner_interval(fn, inputs):
    """Range of fn over every corner of the inputs' printing intervals."""
    import itertools

    vals = []
    for corner in itertools.product(*[(v - h, v + h) for v, h in inputs]):
        vals.append(fn(*corner))
    return min(vals), max(vals)


def roundtrip_mismatches(key: str, rel: float = 0.01) -> list[str]:
    """Adjacent-layer consistency of the published coefficient table.

    Each derived entry is computed over the printing intervals of its inputs
    (a half unit in the last printed digit); the printed target must fall in
    that interval widened by ``rel`` of its magnitude plus its own half-ULP.
    Returns the entries that fail.
    """
    import math

    pub = PUBLISHED[key]
    reg, dis, con = pub["regression"], pub["discrete"], pub["continuous"]
    h = lambda layer, name: printed_half_ulp(key, layer, name)

    checks = []
    for i in ("1", "2"):
        ic, sc, cc = f"intercept{i}", f"self_slope{i}", f"cross_slope{i}"
        checks += [
            ("discrete", f"alpha{i}", lambda a: 1.0 / a, [(reg[ic], h("regression", ic))]),
            ("discrete", f"self{i}", lambda s, a: -s / a,
             [(reg[sc], h("regression", sc)), (reg[ic], h("regression", ic))]),
            ("discrete", f"cross{i}", lambda c, a: -c / a,
             [(reg[cc], h("regression", cc)), (reg[ic], h("regression", ic))]),
        ]
    scale = lambda a: math.log(a) / (a - 1.0)
    checks += [
        ("continuous", "a1", math.log, [(dis["alpha1"], h("discrete", "alpha1"))]),
        ("continuous", "b11", lambda s, a: s * scale(a),
         [(dis["self1"], h("discrete", "self1")), (dis["alpha1"], h("discrete", "alpha1"))]),
        ("continuous", "b12", lambda c, a: c * scale(a),
         [(dis["cross1"], h("discrete", "cross1")), (dis["alpha1"], h("discrete", "alpha1"))]),
        ("continuous", "a2", math.log, [(dis["alpha2"], h("discrete", "alpha2"))]),
        ("continuous", "b21", lambda c, a: c * scale(a),
         [(dis["cross2"], h("discrete", "cross2")), (dis["alpha2"], h("discrete", "alpha2"))]),
        ("continuous", "b22", lambda s, a: s * scale(a),
         [(dis["self2"], h("discrete", "self2")), (dis["alpha2"], h("discrete", "alpha2"))]),
    ]

    bad = []
    for layer, name, fn, inputs in checks:
        printed = pub[layer][name]
        lo, hi = _corner_interval(fn, inputs)
        slack = rel * abs(printed) + printed_half_ulp(key, layer, name)
        if not (lo - slack <= printed <= hi + slack):
            bad.append(f"{key}.{layer}.{name}: printed {printed} not in "
                       f"[{lo - slack:.6g}, {hi + slack:.6g}]")
    return bad


def config_for(key: str, **overrides) -> AnalysisConfig:
    fname, y_col = FIXTURES[key]
    defaults = dict(input_path=fixture_path(fname), y_col=y_col)
    defaults.update(overrides)
    return AnalysisConfig(**defaults)


@pytest.fixture(scope="session")
def injected_reports():
    """Full pipeline runs with the published baselines injected."""
    return {key: run_pipeline(config_for(key, params_from_paper=True))
            for key in FIXTURES}


@pytest.fixture(scope="session")
def fitted_reports():
    """Full pipeline runs with coefficients fitted from the fixtures."""
    return {key: run_pipeline(config_for(key)) for key in FIXTURES}
