"""Seeded synthetic paired series and their reference analysis.

Nothing here imports lvdyn: the series are made, and the expected fit,
equilibrium, stability and MAPE are computed, by the benchmark's own code, so
that ``fit_batch`` checks lvdyn against an independent computation.
"""

from __future__ import annotations

import math
import random

import numpy as np

HEADER = "year,ai_capital,physical_capital"
#: Series lengths in years; a batch holds one series of each.
LENGTHS = range(8, 41)


def series_csv(rng: random.Random, n: int) -> str:
    """One paired annual series of ``n`` years as CSV text.

    Both factors follow a Beverton-Holt (Leslie) map with a weak cross
    effect and 1-3% multiplicative noise, starting well below their
    carrying capacities, so the series grow and saturate like the bundled
    case study.  Values carry two decimals, as in the bundled fixtures.
    """
    r1, k1 = rng.uniform(0.3, 0.9), rng.uniform(150.0, 600.0)
    r2, k2 = rng.uniform(0.03, 0.12), rng.uniform(4e4, 9e4)
    c1, c2 = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
    noise = rng.uniform(0.01, 0.03)
    x, y = rng.uniform(5.0, 25.0), rng.uniform(0.3, 0.6) * k2
    year = rng.randint(1960, 2000)
    rows = [HEADER]
    for k in range(n):
        rows.append(f"{year + k},{x:.2f},{y:.2f}")
        x, y = (x * (1 + r1) / (1 + r1 * (x / k1 + c1 * y / k2)) * (1 + rng.gauss(0, noise)),
                y * (1 + r2) / (1 + r2 * (y / k2 + c2 * x / k1)) * (1 + rng.gauss(0, noise)))
    return "\n".join(rows) + "\n"


def make_batches(seed: int, count: int) -> list[list[str]]:
    """``count`` batches, each with one series of every length in LENGTHS.

    Every batch, whatever the seed, holds the same number of years, so a
    batch is the same amount of work and only the values differ.
    """
    rng = random.Random(seed)
    return [[series_csv(rng, n) for n in LENGTHS] for _ in range(count)]


def parse(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


def _kind(b12: float, b21: float) -> str:
    s12, s21 = np.sign(b12), np.sign(b21)
    if s12 == 0 and s21 == 0:
        return "neutralism"
    if s12 > 0 and s21 > 0:
        return "pure_competition"
    if s12 < 0 and s21 < 0:
        return "mutualism"
    if s12 * s21 < 0:
        return "predator_prey"
    return "amensalism" if (s12 > 0 or s21 > 0) else "commensalism"


def reference(text: str) -> dict:
    """Expected analysis of one series, following the paper's method.

    Slopes of x(k)/x(k+1) on (x(k), y(k)) come from the through-origin
    normal equations, the intercept is half the mean absolute slope-only
    residual, and the discrete map and ODE coefficients follow from it.
    """
    xs, ys = parse(text)
    X = np.column_stack([xs[:-1], ys[:-1]])
    disc = []
    for resp, own in ((xs[:-1] / xs[1:], 0), (ys[:-1] / ys[1:], 1)):
        slopes = np.linalg.solve(X.T @ X, X.T @ resp)
        alpha = 1.0 / float(np.mean(np.abs(resp - X @ slopes)) / 2.0)
        disc.append((alpha, -float(slopes[own]) * alpha, -float(slopes[1 - own]) * alpha))
    (al1, self1, cross1), (al2, self2, cross2) = disc
    s1, s2 = math.log(al1) / (al1 - 1.0), math.log(al2) / (al2 - 1.0)
    a1, b11, b12 = math.log(al1), self1 * s1, cross1 * s1
    a2, b21, b22 = math.log(al2), cross2 * s2, self2 * s2

    den = b12 * b21 - b11 * b22
    xe, ye = (a1 * b22 - b12 * a2) / den, (b11 * a2 - a1 * b21) / den
    jac = np.array([[a1 + 2 * b11 * xe + b12 * ye, b12 * xe],
                    [b21 * ye, a2 + b21 * xe + 2 * b22 * ye]])
    eig = sorted(np.linalg.eigvals(jac).astype(complex), key=lambda z: (-z.real, -z.imag))

    def step(x, y):
        return (al1 * x / (1.0 - self1 * x - cross1 * y),
                al2 * y / (1.0 - self2 * y - cross2 * x))

    one = [step(x, y) for x, y in zip(xs[:-1], ys[:-1])]
    free, state = [], (xs[0], ys[0])
    for _ in range(len(xs) - 1):
        state = step(*state)
        free.append(state)

    def mape(pred):
        p = np.array(pred)
        return [float(np.mean(np.abs((obs - p[:, i]) / obs)) * 100.0)
                for i, obs in enumerate((xs[1:], ys[1:]))]

    return {
        "continuous": [a1, b11, b12, a2, b21, b22],
        "kind": _kind(b12, b21),
        "interior": [xe, ye],
        "eigenvalues": [[z.real, z.imag] for z in eig],
        "mape_one_step": mape(one),
        "mape_free_running": mape(free),
    }
