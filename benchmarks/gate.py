"""Correctness gate: is what lvdyn produced what it produced at the recorded commit?

Fixture outputs are compared byte for byte through SHA-256 digests.  The one
exception is the Saltelli sample accounting (``accepted_count`` and
``rejected_count`` in report.json): those lines count rows the estimators
never read, so they are reported as per-layer counts and masked here.
Sobol' results are compared to nine significant digits, and synthetic fits
to an independent computation (``synth.reference``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_ACCOUNTING = re.compile(rb'^[ \t]*"(?:accepted_count|rejected_count)": -?\d+,?\r?\n', re.M)


class Mismatch(Exception):
    """An op completed but its output differs from the expected output."""


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = _ACCOUNTING.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """Digests of report.json, sobol.csv and phase/*.csv under an output dir."""
    files = [out_dir / "report.json", out_dir / "sobol.csv", *sorted(out_dir.glob("phase/*.csv"))]
    return {p.relative_to(out_dir).as_posix(): file_digest(p) for p in files if p.is_file()}


def check_digests(actual: dict[str, str], expected: dict[str, str]) -> None:
    bad = sorted(k for k in expected.keys() | actual.keys() if actual.get(k) != expected.get(k))
    if bad:
        raise Mismatch(f"output files differ from the recorded digests: {bad}")


def sobol_signature(res) -> dict:
    """The gated part of a SobolResult, each number to 9 significant digits."""
    def g(a):
        return [[f"{float(v):.9g}" for v in row] for row in a]
    return {
        "first_order": g(res.first_order),
        "total_order": g(res.total_order),
        "total_variance": [f"{float(v):.9g}" for v in res.total_variance],
        "retained_triples": int(res.retained_triples),
    }


def check_sobol(res, expected: dict) -> None:
    got = sobol_signature(res)
    bad = [k for k in expected if got.get(k) != expected[k]]
    if bad:
        raise Mismatch(f"Sobol' result differs from the recorded one in {bad}")


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    # Reports round to 9 significant digits; 1e-8 leaves room for that.
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-9 * scale + 1e-300)


def check_fit(report: dict, ref: dict) -> None:
    """Compare a fit_batch report dict with ``synth.reference`` output."""
    bad = []
    got_cont = list(report["parameters"]["continuous"].values())
    if not all(_close(a, b) for a, b in zip(got_cont, ref["continuous"])):
        bad.append("continuous")
    if report["interaction"]["kind"] != ref["kind"]:
        bad.append("interaction")
    if not all(_close(a, b) for a, b in zip(report["equilibria"]["interior"], ref["interior"])):
        bad.append("interior")
    scale = max(abs(complex(*z)) for z in ref["eigenvalues"])
    got_eig = [(z["re"], z["im"]) for z in report["stability"]["eigenvalues"]]
    if not all(_close(g, r, scale) for pair, want in zip(got_eig, ref["eigenvalues"])
               for g, r in zip(pair, want)):
        bad.append("eigenvalues")
    for key, name in (("one_step_ahead", "mape_one_step"), ("free_running", "mape_free_running")):
        if not all(_close(a, b) for a, b in zip(report["mape"][key], ref[name])):
            bad.append(name)
    if bad:
        raise Mismatch(f"fit differs from the reference computation in {bad}")
