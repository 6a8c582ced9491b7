"""Property test of the CLI: every run ends in a documented exit code.

``cli.main`` runs in-process on drawn CSV series, flags and report files.
It must return 0, 2, 3 or 4 and raise nothing; under the suite's
``error::RuntimeWarning`` filter a numpy warning that escapes counts as a
raise.  A numerical failure (exit 3) with an output directory must leave an
incomplete ``report.json`` that names the stage that failed, which is never
the write itself.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from lvdyn.baselines import BASELINES
from lvdyn.cli import main

HEADER = "year,ai_capital,physical_capital"

#: Series that exited 3 from stage 'write', with nothing written, because a
#: non-finite value reached report.json: (command, rows, flags, the stage
#: that made the value).
NON_FINITE_REPRODUCERS = [
    # integrate_ode stepped 1e195 to NaN states.
    ("phase", [(2016, "1e195", "3"), (2017, "3", "3"), (2018, "3", "3"), (2019, "3", "3")],
     ["--params-from-paper"], "trajectories"),
    # one_step_predictions mapped the observed 1e308 to inf.
    ("fit", [(2016, "3", "3"), (2017, "1e308", "3"), (2018, "3", "3"), (2019, "3", "3")],
     ["--params-from-paper"], "mape"),
    # The sums of squares of the ratio regression overflowed to NaN.
    ("fit", [(2016, "3.14", "418"), (2017, "13.6", "1e-5"), (2018, "1e-160", "1e-5"),
             (2019, "11.5", "828"), (2020, "12.97", "1e308")], [], "fit"),
]


def write_series(path: Path, rows) -> Path:
    path.write_text("\n".join([HEADER, *(f"{y},{x},{v}" for y, x, v in rows)]) + "\n")
    return path


def run_cli(command: str, rows, flags: list[str], out: bool) -> None:
    """Run one drawn command in a fresh directory and check its outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = [command, "--input", str(write_series(tmp / "data.csv", rows)), *flags]
        if out:
            args += ["--out", str(tmp / "out")]
        code = main(args)
        assert code in (0, 2, 3, 4)
        if code == 3 and out:
            report = json.loads((tmp / "out" / "report.json").read_text())
            assert report["incomplete"] is True
            assert report["failed_stage"] != "write"


def run_report(content: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(content)
        assert main(["report", "--report", str(path)]) in (0, 2, 3, 4)


@pytest.mark.parametrize("command,rows,flags,stage", NON_FINITE_REPRODUCERS,
                         ids=[stage for *_, stage in NON_FINITE_REPRODUCERS])
def test_non_finite_value_fails_typed_at_the_stage_that_made_it(tmp_path, capsys, command,
                                                                 rows, flags, stage):
    data = write_series(tmp_path / "data.csv", rows)
    code = main([command, "--input", str(data), *flags, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: stage '{stage}': ")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["incomplete"], report["failed_stage"]) == (True, stage)


def test_cli_exits_with_a_documented_code_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # Any positive float, and now and then one of the magnitudes of real
    # data, so that some fits succeed and the later stages run.
    positive = st.one_of(st.floats(5e-324, 1.7e308), st.floats(5e-324, 1.7e308),
                         st.floats(0.1, 1e5)).map(repr)
    odd = st.one_of(st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "1e309", "abc", ""]),
                    st.floats(max_value=-5e-324).map(repr))
    # Most series are all positive, so that most runs get past loading.
    mixed = st.one_of(positive, positive, positive, odd)

    @st.composite
    def pipeline_runs(draw):
        n = draw(st.integers(4, 9))
        start = draw(st.integers(1990, 2020))
        value = draw(st.sampled_from([positive, positive, positive, mixed]))
        rows = [(start + i, draw(value), draw(value)) for i in range(n)]
        flags = ["--sobol-n", "64", "--grid-n", str(draw(st.integers(2, 8)))]
        if draw(st.booleans()):
            flags += ["--params-from-paper", "--baseline", draw(st.sampled_from(list(BASELINES)))]
        fraction = draw(st.one_of(st.none(), st.sampled_from(
            ["0", "1", "1e-300", "0.5", "0.999999", "-0.1", "nan", "inf"])))
        if fraction is not None:
            flags += ["--fraction", fraction]
        if draw(st.booleans()):
            flags += ["--format", "json", "--format", "csv"]
        command = draw(st.sampled_from(["fit", "analyze", "phase", "sobol"]))
        return command, rows, flags, draw(st.booleans())

    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
    json_value = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=8)
    sections = st.dictionaries(
        st.sampled_from(["parameters", "interaction", "equilibria", "stability", "mape",
                         "sobol", "incomplete", "failed_stage", "error"]),
        json_value, max_size=4)
    report_files = st.one_of(
        st.text(max_size=20),
        json_value.map(json.dumps),
        sections.map(lambda d: json.dumps({**d, "provenance": {"package": "lvdyn"}})))

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(run=st.one_of(pipeline_runs(), pipeline_runs(), report_files.map(str)))
    def check(run):
        if isinstance(run, str):
            run_report(run)
        else:
            run_cli(*run)

    for command, rows, flags, _ in NON_FINITE_REPRODUCERS:
        check = hyp.example(run=(command, rows, flags, True))(check)
    check()
