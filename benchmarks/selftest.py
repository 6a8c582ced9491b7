"""Self-tests of the benchmark's own machinery.

    python3 -m pytest benchmarks/selftest.py

The file name keeps it out of the package's test collection, which only
looks under tests/.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import checkout
import gate
import synth
import tracing
import workloads
from tracing import Span
from worker import tail

checkout.lvdyn_origin()


def test_same_seed_gives_byte_identical_series():
    assert synth.make_batches(7, 2) == synth.make_batches(7, 2)


def test_different_seeds_give_different_series():
    a, b = synth.make_batches(7, 2), synth.make_batches(8, 2)
    assert all(x != y for xs, ys in zip(a, b) for x, y in zip(xs, ys))


def test_series_meet_the_input_contract():
    for batch in synth.make_batches(3, 2):
        lengths = [len(text.splitlines()) - 1 for text in batch]
        assert lengths == list(synth.LENGTHS)
    for text in synth.make_batches(3, 2)[1]:
        lines = text.splitlines()
        assert lines[0] == synth.HEADER
        years = [int(line.split(",")[0]) for line in lines[1:]]
        assert years == list(range(years[0], years[0] + len(years)))
        xs, ys = synth.parse(text)
        assert (xs > 0).all() and (ys > 0).all()


def _tree() -> list[Span]:
    # op [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; a probe [9, 9.5].
    return [Span("pipeline.op", 0.0, 10.0, None, 0),
            Span("pipeline.run_pipeline", 1.0, 4.0, 0, 0),
            Span("pipeline.fit_details", 2.0, 3.0, 1, 0),
            Span("pipeline.integrate_ode", 5.0, 9.0, 0, 0, counts={"rk4_steps": 100}),
            Span(tracing.PROBE_SPAN, 9.0, 9.5, 0, 0)]


def test_self_time_is_span_minus_children():
    assert tracing.self_times(_tree()) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    by_name = tracing.self_time_by_name(_tree() + _tree(), n_ops=2)
    assert by_name["pipeline.op"] == pytest.approx(2.5)


def test_layer_metrics_from_a_hand_built_tree():
    spans = _tree() + [Span("pipeline.op", 10.0, 12.0, None, 1),
                       Span("pipeline.fit_details", 10.5, 11.5, 5, 1, error=True)]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["pipeline.orchestrate_s"] == pytest.approx(1.0)     # 2.0 / 2 ops
    assert m["fitting.fit_s"] == pytest.approx(1.0)              # (1.0 + 1.0) / 2
    assert m["dynamics.integrate_s"] == pytest.approx(2.0)
    assert m["dynamics.rk4_steps"] == pytest.approx(50.0)
    assert m["fitting.errors"] == 1 and m["pipeline.errors"] == 0


def test_an_error_counts_once_in_the_layer_where_it_surfaced():
    from lvdyn import pipeline

    tracer = tracing.Tracer()
    tracer.install(["pipeline.load_series", "pipeline.run_pipeline"])
    try:
        with pytest.raises(Exception):
            with tracer.span("pipeline.op"):
                pipeline.run_pipeline(pipeline.AnalysisConfig(input_path="no/such.csv"))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, n_ops=1)
    assert m["pipeline.errors"] == 1
    assert not hasattr(pipeline.load_series, "__wrapped__")     # restored


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail(list(range(1, 21))) == (50.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    root = checkout.ROOT
    subprocess.run([sys.executable, "-m", "lvdyn.cli", *workloads.CLI_COMMANDS["fit"],
                    "--out", str(out)], cwd=root, env=workloads.subprocess_env(root),
                   check=True, stdout=subprocess.DEVNULL)
    return out


def test_gate_accepts_the_recorded_fit_outputs(fit_output):
    gate.check_digests(gate.output_digests(fit_output), gate.load_expected()["cli"]["fit"])


def test_gate_rejects_an_altered_report(fit_output, tmp_path):
    report = (fit_output / "report.json").read_text(encoding="utf-8")
    altered = report.replace('"seed": 1024', '"seed": 1025', 1)
    assert altered != report
    (tmp_path / "report.json").write_text(altered, encoding="utf-8")
    with pytest.raises(gate.Mismatch):
        gate.check_digests(gate.output_digests(tmp_path), gate.load_expected()["cli"]["fit"])


def test_gate_ignores_only_the_sample_accounting_lines():
    base = b'{\n  "n_base": 1024,\n  "accepted_count": 14336,\n  "rejected_count": 0,\n}\n'
    fewer_rows = base.replace(b"14336", b"8192")
    assert gate._ACCOUNTING.sub(b"", base) == gate._ACCOUNTING.sub(b"", fewer_rows)
    other = base.replace(b"1024", b"2048")
    assert gate._ACCOUNTING.sub(b"", base) != gate._ACCOUNTING.sub(b"", other)


def test_fit_check_rejects_an_altered_result(tmp_path):
    from lvdyn import pipeline

    text = synth.make_batches(11, 1)[0][0]
    ref = synth.reference(text)
    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8")
    report = pipeline.run_pipeline(pipeline.AnalysisConfig(input_path=path),
                                   stages=workloads.FIT_STAGES).to_dict()
    gate.check_fit(report, ref)
    report["mape"]["free_running"][0] *= 1.001
    with pytest.raises(gate.Mismatch):
        gate.check_fit(report, ref)
