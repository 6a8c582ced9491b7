"""Every output of the golden CLI runs matches tests/golden/manifest.json.

The runs and the record script are in tests/golden/record.py.  A Python or
numpy version other than the recorded one does not skip the test: the
digests are compared all the same, and a difference names both versions.
"""

from __future__ import annotations

from golden import record


def test_cli_outputs_match_the_golden_manifest():
    computed = record.compute()
    assert record.differences(record.load(), computed) == []
    # The kernels' parts must not show: pinned to one CPU, a run writes the
    # same bytes as the run it repeats.
    runs = computed["runs"]
    for name, (_, _, cpus) in record.RUNS.items():
        if cpus is not None:
            twin = {k: v for k, v in runs[name.removesuffix("-one-cpu")].items() if k != "argv"}
            assert {k: v for k, v in runs[name].items() if k != "argv"} == twin
