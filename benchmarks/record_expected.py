"""Record the outputs the correctness gate compares against.

    python3 benchmarks/record_expected.py

Run from the root of a checkout of the reference commit.  Writes
benchmarks/expected.json: the digests of every fixture run the workloads
make, the gated Sobol' numbers for every (parameter set, sampling seed) pair
``sobol_large_n`` can draw, and the commit and library versions that
produced them.  Re-record only when a change to lvdyn's outputs is intended,
and say in that change which outputs moved and why.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checkout
import gate
import workloads


def main() -> int:
    checkout.guard(checkout.lvdyn_origin())
    root = checkout.ROOT
    os.chdir(root)
    from lvdyn import pipeline, sensitivity

    work = root / ".bench_work" / "record"
    env = workloads.subprocess_env(root)
    try:
        cli = {}
        for kind, argv in workloads.CLI_COMMANDS.items():
            out = work / kind
            subprocess.run([sys.executable, "-m", "lvdyn.cli", *argv, "--out", str(out)],
                           cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
            cli[kind] = gate.output_digests(out)
        phase = {}
        for key in workloads.PHASE_KEYS:
            out = work / key.replace("/", "_")
            pipeline.run_pipeline(workloads.phase_config(key, out), stages=workloads.PHASE_STAGES)
            phase[key] = gate.output_digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sobol = {}
    for key, cp in sorted(workloads.sobol_param_sets().items()):
        for seed in workloads.SOBOL_SEEDS:
            res = sensitivity.analyze_sensitivity(cp, workloads.SOBOL_FRACTION,
                                                  workloads.SOBOL_N, seed)
            sobol[f"{key}/{seed}"] = gate.sobol_signature(res)
    prov = checkout.provenance(root)
    expected = {"recorded_with": {k: prov[k] for k in ("git_sha", "src_sha256", "python",
                                                        "numpy", "scipy")},
                "cli": cli, "phase": phase, "sobol": sobol}
    gate.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {gate.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
