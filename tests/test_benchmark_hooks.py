"""The benchmark's traced run still finds the spans it hooks in `src/`.

`perfbench/tracer.py` wraps the shard kernels by name and reads their
results.  A refactor that renames a kernel, or changes what it returns,
would otherwise break only the benchmark's traced runs.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_small_serial_run_reports_the_shard_kernels():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "small-serial",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    for name in (
        "sampler.shard.mu_stats.ms_per_iter",
        "sampler.shard.move_stats.ms_per_iter",
        "sampler.shard.move_stats.useful_row_frac",
    ):
        assert result["metrics"][name]["value"] > 0, name
