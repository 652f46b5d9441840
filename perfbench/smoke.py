"""Smoke test of the benchmark itself, at a tiny run length.

    python3 perfbench/smoke.py

Runs every workload with `--seconds 1`, untraced and traced, and checks that
each prints every metric `BENCHMARK.json` names with its unit and passes its
output checks.  Then checks that the cross-checks fail when they should: a
`desk-tcp2` run whose distributed chain uses 4 reduction blocks (the serial
reference uses 2) must report `correct: false`, and the benchmark must exit
non-zero without a result when the program's sources are absent.  Takes
about a minute on a 2-core host.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as fh:
        bench = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, lines = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)])
            label = f"{workload} --trace {trace}"
            expect(rc == 0 and bool(lines), f"{label}: exits 0 with output")
            if rc != 0 or not lines:
                continue
            result = result_of(lines)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: output checks pass")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            expect(printed == wanted, f"{label}: prints every declared metric with its unit")
            if trace == 0:
                expect(all(result["metrics"][name]["value"] > 0 for name in wanted),
                       f"{label}: no end-to-end metric reads 0")

    rc, lines = run(["--workload", "desk-tcp2", "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--tcp-blocks", "4"])
    forced = result_of(lines) if rc == 0 and lines else None
    expect(forced is not None and not forced["correct"]
           and forced["failed"] == forced["attempted"],
           "desk-tcp2 with 4 reduction blocks fails the digest check")

    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(["--workload", "small-serial", "--seed", "7", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
        expect(rc != 0 and not lines, "without the program's sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
