"""The chain's fixed cost and a fit's memory, counted rather than timed.

Every measurement repeats exactly from run to run; a time on a shared host
does not.  `TestFixedCost` (tests/test_sampler.py) and
`TestDistributedFixedCost` (tests/test_cluster.py) bound the call counts;
`TestShardLayout` (tests/test_sampler.py) checks the row state's bytes and
`TestTableIO` (tests/test_datagen.py) bounds the table reader's traced peak.
A fresh interpreter's peak RSS after a default-prior serial fit is printed
too, beside the scipy modules that fit loaded; no test asserts the RSS,
which depends on the host's libraries.  Nor does any test assert the traced
bytes a kept tree costs, which depend on the Python and numpy versions.  Run
from the repository root to print the figures:

    PYTHONPATH=src python tests/fixed_cost.py
"""
from __future__ import annotations

import cProfile
import collections
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np

from bartgrid.cluster import run_cluster_inprocess
from bartgrid.datagen import read_table, write_table
from bartgrid.sampler import FitSettings, ShardData, run_serial

SERIAL_ITERATIONS = 5000


def serial_calls_per_iteration() -> float:
    """Calls of Python functions per iteration of acceptance 05's chain
    (m=1, n=2), under cProfile.  Profile entries whose code is a builtin's
    name are not counted; the rest are counted per code object, since every
    dataclass __init__ shares one pstats key."""
    x = np.array([[0.25], [0.75]])
    y = np.array([0.0, 1.0])
    settings = FitSettings(
        m=1, draws=SERIAL_ITERATIONS, burn=0, thin=SERIAL_ITERATIONS, seed=405,
        min_leaf=1, numcut=1,
    )
    run_serial(x, y, FitSettings(m=1, draws=2, burn=0, min_leaf=1, numcut=1))  # warm-up: imports
    profile = cProfile.Profile()
    profile.runcall(run_serial, x, y, settings)
    calls = sum(e.callcount for e in profile.getstats() if not isinstance(e.code, str))
    return calls / SERIAL_ITERATIONS


def distributed_per_tree() -> tuple[int, int, dict[str, dict[str, float]]]:
    """(leaves, tree updates, figures) of a 2-worker in-process chain (n=400,
    d=3, m=10, 60 draws).  `leaves` sums each tree update's terminal count
    after its move.  `figures` maps "master" and each worker thread's name to
    its Python calls and socket recv and sendall calls per tree update."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (400, 3))
    y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.standard_normal(400)
    settings = FitSettings(
        m=10, draws=60, burn=10, thin=5, seed=4, min_leaf=2, numcut=25, reduction_blocks=2,
    )
    run_cluster_inprocess(x, y, settings, workers=2)  # warm-up: imports and caches
    master = threading.current_thread().name
    counts = collections.defaultdict(collections.Counter)

    def profile(frame, event, arg):
        if event == "call":
            counts[threading.current_thread().name]["calls"] += 1
        elif event == "c_call" and arg.__name__ in ("recv", "sendall"):
            counts[threading.current_thread().name][arg.__name__] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = run_cluster_inprocess(x, y, settings, workers=2)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    trees = settings.draws * settings.m
    leaves = round(float(result.mean_b.sum()) * settings.m)
    figures = {
        "master" if thread == master else thread: {k: v / trees for k, v in sorted(c.items())}
        for thread, c in counts.items()
    }
    return leaves, trees, figures


def row_state(n: int, m: int) -> tuple[np.dtype, int]:
    """(dtype of `order`, bytes of `order` plus the leaf labels) of a fresh
    n-row shard of m trees."""
    shard = ShardData(np.zeros((1, n), dtype=np.uint8), np.zeros(n), m, [(0, n)])
    return shard.order.dtype, shard.order.nbytes + sum(label.nbytes for label in shard.label)


def read_table_peak(path: str, rows: int, columns: int) -> tuple[int, int]:
    """(traced peak, bytes returned) of `read_table(path, "y")` on a table of
    `rows` rows of `columns` uniform cells (the response, then the features)
    that `write_table` first writes at `path`."""
    rng = np.random.default_rng(0)
    write_table(path, ["y"] + [f"x{j}" for j in range(columns - 1)],
                rng.uniform(-1, 1, (rows, columns)).tolist())
    tracemalloc.start()
    try:
        x, y, _names = read_table(path, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, x.nbytes + y.nbytes


def fresh_fit_footprint() -> tuple[float, list[str]]:
    """(peak RSS in MB, scipy modules loaded) of a fresh interpreter that
    imports the package and runs a default-prior serial fit: n=1,000, d=5,
    m=20, 20 draws.  A child's ru_maxrss starts at its parent's high-water
    mark when it is spawned, so call this before the parent grows."""
    code = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from bartgrid.sampler import FitSettings, run_serial\n"
        "x = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 5))\n"
        "run_serial(x, np.sin(3.0 * x[:, 0]) + x[:, 1], FitSettings(m=20, draws=20, burn=5))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout.split("\n")
    return int(out[0]) / 1024, out[1].split()


def kept_tree_bytes(draws: int = 200, m: int = 200) -> float:
    """Traced bytes per kept tree of a serial fit (n=1,000, d=5, m trees,
    `draws` kept draws after 50 of burn-in): the drop in tracemalloc's
    current size when the fit's kept sigmas and trees are released."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (1000, 5))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] + 0.1 * rng.standard_normal(1000)
    tracemalloc.start()
    try:
        result = run_serial(x, y, FitSettings(m=m, draws=50 + draws, burn=50, seed=1))
        before = tracemalloc.get_traced_memory()[0]
        result.kept_sigmas = result.kept_trees = None
        released = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return released / (draws * m)


def main() -> None:
    rss_mb, scipy_modules = fresh_fit_footprint()
    print(f"fresh serial fit: ru_maxrss {rss_mb:.1f} MB, {len(scipy_modules)} scipy modules "
          f"loaded (1000 rows, m=20, 20 draws)")
    print(f"serial: {serial_calls_per_iteration():.2f} Python calls per iteration")
    leaves, trees, figures = distributed_per_tree()
    for thread, per_tree in sorted(figures.items()):
        print(f"{thread}: " + ", ".join(f"{v:.2f} {k}" for k, v in per_tree.items()) + " per tree")
    print(f"leaves: {leaves} over {trees} tree updates, {leaves / trees:.2f} per tree")
    n, m = 40_000, 50
    dtype, nbytes = row_state(n, m)
    print(f"row state: {nbytes / (n * m):.2f} bytes per row and tree ({n} rows, {m} trees, "
          f"order {dtype})")
    with tempfile.TemporaryDirectory() as tmp:
        peak, returned = read_table_peak(os.path.join(tmp, "t.csv"), 40_000, 11)
    print(f"read_table: traced peak {peak / 1e6:.2f} MB, {peak / returned:.2f} x the "
          f"{returned / 1e6:.2f} MB returned (40000 rows, 11 columns)")
    print(f"kept draws: {kept_tree_bytes():.0f} traced bytes per kept tree (1000 rows, m=200, "
          f"200 kept draws)")


if __name__ == "__main__":
    main()
