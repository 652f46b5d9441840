"""Scalability measurement and modeling for the distributed sampler.

Covers the arithmetic (speedup, efficiency), runtime linear models over the
algorithm's complexity terms with backward elimination, expected efficiency
averaged over the tree prior's terminal-node count, isoefficiency solving,
and a wall-clock benchmark harness that drives real master/worker runs.
"""
from __future__ import annotations

import functools
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .sampler import FitSettings, run_serial, split_prior_prob


@dataclass(slots=True)
class TimingRecord:
    """One measured cell: problem size, layout, wall seconds, mean leaf count.

    `p_plus_1` counts the master among the cores (serial runs report 1).
    """

    n: int
    m: int
    p_plus_1: int
    iterations: int
    seconds: float
    b_bar: float

    def __post_init__(self):
        if min(self.n, self.m, self.p_plus_1, self.iterations) < 1:
            raise ValueError("timing record fields must be positive")
        if self.seconds <= 0 or self.b_bar < 1:
            raise ValueError("timing record needs positive seconds and b_bar >= 1")


def speedup_efficiency(t_seq: float, t_par: float, p_plus_1: int) -> tuple[float, float]:
    """S = t_seq / t_par and E = S / (p+1)."""
    if t_seq <= 0 or t_par <= 0:
        raise ValueError("times must be positive")
    if p_plus_1 < 1:
        raise ValueError("core count must be >= 1")
    s = t_seq / t_par
    return s, s / p_plus_1


# ---------------------------------------------------------------------------
# Runtime linear models
# ---------------------------------------------------------------------------

# Candidate regressors of the serial runtime model (no intercept).  A term's
# name lists the quantities it multiplies, left to right: "mnb" is m * n * b.
SERIAL_TERMS = ("m", "n", "mn", "mb", "mnb")

# Candidate regressors of the parallel runtime model; nt = n/p rows per worker.
PARALLEL_TERMS = (
    "m", "nt", "p", "b", "mnt", "mp", "mb", "ntp", "ntb", "pb", "mntb", "mpb", "mntp", "mntpb",
)

# Terms surviving the order-level simplification (unit-coefficient analysis).
SERIAL_UNIT_TERMS = ("mn", "mb")
PARALLEL_UNIT_TERMS = ("mnt", "mp", "mb", "mpb")

_QUANTITY = re.compile("nt|[mnpb]")


def _term_values(terms: Sequence[str], n, m, p, b) -> list:
    """Each term's value from scalars or arrays of n, m, p and b.

    nt = n/p is computed only when a term names it, so serial terms may pass p = 0.
    """
    quantities = {"n": n, "m": m, "p": p, "b": b}
    if any("nt" in term for term in terms):
        quantities["nt"] = n / p
    return [
        functools.reduce(operator.mul, map(quantities.get, _QUANTITY.findall(term)))
        for term in terms
    ]


@dataclass
class RuntimeModel:
    """A fitted (or unit-coefficient) runtime model over named terms."""

    target: str  # 'serial' | 'parallel'
    terms: list[str]
    coefficients: np.ndarray
    r_squared: float = 1.0
    rmse: float = 0.0

    def predict(
        self, *, n: float, m: float, p: float = 0.0, b: float | np.ndarray
    ) -> float | np.ndarray:
        """Predicted seconds: a float for a scalar `b`, an array shaped like an array `b`.

        Each element of an array prediction has the bits of the scalar one.
        """
        values = _term_values(self.terms, n, m, p, b)
        total = sum(coef * value for coef, value in zip(self.coefficients, values))
        return float(total) if np.ndim(b) == 0 else np.broadcast_to(total, np.shape(b))

    @classmethod
    def unit(cls, target: str) -> "RuntimeModel":
        names = list(SERIAL_UNIT_TERMS if target == "serial" else PARALLEL_UNIT_TERMS)
        return cls(target, names, np.ones(len(names)))


def _design_matrix(records: Sequence[TimingRecord], terms: Sequence[str]) -> np.ndarray:
    # float64 from the start: a product of two integer fields rounds once,
    # like the exact integer product converted, and cannot wrap.
    n, m, p_plus_1, b = (
        np.array([getattr(rec, name) for rec in records], dtype=np.float64)
        for name in ("n", "m", "p_plus_1", "b_bar")
    )
    return np.column_stack(_term_values(terms, n, m, p_plus_1 - 1, b))


def _ols(design: np.ndarray, y: np.ndarray, terms: Sequence[str]) -> tuple[np.ndarray, float]:
    scale = np.linalg.norm(design, axis=0)
    if np.any(scale == 0.0):
        dead = [terms[i] for i in np.nonzero(scale == 0.0)[0]]
        raise ValueError(f"degenerate regressors (all zero): {dead}")
    coef_scaled, _res, rank, _sv = np.linalg.lstsq(design / scale, y, rcond=None)
    if rank < design.shape[1]:
        # Identify a collinear subset by checking which columns barely change
        # the rank when dropped.
        collinear = []
        for i in range(design.shape[1]):
            reduced = np.delete(design, i, axis=1)
            if np.linalg.matrix_rank(reduced) == rank:
                collinear.append(terms[i])
        raise ValueError(f"rank-deficient design; collinear terms: {collinear}")
    coefs = coef_scaled / scale
    resid = y - design @ coefs
    dof = max(len(y) - design.shape[1], 1)
    return coefs, math.sqrt(float(resid @ resid) / dof)


def fit_runtime_model(records: Sequence[TimingRecord], target: str) -> RuntimeModel:
    """OLS on the full term set, then backward elimination on RMSE.

    RMSE is the degrees-of-freedom-adjusted residual error sqrt(RSS/(n-k)).
    Each step removes the term whose removal leaves the lowest RMSE, as long
    as that RMSE stays within 1.5 times the lowest RMSE on the path so far,
    so the slack cannot compound from step to step.  A term that actually
    carries signal blows RMSE up by far more than the slack when removed,
    while a noise-fitting term moves it only a few percent, so the rule
    prunes reliably where a strict no-increase rule stalls on terms whose
    in-sample F-statistic happens to exceed one.
    """
    if target not in ("serial", "parallel"):
        raise ValueError("target must be 'serial' or 'parallel'")
    if target == "parallel" and any(rec.p_plus_1 < 2 for rec in records):
        raise ValueError("parallel model needs records with at least one worker")
    terms = list(SERIAL_TERMS if target == "serial" else PARALLEL_TERMS)
    if len(records) < len(terms) + 2:
        raise ValueError(f"need at least {len(terms) + 2} records to fit {len(terms)} terms")
    y = np.array([rec.seconds for rec in records])
    coefs, rmse = _ols(_design_matrix(records, terms), y, terms)
    # Absolute floor keeps the ratio test meaningful when the fit is exact
    # and RMSE sits at rounding-noise level.
    floor = 1e-10 * math.sqrt(float(np.mean(y * y)))
    best_rmse = rmse
    while len(terms) > 1:
        best = None
        for i in range(len(terms)):
            reduced = terms[:i] + terms[i + 1 :]
            try:
                cand_coefs, cand_rmse = _ols(_design_matrix(records, reduced), y, reduced)
            except ValueError:
                continue
            if best is None or cand_rmse < best[1]:
                best = (reduced, cand_rmse, cand_coefs)
        if best is None or best[1] > best_rmse * 1.5 + floor:
            break
        terms, rmse, coefs = best[0], best[1], best[2]
        best_rmse = min(best_rmse, rmse)
    fitted = _design_matrix(records, terms) @ coefs
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RuntimeModel(target, list(terms), coefs, r2, rmse)


# ---------------------------------------------------------------------------
# Expected efficiency over the tree prior
# ---------------------------------------------------------------------------

def simulate_prior_b(alpha: float, beta: float, rng: np.random.Generator) -> int:
    """Terminal-node count of one tree drawn from the branching prior.

    A node at depth d splits with the sampler's prior probability
    `split_prior_prob(d, alpha, beta)`.
    """
    count = 0
    stack = [0]
    while stack:
        depth = stack.pop()
        if rng.random() < split_prior_prob(depth, alpha, beta):
            stack += (depth + 1, depth + 1)
        else:
            count += 1
    return count


def draw_prior_b_samples(
    alpha: float, beta: float, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    return np.array([simulate_prior_b(alpha, beta, rng) for _ in range(n_draws)])


def expected_efficiency(
    n: float,
    m: float,
    p_plus_1: int,
    b_samples: np.ndarray,
    *,
    models: tuple[RuntimeModel, RuntimeModel] | None = None,
) -> float:
    """Monte Carlo mean of T_seq / ((p+1) T_par) over a prior sample of b.

    `models` is a (serial, parallel) pair; None selects the unit-coefficient
    order-level models.  Reusing one `b_samples` across calls (common random
    numbers) keeps efficiency curves smooth in n.
    """
    if p_plus_1 < 1:
        raise ValueError("p_plus_1 must be >= 1")
    if p_plus_1 == 1:
        # Serial against itself: the ratio structure collapses to 1.
        return 1.0
    b = np.asarray(b_samples, dtype=np.float64)
    if b.size == 0:
        raise ValueError("b_samples must not be empty")
    serial_model, parallel_model = (
        models if models is not None else (RuntimeModel.unit("serial"), RuntimeModel.unit("parallel"))
    )
    t_seq = serial_model.predict(n=n, m=m, b=b)
    t_par = parallel_model.predict(n=n, m=m, p=p_plus_1 - 1, b=b)
    if np.any(t_par <= 0) or np.any(t_seq <= 0):
        raise ValueError("runtime models must predict positive times")
    return float(np.mean(t_seq / (p_plus_1 * t_par)))


def isoefficiency_solve(
    e: float,
    p_plus_1: int,
    *,
    models: tuple[RuntimeModel, RuntimeModel] | None = None,
    alpha: float = 0.95,
    beta: float = 2.0,
    m: float = 200,
    bounds: tuple[float, float] = (1e2, 1e9),
    n_draws: int = 2000,
    seed: int = 0,
) -> float:
    """Smallest problem size n in `bounds` reaching expected efficiency e.

    Evaluates expected efficiency on a log-spaced grid of 241 points with one
    shared prior sample for b, verifies monotonicity, then bisects between
    grid neighbors.
    """
    if not 0.0 < e < 1.0:
        raise ValueError("target efficiency must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    b_samples = draw_prior_b_samples(alpha, beta, n_draws, rng)

    def eff(n: float) -> float:
        return expected_efficiency(n, m, p_plus_1, b_samples, models=models)

    grid = np.logspace(math.log10(bounds[0]), math.log10(bounds[1]), 241)
    values = np.array([eff(n) for n in grid])
    if np.any(np.diff(values) < -1e-12):
        raise ValueError("expected efficiency is not monotone increasing over the bounds")
    if values[0] >= e:
        return float(grid[0])
    if values[-1] < e:
        raise ValueError(
            f"target efficiency {e} unattainable within bounds; maximum reached {values[-1]:.4f}"
        )
    hi_idx = int(np.searchsorted(values, e, side="left"))
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if eff(mid) >= e:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return hi


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

def bench_run(
    ns: Sequence[int],
    ms: Sequence[int],
    worker_counts: Sequence[int],
    iterations: int,
    seed: int,
    *,
    d: int = 10,
    workdir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[TimingRecord]:
    """Time the sampler over the {n, m, workers} factorial grid.

    Worker count 0 runs the serial sampler; positive counts run a TCP
    master with that many worker subprocesses on localhost.  One dataset is
    generated per n (fixed seed, noise sd 0.15) and reused across cells.
    Cells burn in for half the iterations, other settings at their defaults.
    A cell's seconds are its fastest iteration times the iteration count:
    other processes on the host stretch iterations several-fold, while the
    fastest stays near the undisturbed cost.  Failures in one cell abort
    that cell but keep earlier records.
    """
    from . import datagen

    if iterations < 2:
        raise ValueError("iterations must be >= 2")
    burn = iterations // 2
    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="bartgrid-bench-")
        workdir = own_dir.name
    records: list[TimingRecord] = []
    try:
        data_paths: dict[int, str] = {}
        gen_rng = np.random.default_rng(seed)
        spec = datagen.gen_spec(d, 30, gen_rng)
        for n in sorted(set(ns)):
            path = os.path.join(workdir, f"bench-n{n}.csv")
            datagen.write_dataset(path, spec, n, 0.15, np.random.default_rng([seed, n]))
            data_paths[n] = path
        for n in ns:
            x = y = None
            for m in ms:
                for workers in worker_counts:
                    label = f"n={n} m={m} workers={workers}"
                    if progress:
                        progress(f"bench cell {label}")
                    settings = FitSettings(
                        m=m, draws=iterations, burn=burn, thin=max(1, (iterations - burn) // 10),
                        seed=seed,
                    )
                    try:
                        if workers == 0:
                            if x is None:
                                x, y, _names = datagen.read_table(data_paths[n], response="y")
                            result = run_serial(x, y, settings)
                        else:
                            result = _run_tcp_cell(data_paths[n], workers, settings)
                    except Exception as exc:
                        if progress:
                            progress(f"bench cell {label} failed: {exc}")
                        continue
                    records.append(
                        TimingRecord(
                            n=n, m=m, p_plus_1=workers + 1, iterations=iterations,
                            seconds=float(result.iteration_seconds.min()) * iterations,
                            b_bar=result.b_bar,
                        )
                    )
    finally:
        if own_dir is not None:
            own_dir.cleanup()
    return records


def _run_tcp_cell(data_path: str, workers: int, settings: FitSettings, **master_kwargs):
    """One master+subprocess-workers run over localhost TCP.

    When the master fails, the error it raises again carries the stderr tail
    of the first worker that exited with an error, which names the cause
    when a worker died before it could connect.  The master stops accepting
    as soon as any worker has exited, rather than waiting out its accept
    timeout.
    """
    from .cluster import ClusterError, serve_master

    procs: list[subprocess.Popen] = []

    def launch_workers(bound_addr):
        host, port = bound_addr
        for rank in range(1, workers + 1):
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "bartgrid", "fit",
                        "--role", "worker",
                        "--connect", f"{host}:{port}",
                        "--rank", str(rank),
                        "--workers", str(workers),
                        "--reduction-blocks", str(settings.reduction_blocks),
                        "--data", data_path,
                        "--response", "y",
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                )
            )

    def fail_on_exit():
        if any(proc.poll() is not None for proc in procs):
            raise ClusterError("a worker exited before all workers connected")

    try:
        try:
            result = serve_master(
                ("127.0.0.1", 0), workers, settings, on_bound=launch_workers,
                while_accepting=fail_on_exit, **master_kwargs
            )
        except Exception as exc:
            worker_error = _first_worker_error(procs, wait=5.0)
            if worker_error is None:
                raise
            raise RuntimeError(f"{exc}; {worker_error}") from exc
        deadline = time.monotonic() + 30.0
        for proc in procs:
            timeout = max(0.1, deadline - time.monotonic())
            if proc.wait(timeout=timeout) != 0:
                stderr = proc.stderr.read().decode() if proc.stderr else ""
                raise RuntimeError(f"worker exited nonzero: {stderr.strip()[:500]}")
        return result
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()


def _first_worker_error(procs: Sequence[subprocess.Popen], wait: float) -> str | None:
    """Stderr tail of the worker that failed first, or None when none failed.

    Workers that had exited before this call rank first: a failed master
    closes its connections, which fails the workers still running.  Waits up
    to `wait` seconds in all for the workers to exit and kills the rest; a
    killed worker is not reported.
    """
    exited_before = [proc.poll() is not None for proc in procs]
    deadline = time.monotonic() + wait
    errors = []
    for rank, proc in enumerate(procs, start=1):
        try:
            _, err = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            continue
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip()[-500:]
            message = f"worker {rank} exited with {proc.returncode}: {tail}"
            errors.append((not exited_before[rank - 1], rank, message))
    return min(errors)[2] if errors else None


def write_records(path: str, records: Sequence[TimingRecord]) -> None:
    from .datagen import write_table

    names = [f.name for f in fields(TimingRecord)]
    write_table(path, names, [[getattr(rec, name) for name in names] for rec in records])


def efficiency_report(records: Sequence[TimingRecord]) -> list[dict]:
    """Per (n, m): time, speedup, and efficiency relative to the smallest run.

    The reference is the record with the fewest cores in the group, so the
    report works even when no serial run exists (relative speedup), matching
    how large experiments are normally reported.
    """
    groups: dict[tuple[int, int], list[TimingRecord]] = {}
    for rec in records:
        groups.setdefault((rec.n, rec.m), []).append(rec)
    rows = []
    for (n, m), group in sorted(groups.items()):
        group = sorted(group, key=lambda r: r.p_plus_1)
        ref = group[0]
        for rec in group:
            s_rel = ref.seconds / rec.seconds
            e_rel = s_rel * ref.p_plus_1 / rec.p_plus_1
            rows.append(
                {
                    "n": n, "m": m, "p_plus_1": rec.p_plus_1,
                    "seconds": rec.seconds, "speedup_vs_ref": s_rel,
                    "efficiency_vs_ref": e_rel, "b_bar": rec.b_bar,
                }
            )
    return rows
