"""Posterior-mean prediction and Monte Carlo sensitivity analysis.

Prediction averages tree sums over saved posterior snapshots and is exactly
linear in both rows and snapshots, so inputs can be partitioned across
threads or machines with bit-identical results.  A sample keeps its trees in
one table of distinct structures, grown draw by draw; each call bins its
inputs once, routes them once per structure and adds every tree's leaf means
in snapshot-then-tree order, the order of a per-tree walk, so the bits do
not depend on the table.  Sensitivity estimators (main effects,
first-order and total Sobol indices) work against any real-valued predictor
of the inputs, which lets the same code run on a fitted surface or on an
analytic test function.  A predictor must be row-wise: row i of its output
depends only on row i of its input, as `predict_mean`'s does bit for bit.
The estimators rely on that to stack their matrices: each Sobol part's A, B
and mixed matrices, and each main-effect curve's base draw and grid-point
draws, go to the predictor in one call of at most CALL_ROWS rows (or one
matrix per call, if a matrix alone is larger).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .sampler import partition_bounds
from .trees import CompiledTrees, CutpointGrid

Predictor = Callable[[np.ndarray], np.ndarray]
DOMAIN = (-1.0, 1.0)  # each input's range in the estimators: the generator's U[-1, 1]
# Most rows per predictor call of the estimators.  A call on a compiled
# sample pays a fixed cost for every path and tree whatever its size, so the
# estimators stack their matrices; the bound keeps a stacked input at 0.5 MB
# per input variable.  It does not follow `trees.ROUTE_CHUNK` or the
# routing budget: the calls keep their sizes when routing changes.
CALL_ROWS = 65536


@dataclass
class PosteriorSample:
    """Saved posterior surfaces: N snapshots of m trees plus sigma each."""

    m: int
    d: int
    numcut: int
    y_mid: float
    y_range: float
    grid: CutpointGrid
    sigmas: list[float]  # per snapshot, scaled units
    trees: CompiledTrees  # snapshot then tree; it does not grow once the sample is made

    def __post_init__(self):
        if not self.sigmas:
            raise ValueError("posterior sample holds no snapshots")
        if len(self.trees.structure_of) != len(self.sigmas) * self.m:
            raise ValueError("snapshot forest size does not match m")

    def predictor(self) -> Predictor:
        return lambda x: predict_mean(self, x)


def posterior_from_chain(result) -> PosteriorSample:
    """Wrap a finished ChainResult's kept draws for prediction."""
    return PosteriorSample(
        m=result.settings.m,
        d=result.grid.n_vars,
        numcut=result.settings.numcut,
        y_mid=result.y_mid,
        y_range=result.y_range,
        grid=result.grid,
        sigmas=result.kept_sigmas,
        trees=result.kept_trees,
    )


def predict_mean(samples: PosteriorSample, xstar: np.ndarray) -> np.ndarray:
    """Posterior-mean prediction in original response units.

    Per row: the average over snapshots of the forest sum, accumulated in
    snapshot-then-tree order so any row partition reproduces the same bits.
    The inputs are binned once; the sample's table routes them once per
    distinct tree structure.
    """
    acc = samples.trees.sum(samples.grid.bin(xstar))
    acc /= len(samples.sigmas)
    return acc * samples.y_range + samples.y_mid


def _check_variables(ks: Sequence[int], dim: int) -> None:
    for k in ks:
        if not 0 <= k < dim:
            raise ValueError(f"variable {k} is outside 0..{dim - 1} (dim={dim})")


def _stacked_outputs(
    predictor: Predictor, count: int, rows: int, dim: int, fill: Callable[[int, np.ndarray], None]
) -> Iterator[np.ndarray]:
    """The predictor's outputs on `count` matrices of `rows` x `dim`, in order.

    `fill(i, out)` writes matrix i into `out`; it is called in order of i,
    one predictor call's worth of matrices at a time, so matrices that draw
    random numbers draw them in that order and at most CALL_ROWS rows (or
    one matrix) are held at once.  Each output is the predictor's rows for
    that matrix, which a row-wise predictor computes as on the matrix alone.
    """
    per_call = max(1, CALL_ROWS // rows)
    for first in range(0, count, per_call):
        n = min(per_call, count - first)
        x = np.empty((n * rows, dim))
        for i in range(n):
            fill(first + i, x[i * rows : (i + 1) * rows])
        f = np.asarray(predictor(x), dtype=np.float64)
        for i in range(n):
            yield f[i * rows : (i + 1) * rows]


def main_effect(
    predictor: Predictor,
    k: int,
    grid_values: Sequence[float],
    n_mc: int,
    dim: int,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Centered main-effect curve of variable k by Monte Carlo integration.

    For every grid value g: the average of the predictor over draws with all
    other coordinates uniform on DOMAIN and x_k pinned to g, minus the
    overall mean estimated from draws over all of DOMAIN.  The base draw and
    every grid point's draw share predictor calls (see the module notes).
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    _check_variables([k], dim)

    def fill(i: int, out: np.ndarray) -> None:
        out[:] = rng.uniform(*DOMAIN, (n_mc, dim))
        if i:
            out[:, k] = grid_values[i - 1]

    outputs = _stacked_outputs(predictor, 1 + len(grid_values), n_mc, dim, fill)
    f0 = float(np.mean(next(outputs)))
    return np.array([float(np.mean(f)) - f0 for f in outputs])


@dataclass
class SobolEstimate:
    """First-order and total index for one variable, with batch-means errors."""

    k: int
    s1: float
    s1_err: float
    st: float
    st_err: float
    v_k: float
    v_total: float
    f0: float


@dataclass
class SensitivityResult:
    """Full sensitivity report for a predictor."""

    f0: float
    n_s: int
    parts: int
    estimates: list[SobolEstimate]
    effect_grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    effects: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


@dataclass(slots=True)
class _PartSums:
    """Partial sums one sample block contributes, combined in part order."""

    rows: int
    sum_a: float
    sum_b: float
    sum_a2: float
    prod: np.ndarray  # per variable: sum f(A) * f(AB_k)
    jansen: np.ndarray  # per variable: sum (f(B) - f(AB_k))^2

    def __add__(self, other: "_PartSums") -> "_PartSums":
        return _PartSums(*(getattr(self, f) + getattr(other, f) for f in self.__slots__))

    def estimates(self, constant_raises: bool = False) -> tuple:
        """(f0, v, s1, st, v_k) from the sums; s1, st and v_k per variable slot.

        With `constant_raises`, a v of zero or less raises before any
        division by it; otherwise it divides with numpy's inf/nan semantics.
        """
        n = self.rows
        f0 = (self.sum_a + self.sum_b) / (2 * n)
        v = self.sum_a2 / n - f0 * f0
        if constant_raises and v <= 0.0:
            raise ValueError("zero total variance: predictor is constant on the domain")
        v_k = self.prod / n - f0 * f0
        return f0, v, v_k / v, self.jansen / (2 * n) / v, v_k


def _part_sums(
    predictor: Predictor, ks: Sequence[int], rows: int, dim: int, seed: int, part: int
) -> _PartSums:
    # Each part draws from its own stream so parts stay independent no matter
    # which thread runs them.
    rng = np.random.default_rng([seed, part])
    a = rng.uniform(*DOMAIN, (rows, dim))
    b = rng.uniform(*DOMAIN, (rows, dim))

    def fill(i: int, out: np.ndarray) -> None:
        # Matrix 0 is A, 1 is B, and 2 + i is AB_k: B with column k = ks[i] from A.
        out[:] = a if i == 0 else b
        if i > 1:
            k = ks[i - 2]
            out[:, k] = a[:, k]

    outputs = _stacked_outputs(predictor, 2 + len(ks), rows, dim, fill)
    fa = next(outputs)
    fb = next(outputs)
    prod = np.empty(len(ks))
    jansen = np.empty(len(ks))
    for i, fm in enumerate(outputs):
        prod[i] = float(np.sum(fa * fm))
        jansen[i] = float(np.sum((fb - fm) ** 2))
    return _PartSums(
        rows,
        float(np.sum(fa)),
        float(np.sum(fb)),
        float(np.sum(fa * fa)),
        prod,
        jansen,
    )


def sobol_indices(
    predictor: Predictor,
    dim: int,
    n_s: int,
    p_parts: int,
    seed: int,
    *,
    ks: Sequence[int] | None = None,
    threads: int | None = None,
) -> SensitivityResult:
    """First-order and total Sobol indices for the requested variables.

    `p_parts` independent A/B matrix pairs of about n_s/p_parts rows each,
    uniform on DOMAIN, come from distinct streams; their partial sums are
    combined in part order on one thread, so the estimate is identical
    however parts are scheduled.  Standard errors come from batch means over
    the parts.  A part's matrices share predictor calls (see the module
    notes).
    """
    if n_s < 2:
        raise ValueError("n_s must be >= 2")
    if p_parts < 1:
        raise ValueError("p_parts must be >= 1")
    ks = list(range(dim)) if ks is None else list(ks)
    _check_variables(ks, dim)
    bounds = partition_bounds(n_s, p_parts)
    sizes = [int(bounds[i + 1] - bounds[i]) for i in range(p_parts)]
    if min(sizes) < 2:
        raise ValueError("each part needs at least 2 rows; lower p_parts")

    def compute(part: int) -> _PartSums:
        return _part_sums(predictor, ks, sizes[part], dim, seed, part)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(compute, range(p_parts)))
    else:
        parts = [compute(part) for part in range(p_parts)]

    total = sum(parts[1:], parts[0])
    f0, v, s1, st, v_k = total.estimates(constant_raises=True)
    per_part = [part.estimates() for part in parts]
    estimates = []
    for i, k in enumerate(ks):
        if p_parts > 1:
            s1_err = float(np.std([e[2][i] for e in per_part], ddof=1) / math.sqrt(p_parts))
            st_err = float(np.std([e[3][i] for e in per_part], ddof=1) / math.sqrt(p_parts))
        else:
            s1_err = st_err = float("nan")
        estimates.append(SobolEstimate(k, s1[i], s1_err, st[i], st_err, v_k[i], v, f0))
    return SensitivityResult(f0=f0, n_s=total.rows, parts=p_parts, estimates=estimates)


def sensitivity_report(
    predictor: Predictor,
    dim: int,
    n_s: int,
    p_parts: int,
    seed: int,
    *,
    effect_points: int = 21,
    effect_mc: int = 2000,
    threads: int | None = None,
) -> SensitivityResult:
    """Sobol indices for every variable plus main-effect curves across DOMAIN."""
    result = sobol_indices(predictor, dim, n_s, p_parts, seed, threads=threads)
    grid = np.linspace(*DOMAIN, effect_points)
    effects = np.empty((dim, effect_points))
    for k in range(dim):
        effects[k] = main_effect(
            predictor, k, grid, effect_mc, dim, rng=np.random.default_rng([seed, 10_000 + k])
        )
    result.effect_grid = grid
    result.effects = effects
    return result
