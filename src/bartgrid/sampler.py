"""Sum-of-trees MCMC core: priors, sufficient statistics, birth/death moves.

Every data-dependent quantity the sampler consumes is a sum of per-observation
terms, reduced over fixed "blocks" of rows with a balanced pairwise fold.  A
worker holding several blocks folds its own blocks and ships one partial; the
master folds the partials with the same tree.  Because the fold groupings line
up whenever each worker holds a power-of-two number of blocks, the chain is
bit-identical whether those sums are computed serially or across any such
worker layout.  That layout is stated here too, and a serial fit is its
worker 1 of 1.  A tree's leaf statistics are one float64 array throughout:
(blocks, rows, leaves) from the shard, folded along blocks to (rows, leaves).

The chain itself is driven by `run_chain_core`, which is shared between the
serial sampler and the distributed master: both consume the exact same random
variate sequence, so equal statistics imply bit-equal chains.  Both start it
through `start_chain`, which builds the empty forest, the prior and the
seeded generator, and returns the result in the response's units.  The shard
side is shared too: the serial sampler hands `start_chain` a
`LocalProvider` over all rows, and each worker drives a `LocalProvider` over
its own rows, making for every master message the call the serial chain
makes.

A shard holds its rows as cut indices (`CutpointGrid.bin`), not floats: every
split rule is a (variable, cut index) pair, so a row's cut index per variable
decides every rule.  The serial sampler bins its rows once the grid is fixed;
a worker bins its rows once RUN_SETUP has fixed the grid and then drops its
reference to the float rows.

A tree update on a small shard costs about as many microseconds as the
Python and numpy calls it makes, so the per-tree path keeps them few: it
reads the tree's cached terminal and nog lists, finds a birth's cut ranges
in one walk up the tree, takes the tree prior's logs from the per-depth
table in `PriorParams`, and calls numpy's array methods and ufuncs
directly.  None of this changes an operation or its order.

`FitSettings` declares every fit setting, its default and its domain.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .trees import (
    MAX_DEPTH,
    CompiledTrees,
    CutpointGrid,
    Tree,
    available_cut_ranges,
    children_ids,
    tree_lines,
)

BIRTH = "birth"
DEATH = "death"


# ---------------------------------------------------------------------------
# Sufficient statistics and deterministic reductions
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SuffStats:
    """(count, residual sum) for one node.

    Additive across disjoint row sets, which is what lets shards contribute
    fixed-size partials regardless of how many rows they hold.  The MH ratio
    and the leaf-mean draw read nothing else.
    """

    n: int = 0
    s: float = 0.0

    def __add__(self, other: "SuffStats") -> "SuffStats":
        return SuffStats(self.n + other.n, self.s + other.s)


def pairwise_fold(items: Sequence):
    """Combine a list, or an array along its first axis, with a fixed balanced pairwise tree.

    The grouping depends only on the length.  Folding B leaves directly
    gives the same result as folding chunk-folds, provided every chunk holds a
    power-of-two count of leaves; that regrouping property is what makes the
    reduction independent of how blocks are spread over workers.
    """
    n = len(items)
    if n == 2:
        return items[0] + items[1]
    if n == 1:
        return items[0]
    if n == 0:
        raise ValueError("cannot fold an empty list")
    level = list(items)
    while len(level) > 1:
        nxt = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def partition_bounds(n: int, parts: int) -> np.ndarray:
    """Boundaries of `parts` contiguous near-equal slices of range(n).

    Sizes differ by at most one; the remainder goes to the leading slices.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, rem = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def reduction_block_count(reduction_blocks: int, workers: int) -> int:
    """Global reduction blocks of a run on `workers` workers; a serial fit is one.

    `reduction_blocks` 0 is the default layout, one block per worker.  The
    blocks split evenly over the workers, and with two or more workers each
    holds a power-of-two count, so that the fold of each worker's partial
    regroups the fold of all blocks (see `pairwise_fold`).
    """
    blocks = reduction_blocks or workers
    if blocks % workers:
        raise ValueError("reduction_blocks must be a multiple of the worker count")
    per = blocks // workers
    if workers > 1 and per & (per - 1):
        raise ValueError("blocks per worker must be a power of two for a stable fold")
    return blocks


def _no_rows(rank: int, p: int, rows: int, blocks: int) -> ValueError:
    return ValueError(
        f"no rows for rank {rank} of {p} workers: {rows} rows in {blocks} reduction blocks"
    )


def worker_row_range(n_total: int, blocks: int, p: int, rank: int) -> tuple[int, int]:
    """Global row range of worker `rank` (1-based) under the block layout.

    Shards are unions of whole reduction blocks so that block sums never
    straddle a worker boundary.  A rank outside 1..p, or one whose blocks
    hold no rows, is refused with a ValueError.
    """
    blocks = reduction_block_count(blocks, p)
    per = blocks // p
    bounds = partition_bounds(n_total, blocks)
    if 1 <= rank <= p and bounds[rank * per] > bounds[(rank - 1) * per]:
        return int(bounds[(rank - 1) * per]), int(bounds[rank * per])
    raise _no_rows(rank, p, n_total, blocks)


def shard_block_slices(n_local: int, blocks: int, p: int, rank: int) -> list[tuple[int, int]]:
    """Shard-local [lo, hi) slices of the global blocks worker `rank` owns.

    The near-equal partition of the shard's own rows into blocks/p slices is
    identical to the restriction of the global block partition to the shard:
    the oversized global blocks form a prefix, so their intersection with any
    contiguous run of blocks is a prefix of that run.  A rank outside 1..p,
    or a shard without rows, is refused with a ValueError.
    """
    blocks = reduction_block_count(blocks, p)
    if not (n_local and 1 <= rank <= p):
        raise _no_rows(rank, p, n_local, blocks)
    bounds = partition_bounds(n_local, blocks // p)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(blocks // p)]


# ---------------------------------------------------------------------------
# Priors and conjugate draws
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class PriorParams:
    """Resolved prior for one run, from `resolve_prior` on validated settings.

    `split_logs[d]` holds the tree-prior logs the MH ratio reads for a move
    at depth d: log p_d, 2 log(1 - p_{d+1}) and log(1 - p_d), where p is
    `split_prior_prob`.  They are derived once from alpha and beta.
    """

    m: int
    alpha: float
    beta: float
    tau: float
    nu: float
    lam: float
    min_leaf: int
    split_logs: list[tuple[float, float, float]] = field(init=False, repr=False)

    def __post_init__(self):
        self.split_logs = []
        for d in range(MAX_DEPTH + 1):
            p_d = split_prior_prob(d, self.alpha, self.beta)
            p_d1 = split_prior_prob(d + 1, self.alpha, self.beta)
            # A node that cannot split has no birth to weigh: log 0 = -inf.
            log_p = math.log(p_d) if p_d > 0.0 else -math.inf
            self.split_logs.append((log_p, 2.0 * math.log1p(-p_d1), math.log1p(-p_d)))


def split_prior_prob(depth: int, alpha: float, beta: float) -> float:
    """Prior probability that a node at `depth` splits: alpha * (1+depth)^-beta.

    Node ids must stay in 31 bits, so nodes at MAX_DEPTH never split.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth >= MAX_DEPTH:
        return 0.0
    return alpha * (1.0 + depth) ** (-beta)


def log_marginal_likelihood(stats: SuffStats, sigma: float, tau: float) -> float:
    """Log of the node's integrated likelihood over its mean, against mu=0.

    Depends on the data only through (n, s); the shared Gaussian baseline
    cancels between the two sides of any birth/death comparison.
    """
    if stats.n == 0:
        return 0.0
    s2 = sigma * sigma
    t2 = tau * tau
    denom = s2 + stats.n * t2
    return 0.5 * math.log(s2 / denom) + t2 * stats.s * stats.s / (2.0 * s2 * denom)


def draw_mu(stats: SuffStats, sigma: float, tau: float, rng: np.random.Generator) -> float:
    """Conjugate normal draw of one leaf mean given its node's statistics."""
    s2 = sigma * sigma
    t2 = tau * tau
    denom = s2 + stats.n * t2
    mean = t2 * stats.s / denom
    sd = math.sqrt(s2 * t2 / denom)
    return mean + sd * float(rng.standard_normal())


def draw_mus(
    stats: np.ndarray, sigma: float, tau: float, rng: np.random.Generator
) -> np.ndarray:
    """Leaf means for all terminal nodes of one tree, from their (count, sum) rows.

    A tree has a few leaves, so the arithmetic runs on Python floats rather
    than as a dozen numpy calls on tiny arrays; each operation rounds as its
    elementwise array form does.
    """
    s2 = sigma * sigma
    t2 = tau * tau
    s2t2 = s2 * t2
    counts, sums = stats.tolist()
    mus = []
    for n, s, z in zip(counts, sums, rng.standard_normal(len(counts)).tolist()):
        denom = s2 + t2 * n
        mus.append(t2 * s / denom + math.sqrt(s2t2 / denom) * z)
    return np.array(mus)


def draw_sigma(
    n_total: int, rss: float, nu: float, lam: float, rng: np.random.Generator
) -> float:
    """Residual-sd draw: sqrt((nu*lambda + rss) / chisq(nu + n))."""
    if rss < 0:
        raise ValueError("rss must be >= 0")
    return math.sqrt((nu * lam + rss) / rng.chisquare(nu + n_total))


def sigma_lambda(sd_y: float, nu: float, sigquant: float) -> float:
    """Scale of the sigma prior, set so P(sigma < sd_y) = sigquant.

    The chi-square quantile is `2 * gammaincinv(nu / 2, p)`, the expression
    `scipy.stats.chi2.ppf` evaluates, so the bits are the same.  The import
    is local and takes only `scipy.special`: this is the one use of scipy in
    the package, made once per chain start by the serial sampler or the
    master, so a worker, `predict`, `sensitivity` and `generate` start
    without loading scipy at all, and a chain start avoids the much slower
    import of `scipy.stats`.
    """
    if not 0.0 < sigquant < 1.0:
        raise ValueError("sigma quantile must lie in (0, 1)")
    from scipy.special import gammaincinv

    q = 2.0 * gammaincinv(nu / 2.0, 1.0 - sigquant)
    return float(sd_y * sd_y * q / nu)


# ---------------------------------------------------------------------------
# Proposals and MH acceptance
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Proposal:
    """One birth or death proposal on one tree."""

    move: str
    node_id: int
    v: int = -1
    c: int = -1


def propose(tree: Tree, grid: CutpointGrid, rng: np.random.Generator) -> Proposal | None:
    """Draw a birth/death proposal, or None when the drawn birth has no rule.

    Birth probability is 1 for a single-node tree and 1/2 otherwise.  A birth
    picks a terminal node uniformly, a variable uniformly among those with at
    least one cutpoint not excluded by ancestor rules, then a cutpoint
    uniformly in the surviving range.  A death picks a nog node uniformly.
    """
    terminals = tree.terminals()
    p_birth = 1.0 if len(terminals) == 1 else 0.5
    if rng.random() < p_birth:
        node_id = terminals[int(rng.integers(len(terminals)))]
        if node_id.bit_length() > MAX_DEPTH:  # its depth is MAX_DEPTH or more
            return None
        ranges = []
        for v, (lo, hi) in enumerate(available_cut_ranges(tree, node_id, grid.counts)):
            if hi > lo:
                ranges.append((v, lo, hi))
        if not ranges:
            return None
        v, lo, hi = ranges[int(rng.integers(len(ranges)))]
        c = int(rng.integers(lo, hi))
        return Proposal(BIRTH, node_id, v, c)
    nogs = tree.nogs()
    return Proposal(DEATH, nogs[int(rng.integers(len(nogs)))])


def accept_log_ratio(
    tree: Tree,
    prop: Proposal,
    stats_left: SuffStats,
    stats_right: SuffStats,
    sigma: float,
    prior: PriorParams,
    prior_only: bool = False,
) -> float:
    """Log MH ratio (prior x proposal x likelihood) for a birth or death.

    The rule prior matches the rule proposal (uniform variable, then uniform
    cutpoint), so rule terms cancel and the ratio depends on the data only
    through the two child statistics.  `prior_only` zeroes the likelihood
    term, turning the chain into a sampler of the tree prior.
    """
    if prop.move not in (BIRTH, DEATH):
        raise ValueError(f"unknown move {prop.move!r}")
    if prop.move == BIRTH and min(stats_left.n, stats_right.n) < prior.min_leaf:
        return -math.inf
    merged = SuffStats(stats_left.n + stats_right.n, stats_left.s + stats_right.s)
    k = prop.node_id
    log_p_d, two_log1m_p_d1, log1m_p_d = prior.split_logs[k.bit_length() - 1]
    b = (len(tree.nodes) + 1) // 2
    nogs = len(tree.nogs())
    if prop.move == BIRTH:
        p_birth = 1.0 if b == 1 else 0.5
        # The birth makes its node a nog; its parent stops being one when the
        # sibling is terminal.
        nog_after = nogs + 1 - (k > 1 and not isinstance(tree.nodes[k ^ 1], tuple))
        p_death_after = 0.5
        log_ratio = (
            log_p_d
            + two_log1m_p_d1
            - log1m_p_d
            + math.log(p_death_after * b)
            - math.log(p_birth * nog_after)
        )
        if not prior_only:
            log_ratio += (
                log_marginal_likelihood(stats_left, sigma, prior.tau)
                + log_marginal_likelihood(stats_right, sigma, prior.tau)
                - log_marginal_likelihood(merged, sigma, prior.tau)
            )
        return log_ratio
    p_death = 0.5
    p_birth_after = 1.0 if b - 1 == 1 else 0.5
    log_ratio = (
        -log_p_d
        - two_log1m_p_d1
        + log1m_p_d
        + math.log(p_birth_after * nogs)
        - math.log(p_death * (b - 1))
    )
    if not prior_only:
        log_ratio += (
            log_marginal_likelihood(merged, sigma, prior.tau)
            - log_marginal_likelihood(stats_left, sigma, prior.tau)
            - log_marginal_likelihood(stats_right, sigma, prior.tau)
        )
    return log_ratio


# ---------------------------------------------------------------------------
# Shard-local data state
# ---------------------------------------------------------------------------

class _Slices:
    """Where each terminal node of one tree sits in that tree's row order.

    Terminals are listed left to right, the order of their slices.  A slice
    holds its rows ascending, so the rows of reduction block k form its k-th
    run, `counts[t][k]` rows long.  Everything besides `ids` and `counts` is
    derived once per birth or death, so the per-call kernels do no
    bookkeeping.  A tree has a handful of leaves, so the tables are built
    from Python lists, and only those the kernels index with become arrays.
    Instances are never modified; a move builds a new one.
    """

    __slots__ = ("ids", "counts", "starts", "runs", "lens", "rank", "seg", "seg_n", "cells")

    def __init__(self, ids: list[int], counts: list[list[int]]):
        self.ids = ids
        self.counts = counts
        # rank: each slice's position in ascending id order.
        rank = [0] * len(ids)
        for r, t in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
            rank[t] = r
        # Run boundaries inside each slice, each slice's start and length;
        # then the non-empty (terminal, block) segments: their starts, for
        # reduceat, their row counts, and their (block, leaf rank) cells.
        self.runs, self.starts, lens = [], [0], []
        seg, seg_n, block, leaf = [], [], [], []
        for t, row in enumerate(counts):
            run = [0]
            for k, c in enumerate(row):
                if c:
                    seg.append(self.starts[-1] + run[-1])
                    seg_n.append(c)
                    block.append(k)
                    leaf.append(rank[t])
                run.append(run[-1] + c)
            self.runs.append(run)
            self.starts.append(self.starts[-1] + run[-1])
            lens.append(run[-1])
        self.lens, self.rank = np.array((lens, rank), dtype=np.intp)
        self.seg, self.seg_n, *self.cells = np.array((seg, seg_n, block, leaf), dtype=np.intp)

    def split(self, t: int, left_counts: list[int]) -> "_Slices":
        """Terminal t replaced by its children, the left child's slice first."""
        right_counts = [c - left for c, left in zip(self.counts[t], left_counts)]
        return _Slices(
            [*self.ids[:t], *children_ids(self.ids[t]), *self.ids[t + 1:]],
            [*self.counts[:t], left_counts, right_counts, *self.counts[t + 1:]],
        )

    def join(self, t: int) -> "_Slices":
        """Sibling terminals t and t+1 replaced by their parent."""
        merged = [a + b for a, b in zip(self.counts[t], self.counts[t + 1])]
        return _Slices(
            [*self.ids[:t], self.ids[t] // 2, *self.ids[t + 2:]],
            [*self.counts[:t], merged, *self.counts[t + 2:]],
        )


class ShardData:
    """One shard's rows plus the cached residual and each tree's row layout.

    The rows are held only as cut indices: `xb` is the column-major
    `CutpointGrid.bin` matrix, (variables, rows) of unsigned integers, so
    rule (v, c) sends row i left exactly when `xb[v, i] <= c`.  At up to 255
    cutpoints per variable that is one byte per row and variable.

    `order[j]` permutes the shard's rows so that every terminal node of tree
    j owns one contiguous slice of it, rows ascending; a birth partitions a
    slice stably and a death merges two adjacent sibling slices.  Kernels
    therefore touch only the rows of the nodes involved, except the leaf pass,
    which moves every residual.  `order` is int32 to keep the per-tree state
    at 4 bytes per row; each kernel copies the slice it needs into one native
    index buffer, because numpy indexes with int32 about 2.5 times slower.

    `blocks` are the local slices of the global reduction blocks this shard
    owns, in row order and covering every row; every sum leaves the shard as
    a pairwise fold of per-block sums so the master can keep folding without
    caring how rows map to workers.  The kernels sum with `np.add.reduce`,
    which adds in the order `ndarray.sum` does without its Python wrapper.
    """

    __slots__ = ("xb", "ys", "residual", "order", "blocks", "_slices", "_idx", "_gathered")

    def __init__(self, xb: np.ndarray, ys: np.ndarray, m: int, blocks: Sequence[tuple[int, int]]):
        self.ys = np.asarray(ys, dtype=np.float64)
        self.xb = np.ascontiguousarray(xb)
        n = self.ys.size
        if self.xb.ndim != 2 or self.xb.shape[1] != n:
            raise ValueError(f"xb must be (variables, {n}) cut indices, got shape {self.xb.shape}")
        if self.xb.dtype.kind != "u":
            raise ValueError(f"xb must hold unsigned cut indices, got dtype {self.xb.dtype}")
        self.residual = self.ys.copy()
        self.blocks = list(blocks)
        edges = [lo for lo, _ in self.blocks] + [n]
        if not self.blocks or [hi for _, hi in self.blocks] != edges[1:] or edges[0] != 0:
            raise ValueError("blocks must tile the shard's rows in order")
        if n > np.iinfo(np.int32).max:
            raise ValueError("a shard holds at most 2**31 - 1 rows")
        self.order = np.tile(np.arange(n, dtype=np.int32), (m, 1))
        root = _Slices([1], [[hi - lo for lo, hi in self.blocks]])
        self._slices = [root] * m
        self._idx = np.empty(n, dtype=np.intp)
        # (tree, residual gathered through _idx) from the last mu_stats_blocks
        # call; the apply_mus that follows it writes back through _idx.
        self._gathered: tuple[int, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.ys.size

    def _rows(self, j: int, lo: int, hi: int) -> np.ndarray:
        """`order[j][lo:hi]` as native indices, in the shared index buffer."""
        idx = self._idx[: hi - lo]
        idx[:] = self.order[j, lo:hi]
        self._gathered = None
        return idx

    def slices(self, j: int) -> list[tuple[int, int, int, list[int]]]:
        """(node id, start, stop, rows per block) per terminal of tree j."""
        sl = self._slices[j]
        return [
            (node_id, sl.starts[t], sl.starts[t + 1], list(sl.counts[t]))
            for t, node_id in enumerate(sl.ids)
        ]

    # -- statistics ---------------------------------------------------------

    def move_stats_blocks(
        self, j: int, prop: Proposal, mu_left: float, mu_right: float
    ) -> list[tuple[SuffStats, SuffStats]]:
        """Per-block child (count, sum) statistics for a proposed move on tree j.

        For a birth, `mu_left == mu_right` is the mean of the splitting node
        and the rule (prop.v, prop.c) partitions its rows.  For a death, the
        children already exist and carry their own means.  Each sum adds the
        same values in the same row order as a masked pass over the whole
        block would.
        """
        sl = self._slices[j]
        parts = []  # (left child's values, right child's values) per block
        if prop.move == BIRTH:
            t = sl.ids.index(prop.node_id)
            rows = self._rows(j, sl.starts[t], sl.starts[t + 1])
            r = self.residual[rows] + mu_left
            go_left = self.xb[prop.v].take(rows) <= prop.c
            go_right = ~go_left
            runs = sl.runs[t]
            for a, b in zip(runs, runs[1:]):
                # compress is several times faster than a boolean index here.
                block = r[a:b]
                parts.append((block.compress(go_left[a:b]), block.compress(go_right[a:b])))
        else:
            t = sl.ids.index(2 * prop.node_id)
            lo, mid, hi = sl.starts[t : t + 3]
            r = self.residual[self._rows(j, lo, hi)]
            left, right = r[: mid - lo], r[mid - lo :]
            left += mu_left
            right += mu_right
            left_runs, right_runs = sl.runs[t], sl.runs[t + 1]
            for k in range(len(self.blocks)):
                parts.append((
                    left[left_runs[k] : left_runs[k + 1]],
                    right[right_runs[k] : right_runs[k + 1]],
                ))
        add = np.add.reduce
        pairs = []
        for r_l, r_r in parts:
            pairs.append(
                (SuffStats(r_l.size, float(add(r_l))), SuffStats(r_r.size, float(add(r_r))))
            )
        return pairs

    def mu_stats_blocks(self, j: int, mus: np.ndarray, squares: bool = False) -> np.ndarray:
        """Per-block partial-residual statistics for every terminal node.

        Returns a (blocks, rows, leaves) float64 array: row 0 holds the
        counts, row 1 the residual sums and, with `squares`, row 2 the sums
        of squares, which only the MuStats payload carries.  `mus` are tree
        j's leaf means in ascending node id order, the order of the leaves.
        """
        sl = self._slices[j]
        if mus.size != len(sl.ids):
            raise ValueError(f"tree {j} has {len(sl.ids)} terminal nodes, got {mus.size} means")
        rows = self._rows(j, 0, self.ys.size)
        gathered = self.residual[rows]
        self._gathered = (j, gathered)
        r = mus[sl.rank].repeat(sl.lens)
        r += gathered
        # reduceat yields an element, not 0, for an empty segment, so only the
        # non-empty ones are reduced; the cells of the empty ones stay 0.
        k, leaf = sl.cells
        out = np.zeros((len(self.blocks), 3 if squares else 2, len(sl.ids)))
        out[k, 0, leaf] = sl.seg_n
        out[k, 1, leaf] = np.add.reduceat(r, sl.seg)
        if squares:
            out[k, 2, leaf] = np.add.reduceat(np.square(r, out=r), sl.seg)
        return out

    def rss_blocks(self) -> np.ndarray:
        """Per-block residual sums of squares."""
        out = np.empty(len(self.blocks))
        for k, (lo, hi) in enumerate(self.blocks):
            r = self.residual[lo:hi]
            out[k] = np.add.reduce(r * r)
        return out

    # -- state updates -------------------------------------------------------

    def apply_birth(
        self,
        j: int,
        node_id: int,
        v: int,
        c: int,
        mu_old: float,
        mu_left: float,
        mu_right: float,
    ) -> None:
        sl = self._slices[j]
        t = sl.ids.index(node_id)
        lo, hi = sl.starts[t], sl.starts[t + 1]
        go_left = self.xb[v].take(self._rows(j, lo, hi)) <= c
        # Stable partition: the left child's rows, then the right child's.
        part = self.order[j, lo:hi]
        left, right = part.compress(go_left), part.compress(~go_left)
        part[: left.size] = left
        part[left.size :] = right
        # Rows in their new order, each shifted by its own child's mean.
        rows = self._rows(j, lo, hi)
        self.residual[rows[: left.size]] -= mu_left - mu_old
        self.residual[rows[left.size :]] -= mu_right - mu_old
        runs = sl.runs[t]
        left_counts = []
        for a, b in zip(runs, runs[1:]):
            left_counts.append(int(np.add.reduce(go_left[a:b])))
        self._slices[j] = sl.split(t, left_counts)

    def apply_death(
        self, j: int, node_id: int, mu_old_left: float, mu_old_right: float, mu_new: float
    ) -> None:
        sl = self._slices[j]
        left_id, right_id = children_ids(node_id)
        t = sl.ids.index(left_id)
        if sl.ids[t + 1 : t + 2] != [right_id]:
            raise ValueError(f"node {node_id} of tree {j} is not a nog node")
        lo, mid, hi = sl.starts[t : t + 3]
        rows = self._rows(j, lo, hi)
        self.residual[rows[: mid - lo]] -= mu_new - mu_old_left
        self.residual[rows[mid - lo :]] -= mu_new - mu_old_right
        # The two children's rows are two ascending runs; a stable sort
        # merges them in one linear pass.
        self.order[j, lo:hi].sort(kind="stable")
        self._slices[j] = sl.join(t)

    def apply_mus(self, j: int, old_mus: np.ndarray, new_mus: np.ndarray) -> None:
        """Move every row of tree j from its old leaf mean to the new one, through
        the residual gathered by a `mu_stats_blocks` call on tree j just before."""
        if self._gathered is None or self._gathered[0] != j:
            raise ValueError(f"apply_mus on tree {j} needs mu_stats_blocks on it just before")
        gathered = self._gathered[1]
        self._gathered = None
        sl = self._slices[j]
        shift = (new_mus - old_mus)[sl.rank].repeat(sl.lens)
        self.residual[self._idx] = np.subtract(gathered, shift, out=shift)


# ---------------------------------------------------------------------------
# Run configuration and derived constants
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class FitSettings:
    """Everything a fit needs besides the data itself.

    The fields declare each setting and its default (the prior's are those of
    Chipman, George & McCulloch 2010); `validate` checks each one's domain.
    `reduction_blocks` 0 is the default layout (see `reduction_block_count`).
    """

    m: int = 200
    kfac: float = 2.0
    alpha: float = 0.95
    beta: float = 2.0
    nu: float = 3.0
    sigquant: float = 0.9
    numcut: int = 100
    min_leaf: int = 5
    draws: int = 1000
    burn: int = 100
    thin: int = 1
    seed: int = 0
    reduction_blocks: int = 0
    prior_only: bool = False

    def validate(self) -> None:
        """Raise a ValueError, naming the field first, for the first bad setting."""
        for name, ok, domain in (
            ("m", self.m >= 1, ">= 1"),
            ("kfac", self.kfac > 0, "> 0"),
            ("alpha", 0 < self.alpha < 1, "in (0, 1)"),
            ("beta", self.beta >= 0, ">= 0"),
            ("nu", self.nu > 0, "> 0"),
            ("sigquant", 0 < self.sigquant < 1, "in (0, 1)"),
            ("numcut", self.numcut >= 1, ">= 1"),
            ("min_leaf", self.min_leaf >= 0, ">= 0"),
            ("burn", self.burn >= 0, ">= 0"),
            ("draws", self.draws > self.burn, f"> burn ({self.burn})"),
            ("thin", self.thin >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("reduction_blocks", self.reduction_blocks >= 0, ">= 0 (0: the default layout)"),
            ("prior_only", isinstance(self.prior_only, bool), "True or False"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {domain}, got {getattr(self, name)!r}")


@dataclass(slots=True)
class RunDerived:
    """Data-derived constants shared verbatim by master and workers."""

    y_mid: float
    y_range: float
    sd_scaled: float
    x_min: np.ndarray
    x_max: np.ndarray


def summarize_shard(x: np.ndarray, y: np.ndarray, blocks: Sequence[tuple[int, int]]) -> tuple:
    """One shard's data summary: (n, y_min, y_max, y_sum, y_sumsq, x_min, x_max).

    The order is `protocol.ShardMeta`'s.  The sums are pairwise folds of the
    per-block sums, so a fold of the shards' summaries equals the summary
    of all rows under the same block layout.
    """
    y_sum = pairwise_fold([float(np.sum(y[lo:hi])) for lo, hi in blocks])
    y_sumsq = pairwise_fold([float(np.sum(y[lo:hi] * y[lo:hi])) for lo, hi in blocks])
    return (
        y.size, float(y.min()), float(y.max()), y_sum, y_sumsq,
        tuple(x.min(axis=0)), tuple(x.max(axis=0)),
    )


def derive_run_constants(summaries: Sequence[Sequence]) -> RunDerived:
    """Scaling constants from the rank-ordered `summarize_shard` summaries.

    The serial sampler passes its one summary and the distributed master
    one per worker, folded the same way, so both paths share every bit.
    """
    ns, y_mins, y_maxs, y_sums, y_sumsqs, x_mins, x_maxs = zip(*summaries)
    n_total = sum(ns)
    y_min, y_max = min(y_mins), max(y_maxs)
    y_sum, y_sumsq = pairwise_fold(y_sums), pairwise_fold(y_sumsqs)
    x_min, x_max = np.min(x_mins, axis=0), np.max(x_maxs, axis=0)
    if n_total < 2:
        raise ValueError("need at least two observations")
    y_range = y_max - y_min
    if y_range <= 0.0:
        raise ValueError("response is constant; nothing to fit")
    y_mid = 0.5 * (y_min + y_max)
    var_y = (y_sumsq - y_sum * y_sum / n_total) / (n_total - 1)
    sd_scaled = math.sqrt(max(var_y, 0.0)) / y_range
    return RunDerived(y_mid, y_range, sd_scaled, x_min, x_max)


def resolve_prior(settings: FitSettings, sd_scaled: float) -> PriorParams:
    tau = 0.5 / (settings.kfac * math.sqrt(settings.m))
    lam = sigma_lambda(sd_scaled, settings.nu, settings.sigquant)
    return PriorParams(
        m=settings.m,
        alpha=settings.alpha,
        beta=settings.beta,
        tau=tau,
        nu=settings.nu,
        lam=lam,
        min_leaf=settings.min_leaf,
    )


# ---------------------------------------------------------------------------
# The Gibbs loop, shared by the serial sampler and the distributed master
# ---------------------------------------------------------------------------

class StatsProvider(Protocol):
    """Source of reduced statistics plus sink for accepted state changes.

    The serial sampler and the distributed master drive the identical chain
    logic; only this object differs (local arithmetic vs. worker messaging).
    """

    n_total: int

    def begin_iteration(self) -> None: ...

    def reject(self, j: int) -> None: ...

    def move_stats(self, j: int, tree: Tree, prop: Proposal) -> tuple[SuffStats, SuffStats]: ...

    def apply_birth(self, j: int, tree: Tree, prop: Proposal, mu_l: float, mu_r: float) -> None: ...

    def apply_death(self, j: int, tree: Tree, prop: Proposal, mu: float) -> None: ...

    def mu_stats(self, j: int, mus: np.ndarray) -> np.ndarray: ...

    def apply_mus(self, j: int, old: np.ndarray, new: np.ndarray) -> None: ...

    def rss(self) -> float: ...


class LocalProvider:
    """Provider over one shard in this process: all rows for the serial
    sampler, a worker's rows on a worker."""

    def __init__(self, shard: ShardData):
        self.shard = shard
        self.n_total = shard.n
        # The leaf-mean update needs no translation: it is the shard's own.
        self.apply_mus = shard.apply_mus

    def begin_iteration(self) -> None:
        pass

    def reject(self, j: int) -> None:
        pass

    def move_stats(self, j, tree, prop):
        """(left, right) statistics of a proposed move on tree j."""
        nodes = tree.nodes
        k = prop.node_id
        if prop.move == BIRTH:
            mu_left = mu_right = nodes[k]
        else:
            mu_left, mu_right = nodes[2 * k], nodes[2 * k + 1]
        lefts, rights = zip(*self.shard.move_stats_blocks(j, prop, mu_left, mu_right))
        return pairwise_fold(lefts), pairwise_fold(rights)

    def apply_birth(self, j, tree, prop, mu_l, mu_r):
        self.shard.apply_birth(
            j, prop.node_id, prop.v, prop.c, tree.nodes[prop.node_id], mu_l, mu_r
        )

    def apply_death(self, j, tree, prop, mu):
        k = prop.node_id
        self.shard.apply_death(j, k, tree.nodes[2 * k], tree.nodes[2 * k + 1], mu)

    def mu_stats(self, j, mus):
        return pairwise_fold(self.shard.mu_stats_blocks(j, mus))

    def rss(self) -> float:
        return float(pairwise_fold(self.shard.rss_blocks()))


@dataclass(slots=True)
class TreeMoveRecord:
    """What happened to one tree in one iteration (for logs and byte audits)."""

    move: str | None
    accepted: bool
    b_after: int


@dataclass
class ChainResult:
    """Everything a finished chain reports back."""

    settings: FitSettings
    d: int
    y_mid: float
    y_range: float
    grid: CutpointGrid
    prior: PriorParams
    sigmas: np.ndarray  # per iteration, scaled response units
    mean_b: np.ndarray  # per iteration, mean terminal count over trees
    iteration_seconds: np.ndarray  # per iteration, wall seconds
    birth_proposed: np.ndarray
    birth_accepted: np.ndarray
    death_proposed: np.ndarray
    death_accepted: np.ndarray
    snapshots: list[tuple[float, list[Tree]]] = field(default_factory=list)  # (sigma, forest)
    forest_hashes: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    trace: list[list[TreeMoveRecord]] | None = None

    @property
    def sigmas_original(self) -> np.ndarray:
        return self.sigmas * self.y_range

    @property
    def b_bar(self) -> float:
        """Mean terminal-node count over saved snapshots and trees."""
        if not self.snapshots:
            return float("nan")
        total = sum((len(t.nodes) + 1) // 2 for _, forest in self.snapshots for t in forest)
        return total / (len(self.snapshots) * self.settings.m)


def forest_hash(forest: Sequence[Tree]) -> str:
    digest = hashlib.md5()
    for tree in forest:
        for line in tree_lines(tree):
            digest.update(line.encode())
        digest.update(b";")
    return digest.hexdigest()


def _update_tree(
    j: int,
    tree: Tree,
    sigma: float,
    grid: CutpointGrid,
    prior: PriorParams,
    rng: np.random.Generator,
    provider: StatsProvider,
    prior_only: bool,
) -> tuple[str | None, bool, int]:
    """One tree's structural move plus its leaf-mean Gibbs pass.

    Returns (move kind or None, accepted, terminal count after the move).
    This is the single source of the per-tree random variate sequence for
    both the serial sampler and the distributed master.
    """
    prop = propose(tree, grid, rng)
    move = None
    accepted = False
    if prop is not None:
        move = prop.move
        stats_l, stats_r = provider.move_stats(j, tree, prop)
        log_ratio = accept_log_ratio(tree, prop, stats_l, stats_r, sigma, prior, prior_only)
        u = rng.random()
        accepted = u > 0.0 and math.log(u) < log_ratio
        if accepted and move == BIRTH:
            mu_l = draw_mu(stats_l, sigma, prior.tau, rng)
            mu_r = draw_mu(stats_r, sigma, prior.tau, rng)
            provider.apply_birth(j, tree, prop, mu_l, mu_r)
            tree.birth(prop.node_id, prop.v, prop.c, mu_l, mu_r)
        elif accepted:
            mu = draw_mu(stats_l + stats_r, sigma, prior.tau, rng)
            provider.apply_death(j, tree, prop, mu)
            tree.death(prop.node_id, mu)
    if not accepted:
        # No admissible proposal, or a rejected one.
        provider.reject(j)
    # Leaf-mean Gibbs pass for this tree (always, move or not).
    nodes = tree.nodes
    terminals = tree.terminals()
    old_mus = np.array(list(map(nodes.__getitem__, terminals)), dtype=np.float64)
    new_mus = draw_mus(provider.mu_stats(j, old_mus), sigma, prior.tau, rng)
    provider.apply_mus(j, old_mus, new_mus)
    nodes.update(zip(terminals, new_mus.tolist()))
    return move, accepted, len(terminals)


def run_chain_core(
    forest: list[Tree],
    grid: CutpointGrid,
    prior: PriorParams,
    sigma0: float,
    rng: np.random.Generator,
    provider: StatsProvider,
    settings: FitSettings,
    *,
    collect_hashes: bool = False,
    collect_trace: bool = False,
    on_iteration: Callable[[int, float, list[Tree]], None] | None = None,
) -> ChainResult:
    """Run the full Gibbs chain against a statistics provider.

    Per iteration, for each tree: propose, fetch child statistics, MH
    accept/reject, then redraw every leaf mean of that tree; after all trees,
    draw sigma from the reduced residual sum of squares.  The provider applies
    each accepted change to whatever holds the data (a local shard or a set of
    remote replicas).
    """
    sigma = sigma0
    draws = settings.draws
    m = prior.m
    sigmas = np.empty(draws)
    mean_b = np.empty(draws)
    iteration_seconds = np.empty(draws)
    counters = {k: np.zeros(draws, dtype=np.int64) for k in ("bp", "ba", "dp", "da")}
    snapshots: list[tuple[float, list[Tree]]] = []
    hashes: list[str] = []
    trace: list[list[TreeMoveRecord]] = []

    start = mark = time.perf_counter()
    for it in range(1, draws + 1):
        provider.begin_iteration()
        itrace: list[TreeMoveRecord] = []
        b_sum = 0
        for j in range(m):
            move, accepted, b_after = _update_tree(
                j, forest[j], sigma, grid, prior, rng, provider, settings.prior_only
            )
            if move is not None:
                counters["bp" if move == BIRTH else "dp"][it - 1] += 1
                if accepted:
                    counters["ba" if move == BIRTH else "da"][it - 1] += 1
            b_sum += b_after
            if collect_trace:
                itrace.append(TreeMoveRecord(move, accepted, b_after))
        rss = provider.rss()
        sigma = draw_sigma(provider.n_total, rss, prior.nu, prior.lam, rng)
        sigmas[it - 1] = sigma
        mean_b[it - 1] = b_sum / m
        if collect_hashes:
            hashes.append(forest_hash(forest))
        if collect_trace:
            trace.append(itrace)
        if it > settings.burn and (it - settings.burn) % settings.thin == 0:
            snapshots.append((sigma, [t.clone() for t in forest]))
        if on_iteration is not None:
            on_iteration(it, sigma, forest)
        now = time.perf_counter()
        iteration_seconds[it - 1] = now - mark
        mark = now

    return ChainResult(
        settings=settings,
        d=grid.n_vars,
        y_mid=0.0,
        y_range=1.0,
        grid=grid,
        prior=prior,
        sigmas=sigmas,
        mean_b=mean_b,
        iteration_seconds=iteration_seconds,
        birth_proposed=counters["bp"],
        birth_accepted=counters["ba"],
        death_proposed=counters["dp"],
        death_accepted=counters["da"],
        snapshots=snapshots,
        forest_hashes=hashes,
        elapsed=mark - start,
        trace=trace if collect_trace else None,
    )


def start_chain(
    settings: FitSettings,
    derived: RunDerived,
    grid: CutpointGrid,
    provider: StatsProvider,
    **chain_kwargs,
) -> ChainResult:
    """Run the chain from an empty forest and a generator seeded from `settings`.

    The one start of the serial sampler and the distributed master.
    `chain_kwargs` go to `run_chain_core`; the result is in the units of y.
    """
    result = run_chain_core(
        [Tree() for _ in range(settings.m)], grid, resolve_prior(settings, derived.sd_scaled),
        derived.sd_scaled, np.random.default_rng(settings.seed), provider, settings,
        **chain_kwargs,
    )
    result.y_mid = derived.y_mid
    result.y_range = derived.y_range
    return result


def run_serial(
    x: np.ndarray,
    y: np.ndarray,
    settings: FitSettings,
    *,
    collect_hashes: bool = False,
    collect_trace: bool = False,
) -> ChainResult:
    """Fit the model on local data with the single-process sampler."""
    settings.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) and y must be (n,) with matching n")
    # The serial fit is rank 1 of 1 in the layout the workers use.
    blocks = shard_block_slices(y.size, settings.reduction_blocks, 1, 1)
    derived = derive_run_constants([summarize_shard(x, y, blocks)])
    grid = CutpointGrid.from_ranges(derived.x_min, derived.x_max, settings.numcut)
    ys = (y - derived.y_mid) / derived.y_range
    provider = LocalProvider(ShardData(grid.bin(x), ys, settings.m, blocks))
    return start_chain(
        settings, derived, grid, provider,
        collect_hashes=collect_hashes, collect_trace=collect_trace,
    )


def check_residual_invariant(
    forest: Sequence[Tree], grid: CutpointGrid, shard: ShardData, atol: float = 1e-8
) -> float:
    """Max abs deviation of the cached residual from ys minus the forest's fit.

    The fit is recomputed by routing the shard's cut-index rows through every
    tree; `grid` must be the grid they were binned on.
    """
    if shard.xb.shape[0] != grid.n_vars:
        raise ValueError(f"shard has {shard.xb.shape[0]} variables, grid has {grid.n_vars}")
    fit = CompiledTrees(forest).sum(shard.xb)
    err = float(np.max(np.abs(shard.ys - fit - shard.residual))) if shard.n else 0.0
    if err > atol:
        raise AssertionError(f"residual invariant violated: max deviation {err}")
    return err
