import collections
import math
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy
from scipy.integrate import quad
from scipy.stats import norm

from bartgrid import sampler
from bartgrid.sampler import (
    BIRTH,
    CHI2_QUANTILES,
    DEATH,
    FitSettings,
    LocalProvider,
    PriorParams,
    Proposal,
    ShardData,
    SuffStats,
    accept_log_ratio,
    check_residual_invariant,
    derive_run_constants,
    draw_mu,
    draw_sigma,
    log_marginal_likelihood,
    pairwise_fold,
    partition_bounds,
    propose,
    reduction_block_count,
    resolve_prior,
    run_chain_core,
    run_serial,
    shard_block_slices,
    sigma_lambda,
    split_prior_prob,
    summarize_shard,
    worker_row_range,
)
from bartgrid.trees import (
    MAX_DEPTH,
    CompiledTrees,
    CutpointGrid,
    Tree,
    available_cut_ranges,
    depth_of_id,
    route_rows,
)

import fixed_cost
from test_trees import grow_random_tree


def make_prior(**overrides):
    base = dict(m=1, alpha=0.95, beta=2.0, tau=0.25, nu=3.0, lam=0.1, min_leaf=0)
    base.update(overrides)
    return PriorParams(**base)


def birth_ratio_oracle(tree, after, k, stats_l, stats_r, sigma, prior, prior_only):
    """A birth's log MH ratio, term by term in the order `accept_log_ratio` adds them.

    It counts the nogs on `after`, the tree the birth makes.
    """
    log_p_d, two_log1m_p_d1, log1m_p_d = prior.split_logs[depth_of_id(k)]
    b = len(tree.terminals())
    p_birth = 1.0 if b == 1 else 0.5
    log_ratio = (
        log_p_d
        + two_log1m_p_d1
        - log1m_p_d
        + math.log(0.5 * b)
        - math.log(p_birth * len(after.nogs()))
    )
    if not prior_only:
        merged = SuffStats(stats_l.n + stats_r.n, stats_l.s + stats_r.s)
        log_ratio += (
            log_marginal_likelihood(stats_l, sigma, prior.tau)
            + log_marginal_likelihood(stats_r, sigma, prior.tau)
            - log_marginal_likelihood(merged, sigma, prior.tau)
        )
    return log_ratio


class TestSplitPrior:
    def test_depth_zero(self):
        assert split_prior_prob(0, 0.95, 2.0) == 0.95

    def test_depth_one(self):
        assert split_prior_prob(1, 0.95, 2.0) == pytest.approx(0.2375, abs=1e-15)

    def test_depth_three(self):
        assert split_prior_prob(3, 0.95, 2.0) == pytest.approx(0.059375, abs=1e-15)


class TestLogMarginalLikelihood:
    def test_empty_node_is_zero(self):
        assert log_marginal_likelihood(SuffStats(0, 0.0), 0.7, 0.3) == 0.0

    def test_matches_quadrature_oracle(self):
        # Oracle: log of int N(r=1; mu, 1) N(mu; 0, 1) dmu over N(1; 0, 1).
        num, _ = quad(lambda mu: norm.pdf(1.0, mu, 1.0) * norm.pdf(mu, 0.0, 1.0), -12, 12)
        oracle = math.log(num / norm.pdf(1.0, 0.0, 1.0))
        got = log_marginal_likelihood(SuffStats(1, 1.0), 1.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(-0.0965736, abs=1e-7)

    def test_additivity_over_disjoint_sets(self):
        a = SuffStats(3, 1.5)
        b = SuffStats(5, -0.5)
        merged = a + b
        direct = SuffStats(8, 1.0)
        assert log_marginal_likelihood(merged, 0.9, 0.4) == log_marginal_likelihood(
            direct, 0.9, 0.4
        )

    def test_depends_only_on_n_and_s(self):
        # Different residuals with the same count and sum.
        a = np.array([0.5, 0.5, 0.5, 0.5])
        b = np.array([3.0, -1.0, 0.0, 0.0])
        x = log_marginal_likelihood(SuffStats(a.size, float(a.sum())), 1.1, 0.3)
        y = log_marginal_likelihood(SuffStats(b.size, float(b.sum())), 1.1, 0.3)
        assert x == y
        assert [f.name for f in fields(SuffStats)] == ["n", "s"]


class TestPropose:
    def setup_method(self):
        self.grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 100)

    def test_single_node_always_birth(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prop = propose(Tree(), self.grid, rng)
            assert prop is not None and prop.move == BIRTH
            assert prop.node_id == 1

    def test_ancestor_rule_truncates_cutpoints(self):
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(4000):
            prop = propose(tree, self.grid, rng)
            if prop is not None and prop.move == BIRTH and prop.node_id == 2 and prop.v == 0:
                assert 0 <= prop.c < 50
                seen.add(prop.c)
        assert len(seen) > 40  # covers most of {0..49}

    def test_no_available_rule_returns_null(self):
        grid = CutpointGrid([np.array([0.5])])
        tree = Tree()
        tree.birth(1, 0, 0, 0.0, 0.0)
        rng = np.random.default_rng(2)
        # Children have no admissible cutpoint on the only variable.
        nulls = births = 0
        for _ in range(500):
            prop = propose(tree, grid, rng)
            if prop is None:
                nulls += 1
            elif prop.move == BIRTH:
                births += 1
        assert nulls > 0 and births == 0

    def test_selection_uniformity(self):
        # Fixed 5-leaf tree; empirical node frequencies within 3 standard errors.
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        tree.birth(2, 1, 50, 0.0, 0.0)
        tree.birth(3, 1, 50, 0.0, 0.0)
        tree.birth(4, 0, 25, 0.0, 0.0)
        terminals = tree.terminals()
        nogs = tree.nogs()
        assert len(terminals) == 5
        rng = np.random.default_rng(3)
        n_props = 100_000
        birth_counts = {t: 0 for t in terminals}
        death_counts = {g: 0 for g in nogs}
        n_birth = n_death = 0
        for _ in range(n_props):
            prop = propose(tree, self.grid, rng)
            assert prop is not None
            if prop.move == BIRTH:
                birth_counts[prop.node_id] += 1
                n_birth += 1
            else:
                death_counts[prop.node_id] += 1
                n_death += 1
        # Move choice is a fair coin for a multi-leaf tree.
        se_move = math.sqrt(n_props * 0.25)
        assert abs(n_birth - n_props / 2) < 3 * se_move
        for t in terminals:
            expect = n_birth / len(terminals)
            se = math.sqrt(n_birth * (1 / 5) * (4 / 5))
            assert abs(birth_counts[t] - expect) < 3 * se
        for g in nogs:
            expect = n_death / len(nogs)
            se = math.sqrt(n_death * (1 / len(nogs)) * (1 - 1 / len(nogs)))
            assert abs(death_counts[g] - expect) < 3 * se


class TestAcceptLogRatio:
    def test_prior_logs_are_those_of_split_prior_prob(self):
        # Derived once per run, the logs keep the bits of the per-call ones.
        for alpha, beta in ((0.95, 2.0), (0.5, 0.0), (0.3, 7.5)):
            prior = make_prior(alpha=alpha, beta=beta)
            for d in range(MAX_DEPTH):
                p_d = split_prior_prob(d, alpha, beta)
                p_d1 = split_prior_prob(d + 1, alpha, beta)
                assert prior.split_logs[d] == (
                    math.log(p_d), 2.0 * math.log1p(-p_d1), math.log1p(-p_d)
                )

    def test_min_leaf_deterministic_reject(self):
        prior = make_prior(min_leaf=5)
        tree = Tree()
        prop = Proposal(BIRTH, 1, 0, 10)
        ratio = accept_log_ratio(tree, prop, SuffStats(0, 0), SuffStats(0, 0), 1.0, prior)
        assert ratio == -math.inf

    def test_detailed_balance(self):
        # A birth at a random terminal of a random tree, with random child
        # statistics, and the death that undoes it: their ratios cancel
        # exactly.  The births cover the root, a terminal whose sibling is
        # terminal (its parent stops being a nog) and one whose sibling is
        # internal; each keeps the bits of `birth_ratio_oracle`.
        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 10)
        rng = np.random.default_rng(41)
        kinds = set()
        cases = 0
        while cases < 1000:
            prior = make_prior(alpha=rng.uniform(0.5, 0.99), beta=rng.uniform(0.0, 3.0),
                               tau=rng.uniform(0.05, 1.0))
            tree = grow_random_tree(rng, grid, n_births=int(rng.integers(0, 10)))
            terminals = tree.terminals()
            k = terminals[rng.integers(len(terminals))]
            lo, hi = available_cut_ranges(tree, k, grid.counts)[0]
            if hi <= lo or depth_of_id(k) >= MAX_DEPTH:
                continue
            if k == 1:
                kinds.add("root")
            else:
                kinds.add("internal" if isinstance(tree.nodes[k ^ 1], tuple) else "terminal")
            stats_l = SuffStats(int(rng.integers(0, 30)), float(rng.normal(0.0, 3.0)))
            stats_r = SuffStats(int(rng.integers(0, 30)), float(rng.normal(0.0, 3.0)))
            sigma = float(rng.uniform(0.1, 2.0))
            prior_only = bool(rng.random() < 0.1)
            after = Tree(dict(tree.nodes))
            after.birth(k, 0, lo, 0.0, 0.0)
            lr_birth = accept_log_ratio(
                tree, Proposal(BIRTH, k, 0, lo), stats_l, stats_r, sigma, prior, prior_only
            )
            lr_death = accept_log_ratio(
                after, Proposal(DEATH, k), stats_l, stats_r, sigma, prior, prior_only
            )
            oracle = birth_ratio_oracle(tree, after, k, stats_l, stats_r, sigma, prior, prior_only)
            assert lr_birth == oracle
            assert lr_death == -lr_birth
            cases += 1
        assert kinds == {"root", "terminal", "internal"}

    def test_depends_on_stats_only_through_n_and_s(self):
        # Two row sets per child with equal counts and sums, different rows.
        prior = make_prior(min_leaf=1)
        tree = Tree()
        prop = Proposal(BIRTH, 1, 0, 3)
        sets = [
            (np.array([1.0, 0.0, 0.0]), np.array([0.25, 0.25])),
            (np.array([-2.0, 1.5, 1.5]), np.array([1.0, -0.5])),
        ]
        ratios = [
            accept_log_ratio(
                tree, prop, SuffStats(left.size, float(left.sum())),
                SuffStats(right.size, float(right.sum())), 1.0, prior,
            )
            for left, right in sets
        ]
        assert ratios[0] == ratios[1]

    def test_prior_only_drops_likelihood(self):
        prior = make_prior(min_leaf=0)
        tree = Tree()
        prop = Proposal(BIRTH, 1, 0, 3)
        with_lik = accept_log_ratio(tree, prop, SuffStats(3, 8.0), SuffStats(2, -4.0), 0.5, prior)
        without = accept_log_ratio(tree, prop, SuffStats(3, 8.0), SuffStats(2, -4.0), 0.5, prior, prior_only=True)
        empty = accept_log_ratio(tree, prop, SuffStats(0, 0.0), SuffStats(0, 0.0), 0.5, prior)
        assert without == empty  # zero-count stats have zero likelihood term
        assert with_lik != without


class TestConjugateDraws:
    def test_mu_prior_when_empty(self):
        rng = np.random.default_rng(4)
        draws = np.array([draw_mu(SuffStats(0, 0), 1.0, 0.5, rng) for _ in range(50_000)])
        assert abs(draws.mean()) < 3 * 0.5 / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(0.25, rel=0.05)

    def test_mu_moments_match_closed_form(self):
        # n=10, s=5, sigma=1, tau=0.5: mean 5*0.25/3.5, var 0.25/3.5.
        rng = np.random.default_rng(5)
        stats = SuffStats(10, 5.0)
        draws = np.array([draw_mu(stats, 1.0, 0.5, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(5 * 0.25 / 3.5, rel=0.01)
        assert draws.var() == pytest.approx(0.25 / 3.5, rel=0.01)

    def test_mu_likelihood_dominance(self):
        rng = np.random.default_rng(6)
        stats = SuffStats(10_000_000, 10_000_000 * 1.7)
        draws = np.array([draw_mu(stats, 1.0, 0.5, rng) for _ in range(100)])
        assert draws.mean() == pytest.approx(1.7, abs=1e-2)

    def test_sigma_inverse_moment(self):
        # E[1/sigma^2] = (nu + n) / (nu lam + rss).
        rng = np.random.default_rng(7)
        nu, lam, n, rss = 3.0, 0.2, 50, 12.0
        draws = np.array([draw_sigma(n, rss, nu, lam, rng) for _ in range(100_000)])
        assert np.mean(1.0 / draws**2) == pytest.approx((nu + n) / (nu * lam + rss), rel=0.01)

    def test_sigma_prior_when_no_data(self):
        rng = np.random.default_rng(8)
        nu, lam = 3.0, 0.2
        draws = np.array([draw_sigma(0, 0.0, nu, lam, rng) for _ in range(100_000)])
        assert np.mean(1.0 / draws**2) == pytest.approx(nu / (nu * lam), rel=0.01)

    def test_sigma_monotone_in_rss(self):
        for seed in range(20):
            lo = draw_sigma(10, 1.0, 3.0, 0.2, np.random.default_rng(seed))
            hi = draw_sigma(10, 5.0, 3.0, 0.2, np.random.default_rng(seed))
            assert hi > lo

    def test_sigma_quantile_calibration(self):
        # P(sigma < sd) = q under the prior sqrt(nu lam / chisq_nu).
        rng = np.random.default_rng(9)
        sd, nu, q = 0.8, 3.0, 0.9
        lam = sigma_lambda(sd, nu, q)
        draws = np.array([draw_sigma(0, 0.0, nu, lam, rng) for _ in range(200_000)])
        assert np.mean(draws < sd) == pytest.approx(q, abs=0.005)

    def test_sigma_lambda_matches_chi2_ppf_bitwise(self):
        from scipy.stats import chi2

        # Every pinned quantile is scipy's to the bit, and so is the scale
        # sigma_lambda derives from it.
        for (nu, q), pinned in CHI2_QUANTILES.items():
            ppf = float(chi2.ppf(1 - q, nu))
            lam = 0.3 * 0.3 * ppf / nu
            assert (pinned, sigma_lambda(0.3, nu, q)) == (ppf, lam), (
                f"CHI2_QUANTILES[{(nu, q)}] is {pinned!r}; scipy {scipy.__version__}"
                f" gives {ppf!r}"
            )
        rng = np.random.default_rng(15)
        cases = [(0.3, nu, q) for nu in (0.5, 1.0, 3.0, 10.0, 100.0)
                 for q in (0.5, 0.75, 0.9, 0.99)]
        cases += zip(rng.uniform(0.01, 2.0, 200), np.exp(rng.uniform(-3.0, 7.0, 200)),
                     rng.uniform(0.001, 0.999, 200))
        got = np.array([sigma_lambda(sd, nu, q) for sd, nu, q in cases])
        want = np.array([float(sd * sd * chi2.ppf(1 - q, nu) / nu) for sd, nu, q in cases])
        assert got.tobytes() == want.tobytes()

    def test_cli_and_sigma_prior_leave_scipy_stats_unloaded(self):
        # A worker, predict, sensitivity and generate never import scipy, nor
        # does a chain start with a pinned sigma prior; any other prior loads
        # only scipy.special for its quantile.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import bartgrid.cli\n"
            "from bartgrid import sampler\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "loaded()\n"
            "x = np.linspace(0.0, 1.0, 40).reshape(20, 2)\n"
            "sampler.run_serial(x, x[:, 0], sampler.FitSettings(m=3, draws=4, burn=1))\n"
            "loaded()\n"
            "sampler.sigma_lambda(0.3, 3.0, 0.8)\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60).stdout.splitlines()
        assert out == ["[]", "[]", "True False"]


def build_shard(rng, n, d, m, blocks=1, numcut=10):
    x = rng.uniform(-1, 1, (n, d))
    ys = rng.standard_normal(n) * 0.3
    bounds = partition_bounds(n, blocks)
    grid = CutpointGrid.from_ranges(np.full(d, -1.0), np.full(d, 1.0), numcut)
    blocks = [(int(bounds[i]), int(bounds[i + 1])) for i in range(blocks)]
    return ShardData(grid.bin(x), ys, m, blocks)


def leaf_update_oracle(shard, j, old, new):
    """The residual `apply_mus(j, old, new)` should leave: every row of tree j,
    in its row order, shifted by its terminal's change of mean."""
    slices = shard.slices(j)
    ids = [node_id for node_id, *_ in slices]
    rank = np.searchsorted(sorted(ids), ids)
    lens = [stop - start for _, start, stop, _ in slices]
    residual = shard.residual.copy()
    residual[shard.order[j]] -= (new - old)[rank].repeat(lens)
    return residual


def float_leaves(tree, grid, x):
    """Terminal id of every row of `x` under the float rule x[v] < value(v, c)."""
    leaf = np.ones(x.shape[0], dtype=np.int64)
    # Ascending ids visit every parent before its children.
    for k, rule in sorted(tree.nodes.items()):
        if isinstance(rule, tuple):
            sel = leaf == k
            leaf[sel] = 2 * k + ~(x[sel, rule[0]] < grid.value(*rule))
    return leaf


class TestShardStats:
    def test_empty_shard_rows_all_zero(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (4, 2))
        # Variable 0's first cutpoint is its smallest value, so its rule sends
        # every row right and node 2 is reached by no row; then propose a
        # birth at it.
        grid = CutpointGrid([np.array([x[:, 0].min(), 1.0]), np.linspace(-1.0, 1.0, 10)])
        shard = ShardData(grid.bin(x), rng.standard_normal(4), 1, [(0, 4)])
        shard.apply_birth(0, 1, 0, 0)
        assert [s[:3] for s in shard.slices(0)] == [(2, 0, 0), (3, 0, 4)]
        prop = Proposal(BIRTH, 2, 1, 3)
        left, right = LocalProvider(shard).move_stats(0, prop)
        assert (left.n, left.s) == (0, 0.0)
        assert (right.n, right.s) == (0, 0.0)

    def test_leaf_update_needs_no_gather(self):
        # apply_mus finds each row's leaf by its label, so it runs on the trees
        # in any order, with no mu_stats_blocks before it, and subtracts the
        # same doubles as a pass through the tree's row order.
        rng = np.random.default_rng(13)
        shard = build_shard(rng, 200, 2, 3, blocks=2)
        shard.apply_birth(0, 1, 0, 4)
        shard.apply_birth(0, 3, 1, 6)
        shard.apply_birth(0, 2, 1, 3)
        shard.apply_death(0, 3, 0.3, 0.05)
        shard.apply_birth(2, 1, 1, 2)
        for j in (2, 0, 1, 0, 2, 2):
            old, new = rng.normal(0, 0.3, (2, len(shard.slices(j))))
            expected = leaf_update_oracle(shard, j, old, new)
            shard.apply_mus(j, old, new)
            assert shard.residual.tobytes() == expected.tobytes()

    def test_half_shards_sum_to_whole(self):
        rng = np.random.default_rng(11)
        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 10)
        n = 64
        x = rng.uniform(-1, 1, (n, 2))
        ys = rng.standard_normal(n)
        whole = ShardData(grid.bin(x), ys, 1, [(0, 32), (32, 64)])
        left_half = ShardData(grid.bin(x[:32]), ys[:32], 1, [(0, 32)])
        right_half = ShardData(grid.bin(x[32:]), ys[32:], 1, [(0, 32)])
        prop = Proposal(BIRTH, 1, 0, 4)
        w_l, w_r = LocalProvider(whole).move_stats(0, prop)
        a_l, a_r = LocalProvider(left_half).move_stats(0, prop)
        b_l, b_r = LocalProvider(right_half).move_stats(0, prop)
        assert pairwise_fold([a_l, b_l]) == w_l
        assert pairwise_fold([a_r, b_r]) == w_r

    def test_stats_match_brute_force_partial_residuals(self):
        # Oracle recomputes R_j from scratch: ys minus all other trees' fits.
        # The shard sums the cached residual; with count * leaf mean added,
        # that is the partial-residual sum.
        rng = np.random.default_rng(12)
        n, d, m = 1000, 3, 4
        x = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * x[:, 0]) + 0.2 * rng.standard_normal(n)
        settings = FitSettings(m=m, draws=20, burn=5, thin=1, seed=13, min_leaf=2, numcut=20)
        settings.validate()
        grid = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), settings.numcut)
        y_mid = 0.5 * (y.min() + y.max())
        y_range = y.max() - y.min()
        ys = (y - y_mid) / y_range
        shard = ShardData(grid.bin(x), ys, m, [(0, n)])
        forest = [Tree() for _ in range(m)]
        sd = float(np.std(ys, ddof=1))
        run_chain_core(
            forest, grid, resolve_prior(settings, sd), sd, np.random.default_rng(14),
            LocalProvider(shard), settings,
        )
        for j in range(m):
            r_oracle = ys.copy()
            for k in range(m):
                if k != j:
                    r_oracle -= CompiledTrees([forest[k]]).sum(grid.bin(x))
            leaf_of_row = route_rows(forest[j], grid, x)
            terminals = forest[j].terminals()
            assert shard.mu_stats_blocks(j).shape == (1, 2, len(terminals))
            stats = pairwise_fold(shard.mu_stats_blocks(j))
            assert stats.shape == (2, len(terminals))
            for node_id, cnt, s in zip(terminals, *stats):
                rows = leaf_of_row == node_id
                assert cnt == int(rows.sum())
                partial = s + cnt * forest[j].nodes[node_id]
                assert partial == pytest.approx(float(r_oracle[rows].sum()), abs=1e-8)

    def test_chain_reads_partial_residual_sums(self, monkeypatch):
        # The shard sums the cached residual and the chain adds each node's
        # count * mean after the fold.  What the MH ratio and the leaf-mean
        # draw read must be the sums of R_j = ys minus the other trees' fits,
        # recomputed from scratch, for births, deaths and every leaf pass.
        rng = np.random.default_rng(60)
        n, d, m = 300, 3, 5
        x = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * x[:, 0]) + 0.2 * rng.standard_normal(n)
        settings = FitSettings(m=m, draws=30, burn=0, thin=30, seed=61, min_leaf=1, numcut=20)
        grid = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), settings.numcut)
        ys = (y - 0.5 * (y.min() + y.max())) / (y.max() - y.min())
        shard = ShardData(grid.bin(x), ys, m, [(0, 150), (150, 300)])
        forest = [Tree() for _ in range(m)]
        checked = collections.Counter()

        def partial_residual(j):
            others = forest[:j] + forest[j + 1:]
            return ys - CompiledTrees(others).sum(shard.xb) if others else ys

        def assert_sums(stats, rows, r):
            n_got, s_got = stats
            assert n_got == np.count_nonzero(rows)
            assert s_got == pytest.approx(float(r[rows].sum()), abs=1e-12)

        ratio = sampler.accept_log_ratio

        def checked_ratio(tree, prop, stats_l, stats_r, *args):
            j = next(k for k, t in enumerate(forest) if t is tree)
            leaf = route_rows(tree, grid, x)
            k = prop.node_id
            if prop.move == BIRTH:
                left = (leaf == k) & (shard.xb[prop.v] <= prop.c)
                right = (leaf == k) & ~left
            else:
                left, right = leaf == 2 * k, leaf == 2 * k + 1
            r = partial_residual(j)
            assert_sums((stats_l.n, stats_l.s), left, r)
            assert_sums((stats_r.n, stats_r.s), right, r)
            checked[prop.move] += 1
            return ratio(tree, prop, stats_l, stats_r, *args)

        draw_mus = sampler.draw_mus

        def checked_draw_mus(stats, *args):
            # Trees are updated in order, one leaf pass each.
            j = checked["leaf passes"] % m
            leaf = route_rows(forest[j], grid, x)
            r = partial_residual(j)
            for k, cell in zip(forest[j].terminals(), stats.T):
                assert_sums(cell, leaf == k, r)
            checked["leaf passes"] += 1
            return draw_mus(stats, *args)

        monkeypatch.setattr(sampler, "accept_log_ratio", checked_ratio)
        monkeypatch.setattr(sampler, "draw_mus", checked_draw_mus)
        sd = float(np.std(ys, ddof=1))
        result = run_chain_core(
            forest, grid, resolve_prior(settings, sd), sd, np.random.default_rng(62),
            LocalProvider(shard), settings,
        )
        assert checked["leaf passes"] == settings.draws * m
        assert checked[BIRTH] and checked[DEATH]
        assert result.birth_accepted.sum() > 0 and result.death_accepted.sum() > 0


def _masked_move_stats(shard, x, leaf, prop, cutval):
    """Per-block move statistics from a masked pass over every row of a block,
    splitting on the float rows `x` with the float rule: counts and sums of
    the cached residual, with no leaf mean added."""
    out = []
    for lo, hi in shard.blocks:
        r = shard.residual[lo:hi]
        if prop.move == BIRTH:
            sel = leaf[lo:hi] == prop.node_id
            go_left = x[lo:hi, prop.v][sel] < cutval
            r_l, r_r = r[sel][go_left], r[sel][~go_left]
        else:
            r_l = r[leaf[lo:hi] == 2 * prop.node_id]
            r_r = r[leaf[lo:hi] == 2 * prop.node_id + 1]
        out.append((SuffStats(r_l.size, float(r_l.sum())), SuffStats(r_r.size, float(r_r.sum()))))
    return out


def _masked_leaf_stats(shard, leaf, terminals):
    """Per-block (count, residual sum) of each terminal from a masked pass,
    each sum added as `np.add.reduceat` adds one segment."""
    out = np.zeros((len(shard.blocks), 2, len(terminals)))
    for b, (lo, hi) in enumerate(shard.blocks):
        for i, k in enumerate(terminals):
            r = shard.residual[lo:hi][leaf[lo:hi] == k]
            if r.size:
                out[b, :, i] = r.size, np.add.reduceat(r, [0])[0]
    return out


class TestShardLayout:
    """Each terminal owns one ascending slice of `order`, whatever the moves.

    The shards hold cut indices; the oracles split the float rows with the
    float rule x[v] < value(v, c).
    """

    # 257 rows is the first shard size whose row order is uint16.
    @pytest.mark.parametrize("blocks, n", [(2, 203), (4, 203), (2, 257)])
    def test_random_moves_keep_the_layout(self, blocks, n):
        self._random_moves(np.random.default_rng(40 + blocks), blocks, 12, np.uint8, n)

    def test_random_moves_on_a_uint16_grid(self):
        self._random_moves(np.random.default_rng(47), 2, 300, np.uint16, 203)

    @staticmethod
    def _random_moves(rng, blocks, numcut, dtype, n):
        d = 3
        x = rng.uniform(-1, 1, (n, d))
        # Variable 0 grows with the row index, so cuts on it make nodes whose
        # rows lie in one block.
        x[:, 0] = np.sort(x[:, 0])
        ys = rng.standard_normal(n)
        grid = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), numcut)
        bounds = partition_bounds(n, blocks)
        half = int(bounds[blocks // 2])
        whole = ShardData(
            grid.bin(x), ys, 2, [(int(bounds[i]), int(bounds[i + 1])) for i in range(blocks)]
        )
        assert whole.xb.dtype == dtype
        assert whole.order.dtype == (np.uint8 if n <= 256 else np.uint16)
        halves = [
            ShardData(grid.bin(x[:half]), ys[:half], 2, [
                (int(bounds[i]), int(bounds[i + 1])) for i in range(blocks // 2)
            ]),
            ShardData(grid.bin(x[half:]), ys[half:], 2, [
                (int(bounds[i]) - half, int(bounds[i + 1]) - half)
                for i in range(blocks // 2, blocks)
            ]),
        ]
        shards = [whole, *halves]
        forest = [Tree(), Tree()]
        one_block_nodes = 0
        for step in range(60):
            j = int(rng.integers(2))
            tree = forest[j]
            nodes = tree.nodes
            terminals = tree.terminals()
            nogs = tree.nogs()
            leaf = float_leaves(tree, grid, x)

            # Move statistics, bitwise against a masked pass, for a birth and
            # a death proposal on the current tree.
            node_id = terminals[int(rng.integers(len(terminals)))]
            v = int(rng.integers(d))
            prop = Proposal(BIRTH, node_id, v, int(rng.integers(grid.counts[v])))
            cutval = grid.value(prop.v, prop.c)
            got = whole.move_stats_blocks(j, prop)
            assert got == _masked_move_stats(whole, x, leaf, prop, cutval)
            if nogs:
                nog = nogs[int(rng.integers(len(nogs)))]
                mu_l, mu_r = nodes[2 * nog], nodes[2 * nog + 1]
                death = Proposal(DEATH, nog)
                got = whole.move_stats_blocks(j, death)
                assert got == _masked_move_stats(whole, x, leaf, death, 0.0)

            # Apply a birth or a death to every shard and to the tree, as the
            # chain does: a birth's children keep the node's mean and move no
            # residual; a death keeps the left child's mean and moves only
            # the right child's rows.
            before = [shard.residual.copy() for shard in shards]
            if not nogs or rng.random() < 0.6:
                for shard in shards:
                    shard.apply_birth(j, node_id, v, prop.c)
                mu = nodes[node_id]
                tree.birth(node_id, v, prop.c, mu, mu)
                for shard, old in zip(shards, before):
                    assert shard.residual.tobytes() == old.tobytes()
            else:
                right_rows = leaf == 2 * nog + 1
                for shard in shards:
                    shard.apply_death(j, nog, mu_l, mu_r)
                tree.death(nog, mu_l)
                expected = before[0].copy()
                expected[right_rows] -= mu_l - mu_r
                assert whole.residual.tobytes() == expected.tobytes()
                assert np.array_equal(
                    np.concatenate([h.residual for h in halves]), whole.residual
                )

            # Layout: one ascending slice per terminal, equal to the row set
            # the float rule routes there, with the right count in every block.
            leaf = float_leaves(tree, grid, x)
            terminals = tree.terminals()
            slices = whole.slices(j)
            assert sorted(s[0] for s in slices) == terminals
            assert [s[1] for s in slices[1:]] == [s[2] for s in slices[:-1]]
            assert slices[0][1] == 0 and slices[-1][2] == n
            for node_id, start, stop, counts in slices:
                rows = whole.order[j, start:stop]
                assert np.array_equal(rows, np.flatnonzero(leaf == node_id))
                assert counts == [
                    int(np.count_nonzero((rows >= lo) & (rows < hi))) for lo, hi in whole.blocks
                ]
                one_block_nodes += sum(c > 0 for c in counts) == 1

            # Leaf labels: the rows of a terminal share one label, the same
            # on every shard, and no two terminals share one.
            label_of = {}
            for shard in shards:
                for node_id, start, stop, _ in shard.slices(j):
                    held = np.unique(shard.label[j][shard.order[j, start:stop]])
                    assert held.size <= 1
                    if held.size:
                        assert label_of.setdefault(node_id, int(held[0])) == held[0]
            assert len(set(label_of.values())) == len(label_of)

            # Leaf statistics against a masked pass, and the halves' fold
            # equal to the whole shard's, bit for bit.
            mus = np.array([nodes[k] for k in terminals])
            per_block = whole.mu_stats_blocks(j)
            assert per_block.shape == (blocks, 2, len(terminals))
            assert per_block.tobytes() == _masked_leaf_stats(whole, leaf, terminals).tobytes()
            folded = pairwise_fold(per_block)
            split = pairwise_fold(np.stack([
                pairwise_fold(h.mu_stats_blocks(j)) for h in halves
            ]))
            assert np.array_equal(folded, split)

            # Leaf-mean update, bit for bit against the oracle on every shard.
            new = rng.normal(0, 0.3, mus.size)
            expected = leaf_update_oracle(whole, j, mus, new)
            whole.apply_mus(j, mus, new)
            for h in halves:
                h.apply_mus(j, mus, new)
            nodes.update(zip(terminals, new.tolist()))
            assert whole.residual.tobytes() == expected.tobytes()
            check_residual_invariant(forest, grid, whole, atol=1e-12)
            assert np.array_equal(
                np.concatenate([h.residual for h in halves]), whole.residual
            )
        assert one_block_nodes > 0

    @pytest.mark.parametrize(
        "n, dtype", [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
    )
    def test_row_state_takes_the_narrowest_order_type(self, n, dtype):
        # The per-tree row order takes the narrowest unsigned type that holds
        # the largest row index; with the one-byte labels, a shard of up to
        # 65,536 rows keeps 3 bytes per row and tree.
        m = 2
        order_dtype, nbytes = fixed_cost.row_state(n, m)
        assert order_dtype == dtype
        assert nbytes == m * n * (np.dtype(dtype).itemsize + 1)

    def test_leaf_labels_are_one_byte_per_row(self):
        # Each tree's leaf labels are one uint8 row of a single (m, n) array,
        # and a birth below 256 leaves keeps them there.
        rng = np.random.default_rng(45)
        n, m = 500, 7
        shard = build_shard(rng, n, 2, m, blocks=2)
        base = shard.label[0].base
        assert base.shape == (m, n) and base.dtype == np.uint8
        assert all(label.base is base for label in shard.label)
        shard.apply_birth(3, 1, 0, 4)
        assert shard.label[3].base is base and shard.label[3].dtype == np.uint8
        assert len(np.unique(shard.label[3])) == 2

    def test_leaf_labels_widen_past_256_leaves(self):
        # A tree's 257th leaf needs label 256: that tree's labels alone
        # widen to uint16, and the leaf-mean update still matches the oracle.
        rng = np.random.default_rng(49)
        n = 4000
        shard = build_shard(rng, n, 1, 2, numcut=300)
        assert shard.xb.dtype == np.uint16
        # Splitting nodes 1..256 in heap order splits a leaf each time; each
        # cut halves the node's range of cut indices.
        spans = {1: (0, int(shard.xb.max()) + 1)}
        for node_id in range(1, 257):
            lo, hi = spans.pop(node_id)
            c = (lo + hi) // 2 - 1
            spans[2 * node_id], spans[2 * node_id + 1] = (lo, c + 1), (c + 1, hi)
            shard.apply_birth(0, node_id, 0, c)
            assert shard.label[0].dtype == (np.uint8 if node_id < 256 else np.uint16)
        assert len(shard.slices(0)) == 257
        assert shard.label[1].dtype == np.uint8
        assert np.count_nonzero(shard.label[0] == 256) > 0
        for _, start, stop, _ in shard.slices(0):
            assert np.unique(shard.label[0][shard.order[0, start:stop]]).size <= 1
        old, new = rng.normal(0, 0.3, (2, 257))
        expected = leaf_update_oracle(shard, 0, old, new)
        shard.apply_mus(0, old, new)
        assert shard.residual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("numcut, width", [(255, 1), (256, 2)])
    def test_rows_are_cut_indices(self, numcut, width):
        # Up to 255 cutpoints a row costs one byte per variable; no float
        # copy of the rows is kept.
        rng = np.random.default_rng(46)
        n, d = 500, 3
        shard = build_shard(rng, n, d, 2, numcut=numcut)
        assert shard.xb.shape == (d, n) and shard.xb.nbytes == d * n * width
        for name in ShardData.__slots__:
            value = getattr(shard, name)
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                assert value.ndim == 1, name

    def test_rejects_bad_cut_index_matrix(self):
        rng = np.random.default_rng(48)
        x = rng.uniform(-1, 1, (10, 2))
        ys = rng.standard_normal(10)
        xb = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), 5).bin(x)
        with pytest.raises(ValueError, match=r"xb must be \(variables, 10\) cut indices"):
            ShardData(xb.T, ys, 1, [(0, 10)])
        with pytest.raises(ValueError, match=r"xb must be \(variables, 10\) cut indices"):
            ShardData(xb[:, :9], ys, 1, [(0, 10)])
        with pytest.raises(ValueError, match="xb must hold unsigned cut indices, got dtype float64"):
            ShardData(x.T, ys, 1, [(0, 10)])


class TestShardAllocations:
    def test_leaf_pass_allocates_no_row_block(self):
        # After the first iteration of a serial chain, mu_stats_blocks,
        # apply_mus and rss_blocks allocate no block of n float64s: the leaf
        # pass sums the residual alone, with no per-row leaf means.
        # tracemalloc's peak over a call, less the memory traced before it,
        # bounds what the call had live at once.
        rng = np.random.default_rng(50)
        n, d, m = 4000, 3, 10
        x = rng.uniform(-1, 1, (n, d))
        y = np.sin(2 * x[:, 0]) + 0.2 * rng.standard_normal(n)
        settings = FitSettings(m=m, draws=4, burn=0, thin=1, seed=51, min_leaf=5)
        grid = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), settings.numcut)
        ys = (y - 0.5 * (y.min() + y.max())) / (y.max() - y.min())
        peaks = {"mu_stats_blocks": [], "apply_mus": [], "rss_blocks": []}
        measuring = []

        def probe(name):
            method = getattr(ShardData, name)

            def call(self, *args, **kwargs):
                if not measuring:
                    return method(self, *args, **kwargs)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = method(self, *args, **kwargs)
                peaks[name].append(tracemalloc.get_traced_memory()[1] - before)
                return out

            return call

        probed = type("ProbedShard", (ShardData,), {"__slots__": ()} | {
            name: probe(name) for name in peaks
        })
        shard = probed(grid.bin(x), ys, m, [(0, n)])
        sd = float(np.std(ys, ddof=1))
        tracemalloc.start()
        try:
            run_chain_core(
                [Tree() for _ in range(m)], grid, resolve_prior(settings, sd), sd,
                np.random.default_rng(52), LocalProvider(shard), settings,
                on_iteration=lambda *_: measuring.append(True),
            )
        finally:
            tracemalloc.stop()
        block = n * 8
        assert len(peaks["apply_mus"]) == len(peaks["mu_stats_blocks"]) == 3 * m
        assert len(peaks["rss_blocks"]) == 3
        assert max(peaks["apply_mus"]) < block, peaks["apply_mus"]
        assert max(peaks["rss_blocks"]) < block, peaks["rss_blocks"]
        assert max(peaks["mu_stats_blocks"]) < block, peaks["mu_stats_blocks"]


class TestFold:
    def test_fold_singleton_and_pair(self):
        assert pairwise_fold([3.0]) == 3.0
        assert pairwise_fold([1.0, 2.0]) == 3.0

    def test_fold_regrouping_for_power_of_two_chunks(self):
        rng = np.random.default_rng(16)
        values = list(rng.uniform(-1, 1, 16) * 10**rng.integers(-8, 8, 16).astype(float))
        full = pairwise_fold(values)
        for chunk in (1, 2, 4, 8, 16):
            parts = [
                pairwise_fold(values[i : i + chunk]) for i in range(0, len(values), chunk)
            ]
            assert pairwise_fold(parts) == full

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 3, 4))])
    def test_fold_empty_errors(self, empty):
        with pytest.raises(ValueError, match="cannot fold an empty list"):
            pairwise_fold(empty)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_array_fold_equals_list_and_scalar_folds(self, k):
        # Leaf statistics fold as one (blocks, rows, leaves) array; its fold
        # must group every cell exactly as the list and the scalar folds do.
        rng = np.random.default_rng(17 + k)
        stacked = rng.uniform(-1, 1, (k, 3, 5)) * 10.0 ** rng.integers(-8, 8, (k, 3, 5))
        folded = pairwise_fold(stacked)
        assert folded.shape == (3, 5)
        assert np.array_equal(folded, pairwise_fold(list(stacked)))
        for r, c in np.ndindex(3, 5):
            assert folded[r, c] == pairwise_fold(stacked[:, r, c].tolist())

    def test_all_zero(self):
        total = pairwise_fold([SuffStats(), SuffStats(), SuffStats()])
        assert total == SuffStats(0, 0.0)

    def test_single_identity(self):
        st = SuffStats(3, 1.5)
        assert pairwise_fold([st]) == st

    def test_rank_sorted_is_deterministic(self):
        rng = np.random.default_rng(1)
        parts = [SuffStats(int(rng.integers(10)), rng.normal()) for _ in range(7)]
        direct = pairwise_fold(parts)
        order = rng.permutation(7)
        shuffled = [parts[i] for i in order]
        resorted = [shuffled[int(np.argsort(order)[i])] for i in range(7)]
        assert resorted == parts
        assert pairwise_fold(resorted) == direct

    def test_partition_bounds(self):
        assert partition_bounds(10, 3).tolist() == [0, 4, 7, 10]
        assert partition_bounds(10, 1).tolist() == [0, 10]
        bounds = partition_bounds(7_016_430, 192)
        sizes = np.diff(bounds)
        assert sizes.sum() == 7_016_430
        assert sizes.max() - sizes.min() <= 1
        assert set(np.unique(sizes)) == {36543, 36544}


class TestBlockLayout:
    def test_worker_row_ranges_tile_the_data(self):
        for n, blocks, p in [(100, 4, 2), (1001, 8, 4), (57, 2, 2), (64, 16, 4), (10, 3, 1)]:
            stops = [worker_row_range(n, blocks, p, r) for r in range(1, p + 1)]
            assert stops[0][0] == 0 and stops[-1][1] == n
            for (lo1, hi1), (lo2, _hi2) in zip(stops, stops[1:]):
                assert hi1 == lo2
            for r, (lo, hi) in enumerate(stops, start=1):
                slices = shard_block_slices(hi - lo, blocks, p, r)
                assert slices[0][0] == 0 and slices[-1][1] == hi - lo

    def test_block_layout_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            worker_row_range(100, 3, 2, 1)
        with pytest.raises(ValueError, match="power of two"):
            worker_row_range(100, 12, 2, 1)
        # One worker, serial or not, folds its blocks as the serial fit does.
        assert reduction_block_count(6, 1) == 6
        assert shard_block_slices(10, 3, 1, 1) == [(0, 4), (4, 7), (7, 10)]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_default_layout_is_one_block_per_worker(self, workers):
        assert reduction_block_count(0, workers) == workers
        assert worker_row_range(40, 0, workers, workers) == (40 - 40 // workers, 40)

    @pytest.mark.parametrize(
        "n, blocks, p, rank",
        [(100, 2, 2, 3), (100, 2, 2, 0), (3, 4, 4, 4), (3, 8, 2, 2)],
        ids=["rank-above-p", "rank-0", "last-of-4-on-3-rows", "last-of-2-on-3-rows-in-8-blocks"],
    )
    def test_a_rank_without_rows_is_named(self, n, blocks, p, rank):
        match = f"no rows for rank {rank} of {p} workers: {n} rows in {blocks} reduction blocks"
        with pytest.raises(ValueError, match=match):
            worker_row_range(n, blocks, p, rank)


class TestSuffStats:
    def test_fieldwise_addition(self):
        a = SuffStats(2, 1.0)
        b = SuffStats(5, -2.0)
        assert a + b == SuffStats(7, -1.0)

    def test_zero_identity(self):
        a = SuffStats(3, 1.5)
        assert a + SuffStats() == a


class TestOneIteration:
    def test_min_leaf_blocks_all_growth(self):
        rng = np.random.default_rng(17)
        n = 8
        x = rng.uniform(-1, 1, (n, 2))
        y = rng.standard_normal(n)
        settings = FitSettings(m=1, draws=50, burn=10, thin=1, seed=18, min_leaf=n + 1)
        result = run_serial(x, y, settings)
        assert np.all(result.mean_b == 1.0)

    def test_residual_invariant_holds(self):
        rng = np.random.default_rng(19)
        n, d, m = 300, 2, 3
        x = rng.uniform(-1, 1, (n, d))
        y = x[:, 0] ** 2 + 0.1 * rng.standard_normal(n)
        settings = FitSettings(m=m, draws=30, burn=0, thin=1, seed=20, min_leaf=2, numcut=25)
        grid = CutpointGrid.from_ranges(x.min(axis=0), x.max(axis=0), settings.numcut)
        y_mid = 0.5 * (y.min() + y.max())
        ys = (y - y_mid) / (y.max() - y.min())
        shard = ShardData(grid.bin(x), ys, m, [(0, n)])
        forest = [Tree() for _ in range(m)]
        sd = float(np.std(ys, ddof=1))
        checked = []

        def check(it, sigma, f):
            check_residual_invariant(f, grid, shard, atol=1e-8)
            checked.append(sigma)

        run_chain_core(
            forest, grid, resolve_prior(settings, sd), sd, np.random.default_rng(21),
            LocalProvider(shard), settings, on_iteration=check,
        )
        assert len(checked) == 30 and min(checked) > 0

    def test_serial_run_reproducible(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-1, 1, (100, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(100)
        settings = FitSettings(m=4, draws=30, burn=5, thin=5, seed=23, min_leaf=2)
        a = run_serial(x, y, settings)
        b = run_serial(x, y, settings)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert a.forest_hashes == b.forest_hashes

    def test_iteration_seconds_partition_elapsed(self):
        rng = np.random.default_rng(25)
        x = rng.uniform(-1, 1, (100, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(100)
        result = run_serial(x, y, FitSettings(m=4, draws=12, burn=2, seed=26, min_leaf=2))
        assert result.iteration_seconds.shape == (12,)
        assert np.all(result.iteration_seconds > 0)
        assert result.iteration_seconds.sum() == pytest.approx(result.elapsed, rel=1e-9)

    def test_a_non_finite_rss_stops_the_chain_by_value(self, monkeypatch):
        # Without the check, one NaN residual sum makes every later sigma NaN.
        rss = LocalProvider.rss
        calls = []

        def nan_once(provider):
            calls.append(rss(provider))
            return math.nan if len(calls) == 3 else calls[-1]

        monkeypatch.setattr(LocalProvider, "rss", nan_once)
        rng = np.random.default_rng(27)
        x = rng.uniform(-1, 1, (100, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(100)
        with pytest.raises(ValueError, match="rss must be finite and >= 0, got nan"):
            run_serial(x, y, FitSettings(m=4, draws=12, burn=2, seed=28, min_leaf=2))
        assert len(calls) == 3
        for rss in (math.inf, -1.0):
            with pytest.raises(ValueError, match=f"got {rss!r}"):
                draw_sigma(10, rss, 3.0, 0.2, rng)

    @staticmethod
    def _nan_once(monkeypatch, name, call, poison):
        """Patch `LocalProvider.<name>` so its `call`-th result is `poison`ed;
        return the (tree, iteration) of every call, iterations from 1."""
        method = getattr(LocalProvider, name)
        calls, iterations = [], []
        monkeypatch.setattr(LocalProvider, "begin_iteration", lambda p: iterations.append(1))

        def patched(provider, j, *args):
            stats = method(provider, j, *args)
            calls.append((j, len(iterations)))
            if len(calls) == call:
                poison(stats)
            return stats

        monkeypatch.setattr(LocalProvider, name, patched)
        return calls

    def _fit(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(-1, 1, (400, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(400)
        return run_serial(x, y, FitSettings(m=6, draws=40, burn=10, seed=30, min_leaf=2))

    def test_a_non_finite_move_sum_stops_the_chain_by_name(self, monkeypatch):
        # Without the check, the NaN fails the MH test, so the move is
        # silently rejected and the fit finishes.
        def poison(stats):
            stats[0].s = math.nan

        calls = self._nan_once(monkeypatch, "move_stats", 9, poison)
        with pytest.raises(ValueError) as info:
            self._fit()
        assert len(calls) == 9
        j, it = calls[-1]
        assert str(info.value).startswith(
            f"MoveStats at tree {j} of iteration {it}: non-finite sum in SuffStats(n=")
        assert "s=nan), SuffStats(n=" in str(info.value)

    def test_a_non_finite_leaf_sum_stops_the_chain_by_name(self, monkeypatch):
        # Without the check, the NaN means reach the residual and the fit
        # stops only at the sigma draw, naming neither tree nor iteration.
        def poison(stats):
            stats[1, 0] = math.nan

        calls = self._nan_once(monkeypatch, "mu_stats", 8, poison)
        with pytest.raises(ValueError) as info:
            self._fit()
        assert calls[-1] == (1, 2) and len(calls) == 8
        assert str(info.value).startswith("MuStats at tree 1 of iteration 2: non-finite sums [nan, ")

    def test_draws_must_exceed_burn(self):
        settings = FitSettings(draws=10, burn=10)
        with pytest.raises(ValueError, match="burn"):
            settings.validate()


class TestDerivedConstants:
    def test_scaling_and_prior_resolution(self):
        rng = np.random.default_rng(24)
        y = rng.normal(3.0, 2.0, 500)
        x = rng.uniform(0, 1, (500, 2))
        derived = derive_run_constants([summarize_shard(x, y, [(0, 250), (250, 500)])])
        assert derived.y_mid == pytest.approx(0.5 * (y.min() + y.max()))
        assert derived.y_range == pytest.approx(y.max() - y.min())
        assert derived.sd_scaled == pytest.approx(np.std(y, ddof=1) / derived.y_range, rel=1e-12)
        settings = FitSettings(m=200, kfac=2.0)
        prior = resolve_prior(settings, derived.sd_scaled)
        assert prior.tau == pytest.approx(0.5 / (2.0 * math.sqrt(200)))
        assert prior.lam > 0

    def test_constant_response_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            derive_run_constants([(10, 1.0, 1.0, 10.0, 10.0, (0.0,), (1.0,))])


class TestFixedCost:
    def test_tree_update_makes_few_python_calls(self):
        # The fixed cost of a tree update: Python calls per iteration of
        # acceptance 05's chain (m=1, n=2), measured in fixed_cost.py.  The
        # bound is 5 % above the 25.94 calls this chain made when it was set.
        calls = fixed_cost.serial_calls_per_iteration()
        assert calls <= 1.05 * 25.94, f"{calls:.2f} Python calls per iteration"
