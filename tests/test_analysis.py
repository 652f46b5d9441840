import math

import numpy as np
import pytest

from bartgrid import analysis, trees
from bartgrid.analysis import (
    CALL_ROWS,
    DOMAIN,
    PosteriorSample,
    main_effect,
    posterior_from_chain,
    predict_mean,
    sensitivity_report,
    sobol_indices,
)
from bartgrid.sampler import FitSettings, run_serial
from bartgrid.trees import ROUTE_CHUNK, CompiledTrees, CutpointGrid, Tree
from test_trees import log_routes, naive_descend


def constant_sample(mu=0.25, m=1, d=2, y_mid=1.0, y_range=4.0, n_snapshots=3):
    grid = CutpointGrid.from_ranges(np.full(d, -1.0), np.full(d, 1.0), 10)
    trees = CompiledTrees(Tree({1: mu}) for _ in range(n_snapshots * m))
    return PosteriorSample(m=m, d=d, numcut=10, y_mid=y_mid, y_range=y_range,
                           grid=grid, sigmas=[0.1] * n_snapshots, trees=trees)


class TestPredictMean:
    def test_constant_forest_predicts_rescaled_leaf(self):
        sample = constant_sample(mu=0.25, y_mid=1.0, y_range=4.0)
        preds = predict_mean(sample, np.zeros((5, 2)))
        assert np.all(preds == 0.25 * 4.0 + 1.0)

    def test_partitioned_evaluation_is_bitwise_identical(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (600, 3))
        y = np.sin(2 * x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(600)
        fit = run_serial(x, y, FitSettings(m=8, draws=40, burn=20, thin=4, seed=1, min_leaf=2))
        sample = posterior_from_chain(fit)
        xstar = rng.uniform(-1, 1, (200, 3))
        whole = predict_mean(sample, xstar)
        parts = np.concatenate([predict_mean(sample, xs) for xs in np.array_split(xstar, 4)])
        assert np.array_equal(whole, parts)

    def test_linear_in_snapshots(self):
        sample = constant_sample(n_snapshots=4)
        per_snapshot = []
        xstar = np.zeros((3, 2))
        m = sample.m
        for idx, sigma in enumerate(sample.sigmas):
            forest = [sample.trees.tree(t) for t in range(idx * m, (idx + 1) * m)]
            single = PosteriorSample(
                m=m, d=sample.d, numcut=sample.numcut, y_mid=sample.y_mid,
                y_range=sample.y_range, grid=sample.grid, sigmas=[sigma],
                trees=CompiledTrees(forest),
            )
            per_snapshot.append(predict_mean(single, xstar))
        assert np.array_equal(np.mean(per_snapshot, axis=0), predict_mean(sample, xstar))

    def test_dimension_mismatch(self):
        sample = constant_sample(d=2)
        with pytest.raises(ValueError, match="rows, 2"):
            predict_mean(sample, np.zeros((4, 3)))


@pytest.fixture(scope="module")
def fitted_sample():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, (500, 3))
    y = np.sin(2 * x[:, 0]) * x[:, 1] + 0.1 * rng.standard_normal(500)
    fit = run_serial(x, y, FitSettings(m=10, draws=30, burn=10, thin=2, seed=22, min_leaf=2))
    return posterior_from_chain(fit)


class TestCompiledPrediction:
    def test_equals_per_tree_oracle_bitwise(self, fitted_sample):
        sample = fitted_sample
        xstar = np.random.default_rng(23).uniform(-1.2, 1.2, (300, 3))
        acc = np.zeros(xstar.shape[0])
        for t in range(len(sample.trees.structure_of)):
            tree = sample.trees.tree(t)
            acc += np.array([naive_descend(tree, sample.grid, row) for row in xstar])
        acc /= len(sample.sigmas)
        expected = acc * sample.y_range + sample.y_mid
        assert predict_mean(sample, xstar).tobytes() == expected.tobytes()

    def test_row_splits_around_the_pass_size(self, fitted_sample):
        # Pieces of pass-1, pass and pass+1 rows, and their remainders.
        size = fitted_sample.trees.pass_rows
        xstar = np.random.default_rng(24).uniform(-1, 1, (2 * size + 1, 3))
        whole = predict_mean(fitted_sample, xstar)
        for cut in (size - 1, size, size + 1):
            parts = [predict_mean(fitted_sample, xstar[:cut]), predict_mean(fitted_sample, xstar[cut:])]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_several_passes_equal_one(self, fitted_sample, monkeypatch):
        xstar = np.random.default_rng(26).uniform(-1, 1, (3 * ROUTE_CHUNK + 5, 3))
        routes = log_routes(monkeypatch)
        one_pass = predict_mean(fitted_sample, xstar)
        monkeypatch.setattr(trees, "ROUTE_BUDGET", 0)  # every pass at the ROUTE_CHUNK floor
        several = predict_mean(fitted_sample, xstar)
        assert [rows for rows, _ in routes] == [xstar.shape[0]] + [ROUTE_CHUNK] * 3 + [5]
        assert several.tobytes() == one_pass.tobytes()

    def test_one_routing_pass_per_predictor_call(self, fitted_sample, monkeypatch):
        # Sobol parts of 15,000 rows and curves of 12,000: each over ROUTE_CHUNK.
        routes = log_routes(monkeypatch)
        calls = CallLog(fitted_sample.predictor())
        sensitivity_report(calls, 3, 6000, 2, seed=36, effect_points=5, effect_mc=2000, threads=1)
        assert min(calls.rows) > ROUTE_CHUNK
        assert [rows for rows, _ in routes] == calls.rows

    def test_zero_rows(self, fitted_sample):
        preds = predict_mean(fitted_sample, np.zeros((0, 3)))
        assert preds.shape == (0,)

    def test_threaded_sobol_equals_serial(self, fitted_sample):
        serial = sobol_indices(fitted_sample.predictor(), 3, 2000, 4, seed=25, threads=1)
        threaded = sobol_indices(fitted_sample.predictor(), 3, 2000, 4, seed=25, threads=2)
        for a, b in zip(serial.estimates, threaded.estimates):
            assert (a.s1, a.st, a.v_k) == (b.s1, b.st, b.v_k)
        assert serial.f0 == threaded.f0

    def test_compiled_once(self, monkeypatch):
        # The table is compiled as the sample is built; predictions only read it.
        sample = constant_sample(m=2, n_snapshots=3)
        extends = []
        monkeypatch.setattr(CompiledTrees, "extend", lambda table, trees: extends.append(trees))
        first, second = sample.predictor(), sample.predictor()
        xstar = np.zeros((4, 2))
        assert first(xstar).tobytes() == second(xstar).tobytes() == predict_mean(sample, xstar).tobytes()
        assert extends == [] and len(sample.trees.structure_of) == 6


class TestMainEffect:
    def test_linear_function_recovers_identity_line(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(-1, 1, 9)
        curve = main_effect(lambda x: x[:, 0], 0, grid, 20_000, dim=2, rng=rng)
        se = 3.0 / math.sqrt(20_000)  # sd(x0) ~ 0.577, 3 se margin
        assert np.all(np.abs(curve - grid) < 3 * se)
        other = main_effect(lambda x: x[:, 0], 1, grid, 20_000, dim=2, rng=rng)
        assert np.all(np.abs(other) < 3 * se)

    def test_constant_function_flat(self):
        rng = np.random.default_rng(3)
        curve = main_effect(lambda x: np.full(x.shape[0], 2.5), 0,
                            np.linspace(-1, 1, 5), 1000, dim=3, rng=rng)
        assert np.allclose(curve, 0.0)

    def test_pure_interaction_has_no_main_effect(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(-1, 1, 7)
        for k in (0, 1):
            curve = main_effect(lambda x: x[:, 0] * x[:, 1], k, grid, 40_000, dim=2, rng=rng)
            assert np.all(np.abs(curve) < 3 * 0.6 / math.sqrt(40_000))


def linear_two(x):
    return x[:, 0] + 2.0 * x[:, 1]


def product_two(x):
    return x[:, 0] * x[:, 1]


class TestSobol:
    def test_linear_first_order_indices(self):
        # Var(x_k) = 1/3 on U[-1,1]: V1 = 1/3, V2 = 4/3, V = 5/3.
        res = sobol_indices(linear_two, 2, 100_000, 20, seed=5)
        s1, s2 = res.estimates[0], res.estimates[1]
        assert abs(s1.s1 - 0.2) < 3 * s1.s1_err
        assert abs(s2.s1 - 0.8) < 3 * s2.s1_err
        assert s1.s1_err < 0.02 and s2.s1_err < 0.02

    def test_additive_total_equals_first_order(self):
        res = sobol_indices(linear_two, 2, 60_000, 15, seed=6)
        for est in res.estimates:
            assert abs(est.st - est.s1) < 3 * (est.s1_err + est.st_err)
        assert res.estimates[0].s1 + res.estimates[1].s1 == pytest.approx(1.0, abs=0.05)

    def test_pure_interaction(self):
        res = sobol_indices(product_two, 2, 60_000, 15, seed=7)
        est = res.estimates[0]
        assert abs(est.s1) < 3 * max(est.s1_err, 0.01)
        assert abs(est.st - 1.0) < 3 * max(est.st_err, 0.02)

    def test_total_dominates_first_order(self):
        rng = np.random.default_rng(8)

        def messy(x):
            return np.sin(x[:, 0]) + x[:, 1] * x[:, 2] ** 2 + 0.5 * x[:, 0] * x[:, 1]

        res = sobol_indices(messy, 3, 40_000, 10, seed=9)
        for est in res.estimates:
            assert est.st >= est.s1 - 3 * (est.s1_err + est.st_err)

    def test_constant_predictor_errors(self):
        with pytest.raises(ValueError, match="zero total variance"):
            sobol_indices(lambda x: np.ones(x.shape[0]), 2, 1000, 4, seed=10)

    def test_single_variable_wrappers(self):
        (est,) = sobol_indices(linear_two, 2, 50_000, 10, seed=11, ks=[0]).estimates
        assert est.k == 0
        assert est.s1 == pytest.approx(0.2, abs=0.03)
        assert est.v_total == pytest.approx(5.0 / 3.0, rel=0.05)
        assert est.v_k == pytest.approx(1.0 / 3.0, rel=0.15)
        assert est.st == pytest.approx(0.2, abs=0.03)

    def test_partition_invariance_across_threading(self):
        serial = sobol_indices(linear_two, 2, 20_000, 8, seed=12)
        threaded = sobol_indices(linear_two, 2, 20_000, 8, seed=12, threads=4)
        for a, b in zip(serial.estimates, threaded.estimates):
            assert a.s1 == b.s1 and a.st == b.st
        assert serial.f0 == threaded.f0

    def test_part_streams_differ(self):
        # Distinct per-part seeds: partial sums must not repeat across parts.
        res = sobol_indices(linear_two, 2, 4000, 4, seed=13)
        assert res.parts == 4

    def test_sensitivity_report_shape(self):
        report = sensitivity_report(linear_two, 2, 10_000, 8, seed=14,
                                    effect_points=7, effect_mc=500)
        assert report.effects.shape == (2, 7)
        assert len(report.estimates) == 2
        assert report.effect_grid.size == 7


class TestRanking:
    def test_fitted_surface_identifies_active_variables(self):
        # A surface where x2 and x0 dominate; the fit's indices must rank them.
        rng = np.random.default_rng(15)
        n, d = 3000, 5
        x = rng.uniform(-1, 1, (n, d))
        f = 2.0 * np.sin(2 * x[:, 2]) + x[:, 0] ** 2
        y = f + 0.1 * rng.standard_normal(n)
        fit = run_serial(
            x, y, FitSettings(m=40, draws=300, burn=150, thin=15, seed=16, min_leaf=5)
        )
        sample = posterior_from_chain(fit)
        res = sobol_indices(sample.predictor(), d, 4000, 8, seed=17)
        order = np.argsort([-e.s1 for e in res.estimates])
        assert set(order[:2]) == {0, 2}


class TestNamedErrors:
    def test_variable_beyond_dim(self):
        with pytest.raises(ValueError, match=r"variable 5 is outside 0\.\.1 \(dim=2\)"):
            sobol_indices(linear_two, 2, 1000, 4, seed=1, ks=[5])

    def test_negative_variable(self):
        with pytest.raises(ValueError, match=r"variable -1 is outside 0\.\.1 \(dim=2\)"):
            sobol_indices(linear_two, 2, 1000, 4, seed=1, ks=[-1])

    def test_main_effect_variable_beyond_dim(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"variable 3 is outside 0\.\.1 \(dim=2\)"):
            main_effect(linear_two, 3, np.linspace(-1, 1, 3), 100, dim=2, rng=rng)
        assert rng.bit_generator.state == state  # refused before any draw


# The estimators as they were before predictor calls were batched: one call
# per matrix.  The batched code must reproduce them bit for bit.

def oracle_part_sums(predictor, ks, rows, dim, seed, part):
    rng = np.random.default_rng([seed, part])
    a = rng.uniform(*DOMAIN, (rows, dim))
    b = rng.uniform(*DOMAIN, (rows, dim))
    fa = np.asarray(predictor(a), dtype=np.float64)
    fb = np.asarray(predictor(b), dtype=np.float64)
    prod = np.empty(len(ks))
    jansen = np.empty(len(ks))
    for i, k in enumerate(ks):
        mixed = b.copy()
        mixed[:, k] = a[:, k]
        fm = np.asarray(predictor(mixed), dtype=np.float64)
        prod[i] = float(np.sum(fa * fm))
        jansen[i] = float(np.sum((fb - fm) ** 2))
    return analysis._PartSums(
        rows, float(np.sum(fa)), float(np.sum(fb)), float(np.sum(fa * fa)), prod, jansen
    )


def oracle_main_effect(predictor, k, grid_values, n_mc, dim, *, rng=None):
    base = rng.uniform(*DOMAIN, (n_mc, dim))
    f0 = float(np.mean(predictor(base)))
    curve = np.empty(len(grid_values))
    for i, g in enumerate(grid_values):
        x = rng.uniform(*DOMAIN, (n_mc, dim))
        x[:, k] = g
        curve[i] = float(np.mean(predictor(x))) - f0
    return curve


def report_bytes(report):
    fields = [(e.k, e.s1, e.st, e.s1_err, e.st_err, e.v_k, e.v_total, e.f0) for e in report.estimates]
    return np.array(fields).tobytes(), report.effects.tobytes()


def assert_matches_oracle(monkeypatch, run):
    batched = run()
    with monkeypatch.context() as patched:
        patched.setattr(analysis, "_part_sums", oracle_part_sums)
        patched.setattr(analysis, "main_effect", oracle_main_effect)
        expected = run()
    assert report_bytes(batched) == report_bytes(expected)


def messy(x):
    return np.sin(x[:, 0]) + x[:, 1] * x[:, 2] ** 2 + 0.5 * x[:, 0] * x[:, 1]


class CallLog:
    """A row-wise predictor that records the rows of every call."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.rows: list[int] = []

    def __call__(self, x):
        self.rows.append(x.shape[0])
        return self.predictor(x)


class TestBatchedEstimates:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_fitted_sample_equals_per_matrix_oracle(self, fitted_sample, monkeypatch, threads):
        predictor = fitted_sample.predictor()
        assert_matches_oracle(monkeypatch, lambda: sensitivity_report(
            predictor, 3, 3000, 4, seed=31, effect_points=5, effect_mc=300, threads=threads,
        ))

    def test_analytic_function_equals_per_matrix_oracle(self, monkeypatch):
        assert_matches_oracle(monkeypatch, lambda: sensitivity_report(
            messy, 3, 20_000, 10, seed=32, effect_points=9, effect_mc=1000,
        ))

    def test_calls_across_the_row_bound_equal_oracle(self, fitted_sample, monkeypatch):
        # 20,000 rows per part: A, B and 3 mixed matrices go out as 3 + 2.
        calls = CallLog(fitted_sample.predictor())
        assert_matches_oracle(
            monkeypatch, lambda: sobol_indices(calls, 3, 40_000, 2, seed=33, threads=2)
        )
        assert sorted(calls.rows[:4]) == [40_000, 40_000, 60_000, 60_000]
        # A matrix above the bound goes alone; here a curve of 3 matrices.
        calls = CallLog(messy)
        grid = np.linspace(-1, 1, 2)
        curve = main_effect(calls, 1, grid, CALL_ROWS + 1, 3, rng=np.random.default_rng(34))
        expected = oracle_main_effect(messy, 1, grid, CALL_ROWS + 1, 3, rng=np.random.default_rng(34))
        assert curve.tobytes() == expected.tobytes()
        assert calls.rows == [CALL_ROWS + 1] * 3

    def test_report_calls_at_benchmark_settings(self):
        # predict-sobol's report (d=10, n_s=6000, 8 parts, 5 points, 375
        # draws each): one call per part and one per curve, where a call per
        # matrix made 8 * 12 + 10 * 6 = 156.  Counts repeat exactly; times do not.
        calls = CallLog(messy)
        sensitivity_report(calls, 10, 6000, 8, seed=35, effect_points=5, effect_mc=375, threads=1)
        assert len(calls.rows) == 8 + 10
        assert max(calls.rows) <= CALL_ROWS
