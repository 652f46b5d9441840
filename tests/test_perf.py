import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from bartgrid import perf
from bartgrid.cli import main
from bartgrid.perf import (
    PARALLEL_TERMS,
    SERIAL_TERMS,
    RuntimeModel,
    TimingRecord,
    _first_worker_error,
    _run_tcp_cell,
    bench_run,
    draw_prior_b_samples,
    efficiency_report,
    expected_efficiency,
    fit_runtime_model,
    isoefficiency_solve,
    speedup_efficiency,
)
from bartgrid.sampler import FitSettings


class TestSpeedupEfficiency:
    def test_embarrassingly_parallel_ideal(self):
        s, e = speedup_efficiency(100.0, 100.0 / 8, 8)
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_eight_core_published_numbers(self):
        # S = 6.34 on 8 cores gives E = 0.7925.
        s, e = speedup_efficiency(6.34, 1.0, 8)
        assert abs(e - 6.34 / 8) < 1e-12
        assert abs(e - 0.7925) < 1e-12

    def test_relative_speedup_24_to_48(self):
        s, _ = speedup_efficiency(9660.0, 4477.0, 48)
        assert abs(s - 9660.0 / 4477.0) < 1e-12
        assert s == pytest.approx(2.158, abs=5e-4)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            speedup_efficiency(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            speedup_efficiency(1.0, -1.0, 2)

    def test_self_speedup_is_one(self):
        s, _ = speedup_efficiency(3.7, 3.7, 1)
        assert s == 1.0


def synthetic_parallel_records(seed, reps=3):
    """Timings from the two-term parallel model with 1% relative noise."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(reps):
        for m in (50, 100, 200):
            for n in (20_000, 60_000, 140_000):
                for p1 in (3, 5, 9):
                    b = float(rng.uniform(5, 35))
                    t = 2.011 * b + 1.254e-4 * m * (n / (p1 - 1))
                    t *= 1 + 0.01 * rng.standard_normal()
                    records.append(
                        TimingRecord(n=n, m=m, p_plus_1=p1, iterations=1000,
                                     seconds=t, b_bar=b)
                    )
    return records


class TestRuntimeModelFit:
    def test_noise_free_single_term(self):
        rng = np.random.default_rng(0)
        records = []
        for n in (1000, 2000, 5000, 9000):
            for m in (10, 20, 40):
                records.append(
                    TimingRecord(n=n, m=m, p_plus_1=1, iterations=10,
                                 seconds=3.5e-4 * n, b_bar=float(rng.uniform(2, 9)))
                )
        model = fit_runtime_model(records, "serial")
        assert model.terms == ["n"]
        assert model.coefficients[0] == pytest.approx(3.5e-4, rel=1e-9)

    def test_recovers_published_two_term_model(self):
        records = synthetic_parallel_records(seed=3)
        model = fit_runtime_model(records, "parallel")
        assert sorted(model.terms) == ["b", "mnt"]
        cb = model.coefficients[model.terms.index("b")]
        cm = model.coefficients[model.terms.index("mnt")]
        assert cb == pytest.approx(2.011, rel=0.05)
        assert cm == pytest.approx(1.254e-4, rel=0.05)
        assert model.r_squared > 0.99

    def test_ols_matches_normal_equations(self):
        # Full-rank random design: lstsq equals the normal-equation solve.
        rng = np.random.default_rng(1)
        records = []
        for _ in range(40):
            records.append(
                TimingRecord(
                    n=int(rng.integers(1_000, 100_000)),
                    m=int(rng.integers(10, 300)),
                    p_plus_1=int(rng.integers(2, 20)),
                    iterations=100,
                    seconds=float(rng.uniform(1, 100)),
                    b_bar=float(rng.uniform(2, 40)),
                )
            )
        from bartgrid.perf import _design_matrix, _ols

        terms = list(PARALLEL_TERMS)
        design = _design_matrix(records, terms)
        y = np.array([r.seconds for r in records])
        coefs, _ = _ols(design, y, terms)
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.allclose(coefs, oracle, rtol=1e-8, atol=1e-10)

    def test_term_names_multiply_left_to_right(self):
        # Each design column is its name's product written out, bit for bit.
        from bartgrid.perf import _design_matrix

        rng = np.random.default_rng(18)
        records = [
            TimingRecord(n=int(rng.integers(1_000, 10**7)), m=int(rng.integers(1, 500)),
                         p_plus_1=int(rng.integers(2, 65)), iterations=10, seconds=1.0,
                         b_bar=float(rng.uniform(1, 40)))
            for _ in range(50)
        ]
        serial = _design_matrix(records, SERIAL_TERMS)
        parallel = _design_matrix(records, PARALLEL_TERMS)
        for i, rec in enumerate(records):
            n, m, p, b = rec.n, rec.m, rec.p_plus_1 - 1, rec.b_bar
            nt = n / p
            assert serial[i].tolist() == [m, n, m * n, m * b, m * n * b]
            assert parallel[i].tolist() == [
                m, nt, p, b, m * nt, m * p, m * b, nt * p, nt * b, p * b,
                m * nt * b, m * p * b, m * nt * p, m * nt * p * b,
            ]

    def test_rank_deficient_names_collinear_terms(self):
        # Constant p makes p-bearing columns multiples of their p-free twins.
        rng = np.random.default_rng(2)
        records = []
        for _ in range(20):
            records.append(
                TimingRecord(
                    n=int(rng.integers(1_000, 50_000)), m=int(rng.integers(10, 200)),
                    p_plus_1=5, iterations=10,
                    seconds=float(rng.uniform(1, 50)), b_bar=float(rng.uniform(2, 20)),
                )
            )
        with pytest.raises(ValueError, match="collinear"):
            fit_runtime_model(records, "parallel")

    def test_scale_equivariance(self):
        records = synthetic_parallel_records(seed=4)
        model = fit_runtime_model(records, "parallel")
        scaled = [
            TimingRecord(r.n, r.m, r.p_plus_1, r.iterations, r.seconds * 7.0, r.b_bar)
            for r in records
        ]
        model7 = fit_runtime_model(scaled, "parallel")
        assert model7.terms == model.terms
        assert np.allclose(model7.coefficients, 7.0 * model.coefficients, rtol=1e-9)

    def test_elimination_slack_does_not_compound(self):
        # A harness-sized grid (18 cells, p+1 in {2, 3}) with seconds as one
        # noisy 2-core run measured them.  Under 3 % timing noise the pruned
        # model stays within the slack of the full fit, so R^2 holds up.
        seconds = [0.62, 1.91, 4.33, 5.45, 11.11, 16.22, 3.09, 3.72, 5.17,
                   6.80, 9.69, 15.49, 3.22, 5.55, 7.40, 3.82, 5.09, 7.69]
        b_bars = {4000: (6.04, 4.56, 3.66), 10_000: (8.42, 5.92, 4.68),
                  24_000: (9.42, 7.86, 6.24)}
        cells = [(n, m, p1, b_bars[n][i]) for n in (4000, 10_000, 24_000)
                 for i, m in enumerate((20, 40, 80)) for p1 in (2, 3)]
        from bartgrid.perf import _design_matrix, _ols

        terms = list(PARALLEL_TERMS)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            records = [
                TimingRecord(n=n, m=m, p_plus_1=p1, iterations=60,
                              seconds=t * float(np.exp(0.03 * rng.standard_normal())),
                              b_bar=b)
                for (n, m, p1, b), t in zip(cells, seconds)
            ]
            y = np.array([r.seconds for r in records])
            _, full_rmse = _ols(_design_matrix(records, terms), y, terms)
            model = fit_runtime_model(records, "parallel")
            assert model.rmse <= 1.5 * full_rmse * (1 + 1e-9), f"seed {seed}"
            assert model.r_squared >= 0.8, f"seed {seed}: {model.terms}"

    def test_too_few_records(self):
        records = synthetic_parallel_records(seed=5)[:10]
        with pytest.raises(ValueError, match="at least"):
            fit_runtime_model(records, "parallel")


class TestPriorTerminalCount:
    @staticmethod
    def exact_pmf(k, depth=0, alpha=0.95, beta=2.0):
        """Recursive enumeration of P(subtree at `depth` has k leaves)."""
        p = alpha * (1.0 + depth) ** (-beta)
        if k == 1:
            return 1.0 - p
        return p * sum(
            TestPriorTerminalCount.exact_pmf(i, depth + 1)
            * TestPriorTerminalCount.exact_pmf(k - i, depth + 1)
            for i in range(1, k)
        )

    def test_simulated_matches_exact_recursion(self):
        exact_le4 = sum(self.exact_pmf(k) for k in (1, 2, 3, 4))
        draws = draw_prior_b_samples(0.95, 2.0, 100_000, np.random.default_rng(6))
        assert abs((draws <= 4).mean() - exact_le4) < 0.01
        assert draws.min() >= 1


class TestExpectedEfficiency:
    def test_serial_self_comparison_is_one(self):
        b = draw_prior_b_samples(0.95, 2.0, 100, np.random.default_rng(7))
        assert expected_efficiency(10_000, 100, 1, b) == 1.0

    def test_matches_a_loop_over_the_draws(self):
        # Both models run once over the whole sample; the mean of per-draw
        # ratios, from the unit terms written out and from scalar
        # predictions, has the same bits.
        b = draw_prior_b_samples(0.95, 2.0, 300, np.random.default_rng(17))
        serial = RuntimeModel("serial", ["m", "mnb"], np.array([0.4, 3e-7]))
        parallel = RuntimeModel("parallel", ["p", "mntb", "mpb"], np.array([0.1, 2e-7, 1e-3]))
        for n, m, p1 in ((5_000, 20, 3), (2.5e6, 200, 9), (123_457, 7, 33)):
            p = p1 - 1
            unit = [
                (m * n + m * bi) / (p1 * (m * (n / p) + m * p + m * bi + m * p * bi))
                for bi in map(float, b)
            ]
            assert expected_efficiency(n, m, p1, b) == np.mean(unit)
            fitted = [
                serial.predict(n=n, m=m, b=bi) / (p1 * parallel.predict(n=n, m=m, p=p, b=bi))
                for bi in map(float, b)
            ]
            assert expected_efficiency(n, m, p1, b, models=(serial, parallel)) == np.mean(fitted)

    def test_monotone_in_problem_size(self):
        b = draw_prior_b_samples(0.95, 2.0, 2000, np.random.default_rng(8))
        values = [
            expected_efficiency(n, 100, 9, b_samples=b)
            for n in (10_000, 100_000, 1_000_000)
        ]
        assert values[0] < values[1] < values[2]

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(9)
        b = draw_prior_b_samples(0.95, 2.0, 500, rng)
        for _ in range(50):
            n = 10 ** rng.uniform(2, 8)
            m = int(rng.integers(1, 500))
            p1 = int(rng.integers(2, 65))
            e = expected_efficiency(n, m, p1, b_samples=b)
            assert 0.0 < e <= 1.0

    def test_fitted_models_variant(self):
        serial = RuntimeModel("serial", ["mn", "mb"], np.array([1.3e-4, 2.0]))
        parallel = RuntimeModel("parallel", ["mnt", "b"], np.array([1.25e-4, 2.0]))
        b = draw_prior_b_samples(0.95, 2.0, 500, np.random.default_rng(10))
        e = expected_efficiency(500_000, 200, 9, b, models=(serial, parallel))
        assert 0.0 < e <= 1.5  # fitted models need not respect the unit bound


class TestIsoefficiency:
    def test_target_below_lower_bound_returns_lower_bound(self):
        n_e = isoefficiency_solve(0.01, 9, bounds=(1e4, 1e8), seed=11)
        assert n_e == pytest.approx(1e4)

    def test_unattainable_reports_maximum(self):
        with pytest.raises(ValueError, match="unattainable"):
            isoefficiency_solve(0.999999, 9, bounds=(1e2, 1e4), seed=12)

    def test_matches_dense_grid_scan(self):
        e_target = 0.7
        n_e = isoefficiency_solve(e_target, 9, bounds=(1e3, 1e8), seed=13, n_draws=800)
        b = draw_prior_b_samples(0.95, 2.0, 800, np.random.default_rng(13))
        grid = np.logspace(3, 8, 2000)
        values = np.array([expected_efficiency(n, 200, 9, b_samples=b) for n in grid])
        oracle = grid[int(np.argmax(values >= e_target))]
        assert n_e == pytest.approx(oracle, rel=0.01)

    def test_monotone_in_target_and_cores(self):
        # Unit-mode efficiency tops out at p/(p+1), so targets stay below it.
        solve = lambda e, p1: isoefficiency_solve(e, p1, bounds=(1e3, 1e9), seed=14,
                                                  n_draws=500)
        assert solve(0.5, 9) <= solve(0.7, 9) <= solve(0.85, 9)
        assert solve(0.7, 5) <= solve(0.7, 9) <= solve(0.7, 17)


class TestRecordsIO:
    def test_bench_command_writes_records_and_report(self, tmp_path):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--out", str(out), "--ns", "300", "--ms", "2", "--workers", "0",
                "--iterations", "4", "--d", "3"]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,p_plus_1,iterations,seconds,b_bar"
        assert len(lines) == 2
        n, m, p_plus_1, iterations, seconds, b_bar = map(float, lines[1].split(","))
        assert (n, m, p_plus_1, iterations) == (300, 2, 1, 4)
        assert seconds > 0 and b_bar >= 1
        report = (tmp_path / "bench.csv.report.csv").read_text().splitlines()
        assert report[0] == "n,m,p_plus_1,seconds,speedup_vs_ref,efficiency_vs_ref,b_bar"
        assert [float(v) for v in report[1].split(",")] == [300, 2, 1, seconds, 1.0, 1.0, b_bar]
        assert len(report) == 2

    def test_bench_command_refuses_a_negative_worker_count(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--out", str(out), "--ns", "100", "--ms", "2", "--workers", "0,-1",
                "--iterations", "4", "--d", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "bartgrid bench: error: worker counts must be >= 0 (0: serial), got -1\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_report_relative_to_smallest_run(self):
        records = [
            TimingRecord(1000, 10, 3, 50, 10.0, 4.0),
            TimingRecord(1000, 10, 5, 50, 6.0, 4.0),
        ]
        rows = efficiency_report(records)
        assert rows[0]["speedup_vs_ref"] == 1.0
        assert rows[1]["speedup_vs_ref"] == pytest.approx(10.0 / 6.0)
        assert rows[1]["efficiency_vs_ref"] == pytest.approx((10.0 / 6.0) * 3 / 5)


class TestBenchHarness:
    def test_small_grid_produces_records(self, tmp_path):
        records = bench_run(
            ns=[400], ms=[4], worker_counts=[0, 2], iterations=8, seed=16,
            d=3, workdir=str(tmp_path),
        )
        assert len(records) == 2
        serial = next(r for r in records if r.p_plus_1 == 1)
        dist = next(r for r in records if r.p_plus_1 == 3)
        assert serial.seconds > 0 and dist.seconds > 0
        assert serial.b_bar >= 1.0 and dist.b_bar >= 1.0
        report = efficiency_report(records)
        assert len(report) == 2

    def test_negative_worker_count_is_refused_before_any_dataset(self, tmp_path):
        with pytest.raises(ValueError, match=r"worker counts must be >= 0 \(0: serial\), got -1"):
            bench_run(ns=[100], ms=[2], worker_counts=[0, -1], iterations=4, seed=0,
                      d=2, workdir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_worker_stderr_reaches_the_master_error(self, tmp_path, launched):
        # The worker cannot read its data and exits before it connects; the
        # master stops accepting at once and names the worker's error, long
        # before its accept timeout.
        missing = str(tmp_path / "missing.csv")
        settings = FitSettings(m=2, draws=3, burn=1, thin=1)
        start = time.monotonic()
        with pytest.raises(Exception, match="worker 1 exited with 2: .*missing.csv"):
            _run_tcp_cell(missing, 1, settings, accept_timeout=60.0)
        assert time.monotonic() - start < 10.0
        assert len(launched) == 1 and all(proc.poll() is not None for proc in launched)

    def test_killed_worker_is_named_by_rank_and_signal(self, tmp_path, launched, monkeypatch):
        # Rank 2 is SIGKILLed about 1 s after it starts, long before the
        # chain ends.  Rank 1 then fails too, once the master closes its
        # connection, but the signal death is the one reported.
        data = str(tmp_path / "d.csv")
        main(["generate", "--out", data, "--n", "2000", "--d", "3", "--seed", "5"])
        timers = []

        class KillRank2(perf.subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if len(launched) == 2:
                    timers.append(threading.Timer(1.0, self.kill))
                    timers[0].start()

        monkeypatch.setattr(perf.subprocess, "Popen", KillRank2)
        settings = FitSettings(m=10, draws=100_000, burn=0, thin=1_000)
        start = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="worker 2 killed by SIGKILL"):
                _run_tcp_cell(data, 2, settings)
        finally:
            for timer in timers:
                timer.cancel()
        assert time.monotonic() - start < 15.0
        assert len(launched) == 2 and all(proc.poll() is not None for proc in launched)

    def test_worker_failing_after_a_finished_master_is_reported(
        self, tmp_path, launched, monkeypatch
    ):
        # The worker serves the whole chain, then its wrapper exits 3.
        data = str(tmp_path / "d.csv")
        main(["generate", "--out", data, "--n", "400", "--d", "3", "--seed", "6"])
        script = tmp_path / "python-then-exit-3"
        script.write_text(f'#!/bin/sh\n"{sys.executable}" "$@"\nexit 3\n')
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        settings = FitSettings(m=2, draws=3, burn=1, thin=1)
        with pytest.raises(RuntimeError) as failure:
            _run_tcp_cell(data, 1, settings)
        assert str(failure.value) == "worker 1 exited with 3"
        assert len(launched) == 1 and all(proc.poll() is not None for proc in launched)


class _Worker:
    """A stand-in worker process: exited with `returncode`, or still running."""

    def __init__(self, returncode, stderr=b""):
        self.returncode, self.stderr = returncode, stderr

    def poll(self):
        return self.returncode

    def communicate(self, timeout=None):
        if self.returncode is None:
            raise subprocess.TimeoutExpired("worker", timeout)
        return None, self.stderr

    def kill(self):
        self.returncode = -9


class TestFirstWorkerError:
    def test_signal_death_ranks_before_an_error_exit(self):
        procs = [_Worker(2, b"peer closed the connection mid-message\n"), _Worker(-9)]
        assert _first_worker_error(procs, wait=1.0) == "worker 2 killed by SIGKILL"

    def test_unknown_signal_is_named_by_number(self):
        assert _first_worker_error([_Worker(-40)], wait=1.0) == "worker 1 killed by signal 40"

    def test_worker_still_running_is_killed_and_reported(self):
        procs = [_Worker(0), _Worker(None)]
        assert _first_worker_error(procs, wait=0.2) == "worker 2 did not exit within 0.2 s"
        assert procs[1].returncode == -9

    def test_the_rank_the_master_names_ranks_first(self):
        # Rank 2 failed and the master closed rank 1's connection; both have
        # exited by the time the launcher looks, so only the master's error
        # tells them apart.
        procs = [_Worker(1, b"peer closed the connection"), _Worker(1, b"bad shard")]
        assert _first_worker_error(procs, wait=1.0).startswith("worker 1 exited with 1")
        assert _first_worker_error(procs, wait=1.0, named=2) == "worker 2 exited with 1: bad shard"

    def test_launcher_kill_is_not_a_signal_death(self):
        # A worker the wait timed out on ranks after one that had exited.
        procs = [_Worker(None), _Worker(2, b"boom")]
        assert _first_worker_error(procs, wait=0.2) == "worker 2 exited with 2: boom"


@pytest.fixture
def launched(monkeypatch):
    """Every process `_run_tcp_cell` starts, in launch order.

    Tests assert that each one has exited once the launcher returns or
    raises; teardown kills any that a failing test left running.
    """
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(perf.subprocess, "Popen", Recording)
    yield started
    for proc in started:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
