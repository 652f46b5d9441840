"""The benchmark still finds what it calls and hooks in `src/`.

`perfbench/tracer.py` wraps the shard kernels by name and reads their
results, and `perfbench/run.py` and `perfbench/worker_entry.py` call into
the package for the TCP workload and name per-layer metrics after its
callables.  A refactor that renames one of these, or changes its signature
or what it returns, would otherwise break only the benchmark's runs.
"""
import functools
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np

import bartgrid
from bartgrid import analysis, cli, cluster, protocol, sampler

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


def test_tcp_workload_finds_its_calls_and_names():
    # The calls, attributes and span names of perfbench/run.py and
    # perfbench/worker_entry.py; binding starts no process.
    settings = sampler.FitSettings()
    inspect.signature(cluster.serve_master).bind(
        ("127.0.0.1", 0), 2, settings, on_bound=lambda address: None, accept_timeout=60.0,
        audits={}, collect_trace=True,
    )
    inspect.signature(sampler.run_chain_core).bind(
        [], None, None, 1.0, None, None, settings,
        on_iteration=lambda it, sigma, forest: None, collect_trace=True,
    )
    inspect.signature(analysis.sensitivity_report).bind(
        lambda rows: rows[:, 0], 3, 64, 8, 0, effect_points=5, effect_mc=100, threads=1,
    )
    shard = sampler.ShardData(np.zeros((1, 2), dtype=np.uint8), np.zeros(2), 1, [(0, 2)])
    assert sampler.LocalProvider(shard).shard is shard
    audit = cluster.ByteAudit()
    assert audit.sent_count == audit.received_count == {}
    assert audit.sampler_payload_total() == 0
    assert {"move", "accepted", "b_after"} <= {f.name for f in fields(sampler.TreeMoveRecord)}
    for name in (
        "cluster.MessageIO.recv",
        "cli.connect_worker",
        "protocol.IterBegin",
        "protocol.Shutdown",
        "cluster.SocketChannel.recv",
        "cluster.RemoteProvider.move_stats",
        "cluster.RemoteProvider.mu_stats",
        "cluster.RemoteProvider.rss",
        "sampler.LocalProvider.rss",
        "sampler.ShardData.apply_birth",
        "sampler.ShardData.apply_death",
        "sampler.ShardData.apply_mus",
    ):
        assert callable(functools.reduce(getattr, name.split("."), bartgrid)), name


def test_predict_workload_calls_return_what_it_reads(tmp_path):
    # perfbench/run.py `predict_workload`'s calls, in its order, on a tiny fit.
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (200, 3))
    fit = sampler.run_serial(
        x, np.sin(2.0 * x[:, 0]), sampler.FitSettings(m=5, draws=12, burn=8, thin=1, seed=3)
    )
    path = str(tmp_path / "fit.model")
    cli.save_model(path, analysis.posterior_from_chain(fit))
    sample = cli.load_model(path)
    preds = analysis.predict_mean(sample, x[:50])
    assert preds.shape == (50,) and np.all(np.isfinite(preds))
    report = analysis.sensitivity_report(
        sample.predictor(), 3, 64, 8, 7, effect_points=5, effect_mc=10, threads=1,
    )
    values = [v for e in report.estimates for v in (e.s1, e.st)]
    assert len(values) == 6 and np.all(np.isfinite(values))
    assert report.effects.shape == (3, 5) and np.all(np.isfinite(report.effects))
