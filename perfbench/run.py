"""The repository benchmark: one workload per run, metrics on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`.
Inputs are generated from `--seed` before anything is timed.  `--seconds`
sets the amount of measured work (fits: 10 Gibbs iterations per second, so
150 at the 15 s of BENCHMARK.json; predict-sobol: 0.4 predictions of the
20k-row holdout and 400 Sobol sample rows per second).  With `--trace 0` the last line of
stdout holds the end-to-end metrics; with `--trace 1` the run is repeated
with spans installed (see tracer.py) and the last line holds the per-layer
metrics.  Every run checks the program's outputs; see README.md for what
each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
WORKER_ENTRY = os.path.join(HERE, "worker_entry.py")

if not os.path.isfile(os.path.join(SRC, "bartgrid", "__init__.py")):
    sys.exit(f"perfbench: no program sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from bartgrid import analysis, cli, cluster, datagen, protocol, sampler  # noqa: E402

import tracer as tracing  # noqa: E402
from speed import LockstepProbe, SpeedProbe  # noqa: E402

# One fixed response surface for every run: --seed draws the rows and the
# chain, so runs at different seeds do comparable work.
SPEC_SEED = 1309_1906
D = 10
NOISE_SD = 0.15
BLOCKS = 2
WORKERS = 2
DESK_N = 40_000
PREDICT_TRAIN_N = 5_000
PREDICT_ROWS = 20_000
# Posterior-mean RMSE against the noiseless surface, as a share of the
# surface's standard deviation on the holdout.
RMSE_BOUND = 0.6
# Untraced runs repeat the set-up beyond the measured run's own until this
# much set-up time is spent (at least twice, at most 24 times) and report
# the median, so a cheap set-up is measured as steadily as a costly one.
SETUP_BUDGET_S = 1.0
# End-to-end times are read at a reference host speed (see speed.py); a
# chain is probed every PROBE_EVERY Gibbs iterations.
PROBE_EVERY = 4
MEASURE = "measure"  # tracer phase of the measured operations

FIT_WORKLOADS = {
    # name: (rows, trees, TCP workers or 0 for serial)
    "small-serial": (1_000, 200, 0),
    "desk-serial": (DESK_N, 50, 0),
    "desk-tcp2": (DESK_N, 50, WORKERS),
}
WORKLOADS = [*FIT_WORKLOADS, "predict-sobol"]

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "work_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An output of the program is wrong; the run's operations count as failed."""


class SetupDone(Exception):
    """Raised at the start of a chain when only its set-up is being timed."""


@dataclass
class ChainRun:
    """What one observed chain left behind."""

    setup_only: bool = False
    setup_start: float = 0.0
    chain_start: float = 0.0
    starts: list[float] = field(default_factory=list)  # per iteration
    ends: list[float] = field(default_factory=list)  # per iteration
    forest: list | None = None
    grid: object = None
    provider: object = None
    result: object = None
    audits: dict | None = None
    ledger: list[tuple[int, int]] = field(default_factory=list)
    run_master_start: float = 0.0
    worker_traces: list = field(default_factory=list)

    def iteration_ms(self) -> np.ndarray:
        return (np.array(self.ends) - np.array(self.starts[: len(self.ends)])) * 1e3


class ChainObserver:
    """Stands in for `run_chain_core` in sampler and cluster to watch a chain.

    It marks the end of set-up (the chain's start), stamps every iteration,
    keeps the forest and provider the chain ran on for the output checks, and
    snapshots the master's ByteAudit ledger after every iteration.
    """

    def __init__(self):
        self.inner = sampler.run_chain_core
        self.run: ChainRun | None = None
        self.tracer: tracing.Tracer | None = None
        self.probe: SpeedProbe | None = None  # probes between iterations when set
        sampler.run_chain_core = self._observed
        cluster.run_chain_core = self._observed
        master = cluster.run_master

        def run_master(*args, **kwargs):
            self.run.run_master_start = time.perf_counter()
            return master(*args, **kwargs)

        cluster.run_master = run_master

    def _observed(self, forest, grid, prior, sigma0, rng, provider, settings, *,
                  on_iteration=None, **kwargs):
        run = self.run
        run.chain_start = time.perf_counter()
        run.forest, run.grid, run.provider = forest, grid, provider
        if run.setup_only:
            raise SetupDone

        probe = self.probe

        def stamp(it, sigma, f):
            if on_iteration is not None:
                on_iteration(it, sigma, f)
            if run.audits is not None:
                run.ledger.append(ledger_totals(run.audits))
            end = time.perf_counter()
            run.ends.append(end)
            run.starts.append(probe.probe() if probe and it % PROBE_EVERY == 0 else end)

        run.starts.append(probe.probe() if probe else time.perf_counter())

        if self.tracer is not None:
            self.tracer.phase = MEASURE
        try:
            return self.inner(forest, grid, prior, sigma0, rng, provider, settings,
                              on_iteration=stamp, **kwargs)
        finally:
            if self.tracer is not None:
                self.tracer.phase = "post"


def ledger_totals(audits: dict) -> tuple[int, int]:
    """(ledger bytes, ledger frames) over all ranks and both directions."""
    nbytes = sum(a.sampler_payload_total() for a in audits.values())
    frames = sum(
        count
        for a in audits.values()
        for counts in (a.sent_count, a.received_count)
        for op, count in counts.items()
        if op in protocol.SAMPLER_OPCODES
    )
    return nbytes, frames


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def spec():
    return datagen.gen_spec(D, 30, np.random.default_rng(SPEC_SEED))


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------

def fit_settings(m: int, iterations: int, seed: int, blocks: int = BLOCKS) -> sampler.FitSettings:
    # Snapshots in the second half, every 5th iteration: 10% of iterations
    # also clone the forest, as a user's kept draws do.
    burn = iterations // 2
    return sampler.FitSettings(
        m=m, draws=iterations, burn=burn, thin=5, seed=seed, reduction_blocks=blocks,
        min_leaf=5, numcut=100,
    )


def serial_fit(obs: ChainObserver, csv: str, settings, setup_only: bool = False) -> ChainRun:
    run = ChainRun(setup_only=setup_only)
    obs.run = run
    run.setup_start = time.perf_counter()
    x, y, _names = datagen.read_table(csv, response="y")
    try:
        run.result = sampler.run_serial(x, y, settings)
    except SetupDone:
        pass
    return run


def tcp_fit(obs: ChainObserver, csv: str, settings, work: str, trace_dir: str | None = None) -> ChainRun:
    """Master in this process, workers through the `bartgrid fit` CLI."""
    run = ChainRun(audits={rank: cluster.ByteAudit() for rank in range(1, WORKERS + 1)})
    obs.run = run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    procs: list[tuple[subprocess.Popen, str]] = []

    def launch(address):
        host, port = address
        for rank in range(1, WORKERS + 1):
            args = [
                "fit", "--role", "worker", "--connect", f"{host}:{port}",
                "--rank", str(rank), "--workers", str(WORKERS),
                "--reduction-blocks", str(settings.reduction_blocks), "--data", csv,
            ]
            if trace_dir is None:
                cmd = [sys.executable, "-m", "bartgrid", *args]
            else:
                cmd = [sys.executable, WORKER_ENTRY, os.path.join(trace_dir, f"rank{rank}.json"), *args]
            err_path = os.path.join(work, f"worker{rank}.err")
            with open(err_path, "wb") as err:
                procs.append((subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err), err_path))

    run.setup_start = time.perf_counter()
    try:
        run.result = cluster.serve_master(
            ("127.0.0.1", 0), WORKERS, settings, on_bound=launch, accept_timeout=60.0,
            audits=run.audits, collect_trace=True,
        )
        for proc, err_path in procs:
            if proc.wait(timeout=60) != 0:
                with open(err_path, "r", errors="replace") as fh:
                    raise RuntimeError(f"worker exited with {proc.returncode}: {fh.read()[-2000:]}")
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if trace_dir is not None:
        run.worker_traces = [
            tracing.Tracer.load(os.path.join(trace_dir, f"rank{rank}.json"))
            for rank in range(1, WORKERS + 1)
        ]
    return run


def check_serial(run: ChainRun) -> None:
    try:
        sampler.check_residual_invariant(run.forest, run.grid, run.provider.shard)
    except AssertionError as exc:
        raise CheckFailed(str(exc)) from None


def check_tcp(run: ChainRun, ref: ChainRun) -> None:
    """Same chain as the serial fit, and a ledger that matches the paper's."""
    if sampler.forest_hash(run.forest) != sampler.forest_hash(ref.forest):
        raise CheckFailed("distributed final forest differs from the serial fit's")
    if run.result.sigmas.tobytes() != ref.result.sigmas.tobytes():
        raise CheckFailed("distributed sigma trace differs from the serial fit's")
    previous = 0
    for it, (total, _frames) in enumerate(run.ledger):
        records = run.result.trace[it]
        expected = protocol.iteration_byte_count(
            [(r.move, r.accepted) for r in records], [r.b_after for r in records], WORKERS
        )
        if total - previous != expected:
            raise CheckFailed(
                f"iteration {it + 1}: ledger holds {total - previous} bytes, expected {expected}"
            )
        previous = total


def repeat_setup(setup_once, probe: SpeedProbe) -> list[tuple[float, float]]:
    """(start, end) of repeated set-ups: at least 2, more while they are cheap."""
    spans: list[tuple[float, float]] = []
    while len(spans) < 2 or (sum(e - s for s, e in spans) < SETUP_BUDGET_S and len(spans) < 24):
        spans.append(setup_once())
        probe.probe(2)
    return spans


def timing_metrics(setups, setup_probe: SpeedProbe, op_spans, work_spans,
                   op_probe: SpeedProbe, rss: float, info: dict) -> dict:
    """End-to-end metrics at the reference speed.

    The same figures in wall-clock time, and the operations' tail, go to
    `info`: on a shared host the tail of a run swings too much to gate on.
    """
    def wall(s: float, e: float) -> float:
        return e - s

    metrics, raw = {}, {}
    for out, setup_scale, op_scale in ((metrics, setup_probe.scaled, op_probe.scaled),
                                       (raw, wall, wall)):
        ops = np.array([op_scale(s, e) for s, e in op_spans]) * 1e3
        out.update({
            "setup_s": statistics.median(setup_scale(s, e) for s, e in setups),
            "op_ms_p50": float(np.percentile(ops, 50)),
            "op_ms_p90": float(np.percentile(ops, 90)),
            "op_ms_p95": float(np.percentile(ops, 95)),
            "work_s": sum(op_scale(s, e) for s, e in work_spans),
            "peak_rss_mb": rss,
        })
    info["wall_clock"] = raw
    info["tail"] = {name: metrics.pop(name) for name in ("op_ms_p90", "op_ms_p95")}
    info["op_samples"] = len(op_spans)
    info["probe_ms_median"] = statistics.median(op_probe.ms)
    return metrics


def make_fit_csv(work: str, n: int, seed: int) -> str:
    path = os.path.join(work, f"fit-n{n}.csv")
    datagen.write_dataset(path, spec(), n, NOISE_SD, np.random.default_rng([seed, n]))
    return path


def fit_workload(name: str, args, obs: ChainObserver, work: str, info: dict) -> dict:
    n, m, workers = FIT_WORKLOADS[name]
    iterations = max(10, round(10 * args.seconds))
    settings = fit_settings(m, iterations, args.seed)
    csv = make_fit_csv(work, n, args.seed)
    info["inputs"] = {"csv_sha256": sha256_file(csv), "rows": n, "trees": m, "iterations": iterations}
    trace = args.trace == 1
    setups: list[tuple[float, float]] = []
    ops = 0

    def fit(traced_dir: str | None = None) -> ChainRun:
        nonlocal ops
        if workers:
            blocks = args.tcp_blocks or BLOCKS
            run = tcp_fit(obs, csv, fit_settings(m, iterations, args.seed, blocks), work, traced_dir)
        else:
            run = serial_fit(obs, csv, settings)
        ops += iterations
        return run

    # Extra set-ups, each timed to the first Gibbs iteration; a TCP set-up is
    # a full handshake followed by a one-iteration chain.
    def setup_once() -> tuple[float, float]:
        if workers:
            short = fit_settings(m, 1, args.seed, args.tcp_blocks or BLOCKS)
            run = tcp_fit(obs, csv, short, work)
        else:
            run = serial_fit(obs, csv, settings, setup_only=True)
        return run.setup_start, run.chain_start

    # A TCP chain needs both CPUs and a process wake-up per message, so its
    # speed is probed the same way; set-ups are probed in-process.
    setup_probe = op_probe = None
    if not trace:
        setup_probe = SpeedProbe()
        op_probe = obs.probe = LockstepProbe(WORKERS) if workers else setup_probe
    try:
        if setup_probe is not None:
            setups = repeat_setup(setup_once, setup_probe)
        main = fit()
    finally:
        obs.probe = None
        if op_probe is not None:
            op_probe.close()
    setups.append((main.setup_start, main.chain_start))
    rss = peak_rss_mb()
    # The TCP chain must equal the serial chain; that reference fit runs
    # after the timed chain and is neither timed nor traced.
    ref = serial_fit(obs, csv, settings) if workers else None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        obs.tracer = tracer
        obs.inner = tracer.wrap("sampler.run_chain_core", obs.inner)
        traced = fit(tempfile.mkdtemp(prefix="trace-", dir=work) if workers else None)
        metrics = fit_layer_metrics(tracer, main, traced, iterations)
        print("\n".join(tracer.table(MEASURE)), file=sys.stderr)
        runs = [main, traced]
    else:
        spans = list(zip(main.starts, main.ends))
        metrics = timing_metrics(setups, setup_probe, spans, spans, op_probe, rss, info)
        runs = [main]
    info["chain_forest_md5"] = sampler.forest_hash(main.forest)
    correct = True
    try:
        for run in runs:
            check_tcp(run, ref) if workers else check_serial(run)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    return {"correct": correct, "ops": ops, "metrics": metrics}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "trees.enumerate_nodes.calls_per_iter": "count",
    "trees.enumerate_nodes.ms_per_iter": "ms",
    "trees.node.calls_per_iter": "count",
    "trees.available_cut_range.ms_per_iter": "ms",
    "trees.clone.ms_per_iter": "ms",
    "trees.evaluate_rows.calls": "count",
    "trees.evaluate_rows.ms": "ms",
    "trees.evaluate_rows.rows_per_call": "rows",
    "trees.self_ms_per_iter": "ms",
    "sampler.propose.ms_per_iter": "ms",
    "sampler.accept_log_ratio.ms_per_iter": "ms",
    "sampler.draw.ms_per_iter": "ms",
    "sampler.sigma.ms_per_iter": "ms",
    "sampler.self_ms_per_iter": "ms",
    "sampler.shard.self_ms_per_iter": "ms",
    "sampler.shard.move_stats.ms_per_iter": "ms",
    "sampler.shard.mu_stats.ms_per_iter": "ms",
    "sampler.shard.apply.ms_per_iter": "ms",
    "sampler.shard.rss.ms_per_iter": "ms",
    "sampler.shard.rows_scanned_per_iter": "rows",
    "sampler.shard.move_stats.useful_row_frac": "ratio",
    "sampler.mh.birth_proposed_per_iter": "count",
    "sampler.mh.birth_accept_frac": "ratio",
    "sampler.mh.death_proposed_per_iter": "count",
    "sampler.mh.death_accept_frac": "ratio",
    "sampler.b_bar": "count",
    "protocol.ledger_bytes_per_iter": "B",
    "protocol.frames_per_iter": "count",
    "protocol.encode.ms_per_iter": "ms",
    "protocol.decode.ms_per_iter": "ms",
    "protocol.self_ms_per_iter": "ms",
    "cluster.master.move_wait_ms_per_iter": "ms",
    "cluster.master.leaf_wait_ms_per_iter": "ms",
    "cluster.master.sigma_wait_ms_per_iter": "ms",
    "cluster.round_trips_per_iter": "count",
    "cluster.worker.r1.compute_ms_per_iter": "ms",
    "cluster.worker.r1.wait_ms_per_iter": "ms",
    "cluster.worker.r2.compute_ms_per_iter": "ms",
    "cluster.worker.r2.wait_ms_per_iter": "ms",
    "cluster.worker.imbalance": "ratio",
    "cluster.handshake_s": "s",
    "cluster.worker_start_s": "s",
    "cluster.self_ms_per_iter": "ms",
    "datagen.read_s": "s",
    "analysis.predict_mean.ms": "ms",
    "analysis.sobol_indices.s": "s",
    "analysis.main_effect.s": "s",
    "analysis.predictor_calls": "count",
    "cli.load_model.s": "s",
    "cli.model_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.driver_self_ms_per_iter": "ms",
}


def span_total(tracer: tracing.Tracer, name: str, phase: str = MEASURE) -> tuple[float, float]:
    """(inclusive seconds, child seconds) of one span over a phase."""
    recs = [r for (ph, _, nm), r in tracer.spans.items() if ph == phase and nm == name]
    return sum(r[1] for r in recs), sum(r[2] for r in recs)


def coverage(tracer: tracing.Tracer, wall: float, root: str | None) -> tuple[float, float]:
    """(share of `wall` in the self time of wrapped spans, root's self time).

    The root span is the chain driver, whose own self time is the part no
    wrapped layer accounts for.
    """
    covered = sum(tracer.self_seconds(MEASURE).values())
    root_self = 0.0
    if root is not None:
        total, child = span_total(tracer, root)
        root_self = total - child
    return (covered - root_self) / wall, root_self


def fit_layer_metrics(tracer, main: ChainRun, traced: ChainRun, n_iter: int) -> dict:
    workers = [t for t, _ in traced.worker_traces]
    procs = [tracer, *workers]
    per_iter_ms = 1e3 / n_iter

    def ms(*names: str) -> float:
        return sum(t.seconds(nm, MEASURE) for t in procs for nm in names) * per_iter_ms

    def calls(*names: str) -> float:
        return sum(t.calls(nm, MEASURE) for t in procs for nm in names) / n_iter

    def counted(name: str) -> float:
        return sum(t.counted(name, MEASURE) for t in procs)

    res = traced.result
    wall = traced.ends[-1] - traced.chain_start
    cov, root_self = coverage(tracer, wall, "sampler.run_chain_core")
    layer_self: dict[str, float] = {}
    for t in procs:
        for layer, secs in t.self_seconds(MEASURE).items():
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
    out = {
        "trees.enumerate_nodes.calls_per_iter": calls("trees.enumerate_nodes"),
        "trees.enumerate_nodes.ms_per_iter": ms("trees.enumerate_nodes"),
        "trees.node.calls_per_iter": calls("trees.Tree.node"),
        "trees.available_cut_range.ms_per_iter": ms("trees.available_cut_range"),
        "trees.clone.ms_per_iter": ms("trees.Tree.clone"),
        "trees.self_ms_per_iter": layer_self.get("trees", 0.0) * per_iter_ms,
        "sampler.propose.ms_per_iter": ms("sampler.propose"),
        "sampler.accept_log_ratio.ms_per_iter": ms("sampler.accept_log_ratio"),
        "sampler.draw.ms_per_iter": ms("sampler.draw_mu", "sampler.draw_mus"),
        "sampler.sigma.ms_per_iter": ms(
            "sampler.LocalProvider.rss", "cluster.RemoteProvider.rss", "sampler.draw_sigma"
        ),
        "sampler.self_ms_per_iter": (layer_self.get("sampler", 0.0) - root_self) * per_iter_ms,
        "sampler.shard.self_ms_per_iter": layer_self.get("sampler.shard", 0.0) * per_iter_ms,
        "sampler.shard.move_stats.ms_per_iter": ms("sampler.ShardData.move_stats_blocks"),
        "sampler.shard.mu_stats.ms_per_iter": ms("sampler.ShardData.mu_stats_blocks"),
        "sampler.shard.apply.ms_per_iter": ms(
            "sampler.ShardData.apply_birth", "sampler.ShardData.apply_death",
            "sampler.ShardData.apply_mus",
        ),
        "sampler.shard.rss.ms_per_iter": ms("sampler.ShardData.rss_blocks"),
        "sampler.shard.rows_scanned_per_iter": counted("sampler.shard.rows_scanned") / n_iter,
        "sampler.shard.move_stats.useful_row_frac": (
            counted("sampler.shard.move_stats.useful_rows")
            / max(1.0, counted("sampler.shard.move_stats.rows_scanned"))
        ),
        "sampler.mh.birth_proposed_per_iter": res.birth_proposed.sum() / n_iter,
        "sampler.mh.birth_accept_frac": res.birth_accepted.sum() / max(1, res.birth_proposed.sum()),
        "sampler.mh.death_proposed_per_iter": res.death_proposed.sum() / n_iter,
        "sampler.mh.death_accept_frac": res.death_accepted.sum() / max(1, res.death_proposed.sum()),
        "sampler.b_bar": float(np.mean(res.mean_b)),
        "protocol.encode.ms_per_iter": ms("protocol.encode"),
        "protocol.decode.ms_per_iter": ms("protocol.decode"),
        "protocol.self_ms_per_iter": layer_self.get("protocol", 0.0) * per_iter_ms,
        "cluster.self_ms_per_iter": layer_self.get("cluster", 0.0) * per_iter_ms,
        "trace.overhead_frac": (
            float(np.median(traced.iteration_ms())) / float(np.median(main.iteration_ms())) - 1.0
        ),
        "trace.coverage_frac": cov,
        "trace.driver_self_ms_per_iter": root_self * per_iter_ms,
        "datagen.read_s": span_total(tracer, "datagen.read_table", "setup")[0],
    }
    if traced.ledger:
        nbytes, frames = traced.ledger[-1]

        def master_ms(name: str) -> float:
            return tracer.seconds(name, MEASURE) * per_iter_ms

        out.update({
            "protocol.ledger_bytes_per_iter": nbytes / n_iter,
            "protocol.frames_per_iter": frames / n_iter,
            "cluster.master.move_wait_ms_per_iter": master_ms("cluster.RemoteProvider.move_stats"),
            "cluster.master.leaf_wait_ms_per_iter": master_ms("cluster.RemoteProvider.mu_stats"),
            "cluster.master.sigma_wait_ms_per_iter": master_ms("cluster.RemoteProvider.rss"),
            "cluster.round_trips_per_iter": sum(
                tracer.calls(f"cluster.RemoteProvider.{nm}", MEASURE)
                for nm in ("move_stats", "mu_stats", "rss")
            ) / n_iter,
            "cluster.handshake_s": traced.chain_start - traced.run_master_start,
            "cluster.worker_start_s": max(
                extra["start"] - traced.setup_start for _, extra in traced.worker_traces
            ),
        })
        computes = []
        reads = []
        for t, extra in traced.worker_traces:
            loop = extra["chain_end"] - extra["chain_start"]
            wait = t.seconds("cluster.SocketChannel.recv", MEASURE)
            computes.append(loop - wait)
            reads.append(extra["shard_loaded"] - extra["start"])
            out[f"cluster.worker.r{extra['rank']}.compute_ms_per_iter"] = (loop - wait) * per_iter_ms
            out[f"cluster.worker.r{extra['rank']}.wait_ms_per_iter"] = wait * per_iter_ms
        out["cluster.worker.imbalance"] = max(computes) / statistics.fmean(computes)
        out["datagen.read_s"] = max(reads)
    return out


# ---------------------------------------------------------------------------
# Prediction and sensitivity analysis
# ---------------------------------------------------------------------------

def predict_workload(args, obs: ChainObserver, work: str, info: dict) -> dict:
    # The model is the same for every --seed, which draws the holdout and the
    # Sobol samples: models fitted at different seeds differ by about 7% in
    # size, and prediction time with them.
    surface = spec()
    x, y, _f = datagen.gen_dataset(
        surface, PREDICT_TRAIN_N, NOISE_SD, np.random.default_rng([SPEC_SEED, PREDICT_TRAIN_N])
    )
    xh, yh, fh = datagen.gen_dataset(
        surface, PREDICT_ROWS, NOISE_SD, np.random.default_rng([args.seed, PREDICT_ROWS])
    )
    obs.run = ChainRun()
    fitted = sampler.run_serial(
        x, y, sampler.FitSettings(m=50, draws=60, burn=40, thin=1, seed=SPEC_SEED)
    )
    model = os.path.join(work, "fit.model")
    cli.save_model(model, analysis.posterior_from_chain(fitted))
    holdout = os.path.join(work, "holdout.csv")
    datagen.write_table(holdout, ["y", *(f"x{j}" for j in range(D))], np.column_stack([yh, xh]))
    info["inputs"] = {
        "holdout_sha256": sha256_file(holdout), "model_sha256": sha256_file(model),
        "model_bytes": os.path.getsize(model),
    }
    n_predict = max(2, round(args.seconds * 0.4))
    n_s = max(16, round(400 * args.seconds))
    effect_mc = max(10, round(25 * args.seconds))

    def load():
        start = time.perf_counter()
        sample = cli.load_model(model)
        data, names = datagen.read_table(holdout)
        xs = np.delete(data, names.index("y"), axis=1)
        return (start, time.perf_counter()), sample, xs

    def measure(sample, xs, sobol: bool, probe: SpeedProbe | None):
        """(prediction spans, predictions, Sobol report, report span)."""
        spans, preds = [], []
        for _ in range(n_predict):
            if probe:
                probe.probe(2)
            start = time.perf_counter()
            preds.append(analysis.predict_mean(sample, xs))
            spans.append((start, time.perf_counter()))
        report, report_span = None, None
        if sobol:
            if probe:
                probe.probe(3)
            start = time.perf_counter()
            report = analysis.sensitivity_report(
                sample.predictor(), D, n_s, 8, args.seed,
                effect_points=5, effect_mc=effect_mc, threads=1,
            )
            report_span = (start, time.perf_counter())
            if probe:
                probe.probe(3)
        return spans, preds, report, report_span

    def median_ms(spans) -> float:
        return float(np.median([e - s for s, e in spans])) * 1e3

    trace = args.trace == 1
    probe = None if trace else SpeedProbe()
    setups = [] if trace else repeat_setup(lambda: load()[0], probe)
    setup_span, sample, xs = load()
    setups.append(setup_span)
    spans, preds, report, report_span = measure(sample, xs, not trace, probe)
    rss = peak_rss_mb()
    ops = n_predict + (0 if trace else 1)
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        _, sample, xs = load()
        tracer.phase = MEASURE
        start = time.perf_counter()
        traced_spans, traced_preds, report, _ = measure(sample, xs, True, None)
        wall = time.perf_counter() - start
        tracer.phase = "post"
        print("\n".join(tracer.table(MEASURE)), file=sys.stderr)
        preds += traced_preds
        ops += n_predict + 1
        n_top = tracer.calls("analysis.predict_mean", MEASURE)
        top_total = sum(
            r[1] for (ph, parent, nm), r in tracer.spans.items()
            if ph == MEASURE and nm == "analysis.predict_mean" and parent == ""
        )
        eval_calls = tracer.calls("trees.evaluate_rows", MEASURE)
        metrics = {
            "trees.evaluate_rows.calls": float(eval_calls),
            "trees.evaluate_rows.ms": tracer.seconds("trees.evaluate_rows", MEASURE) * 1e3,
            "trees.evaluate_rows.rows_per_call": (
                tracer.counted("trees.evaluate_rows.rows", MEASURE) / max(1, eval_calls)
            ),
            "analysis.predict_mean.ms": top_total * 1e3 / n_predict,
            "analysis.sobol_indices.s": tracer.seconds("analysis.sobol_indices", MEASURE),
            "analysis.main_effect.s": tracer.seconds("analysis.main_effect", MEASURE),
            "analysis.predictor_calls": float(n_top - n_predict),
            "cli.load_model.s": span_total(tracer, "cli.load_model", "setup")[0],
            "cli.model_bytes": float(os.path.getsize(model)),
            "datagen.read_s": span_total(tracer, "datagen.read_table", "setup")[0],
            "trace.overhead_frac": median_ms(traced_spans) / median_ms(spans) - 1.0,
            "trace.coverage_frac": coverage(tracer, wall, None)[0],
        }
    else:
        metrics = timing_metrics(setups, probe, spans, [*spans, report_span], probe, rss, info)
    correct = True
    try:
        first = preds[0]
        if any(p.tobytes() != first.tobytes() for p in preds[1:]):
            raise CheckFailed("repeated predictions of one holdout differ")
        rmse = float(np.sqrt(np.mean((first - fh) ** 2)))
        info["rmse_over_sd"] = rmse / float(np.std(fh))
        if not rmse <= RMSE_BOUND * float(np.std(fh)):
            raise CheckFailed(f"holdout RMSE {rmse:.4f} exceeds {RMSE_BOUND} x sd of the surface")
        values = [v for e in report.estimates for v in (e.s1, e.st)]
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(report.effects))):
            raise CheckFailed("Sobol indices or main effects are not finite")
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    return {"correct": correct, "ops": ops, "metrics": metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tcp-blocks", type=int, default=None,
        help="reduction blocks of desk-tcp2's distributed chain (default 2, as the serial "
             "reference); another value must fail the output check",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": host_info()}
    os.makedirs(WORKDIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        obs = ChainObserver()
        if args.workload == "predict-sobol":
            outcome = predict_workload(args, obs, work, info)
        else:
            outcome = fit_workload(args.workload, args, obs, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["host"]["loadavg_after"] = list(os.getloadavg())
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: 0.0 for name in units}  # layers a workload bypasses read 0
    metrics.update(outcome["metrics"])
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics without a declared unit: {sorted(unknown)}")
    print(json.dumps({"run_info": info}))
    ops = outcome["ops"]
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": ops,
        "failed": 0 if outcome["correct"] else ops,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
