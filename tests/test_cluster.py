import contextlib
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from bartgrid import cluster
from bartgrid import protocol as proto
from bartgrid.cluster import (
    ByteAudit,
    ClusterError,
    MessageIO,
    SocketChannel,
    connect_worker,
    run_cluster_inprocess,
    run_master,
    run_worker,
    serve_master,
)
from bartgrid.protocol import iteration_byte_count
from bartgrid.sampler import FitSettings, run_serial, worker_row_range
from bartgrid.trees import MAX_DEPTH


def toy_data(n=400, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.standard_normal(n)
    return x, y


def toy_settings(**overrides):
    base = dict(m=6, draws=40, burn=10, thin=5, seed=42, min_leaf=2, numcut=25)
    base.update(overrides)
    return FitSettings(**base)


def channel_pair():
    """Both ends of one in-process channel, each with a 10 s receive timeout."""
    ends = socket.socketpair()
    for sock in ends:
        sock.settimeout(10.0)
    return tuple(SocketChannel(sock) for sock in ends)


@contextlib.contextmanager
def scripted_master(m=1, d=3, numcut=10):
    """The master's end of a worker on 40 rows, past RUN_SETUP on a grid of
    `numcut` cutpoints per variable; yields it and the list of the worker's
    ClusterErrors, which is complete once the block exits."""
    x, y = toy_data(40, d)
    master_end, worker_end = channel_pair()
    errors = []

    def target():
        try:
            run_worker(worker_end, x, y, 1, 1, 1)
        except ClusterError as exc:
            errors.append(exc)
        finally:
            worker_end.close()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    try:
        io = MessageIO(master_end)
        io.recv((proto.Hello,))
        meta = io.recv((proto.ShardMeta,))
        io.send(proto.RunSetup(m, numcut, 1, 40, 0.0, 1.0, meta.x_min, meta.x_max))
        yield io, errors
        thread.join(timeout=15)
    finally:
        master_end.close()
    assert not thread.is_alive()


def play(io, steps):
    """Send each message in `steps`; receive each message type instead, and
    each (type, records) pair as a per-leaf message of that many records."""
    for step in steps:
        if isinstance(step, tuple):
            io.recv(step[:1], mu_records=step[1])
        elif isinstance(step, type):
            io.recv((step,))
        else:
            io.send(step)


def right_spine(depth):
    """Tree sweeps of a one-tree chain that split node 1 at (0, 0), its right
    child at (0, 1), and so on, until the tree is `depth` deep."""
    steps = []
    for level in range(depth):
        node = 2 ** (level + 1) - 1
        steps += [
            proto.IterBegin(proto.PHASE_TREES),
            proto.BirthProposal(node, 0, level),
            proto.MoveStats,
            proto.BirthAccept(node, 0, level, 0.0, 0.0),
            (proto.MuStats, level + 2),
            proto.MuValues((0.0,) * (level + 2)),
            proto.RssPartial,
        ]
    return steps


class TestShardData:
    def test_inprocess_run_refuses_a_worker_without_rows(self):
        x, y = toy_data(3)
        with pytest.raises(ValueError, match="no rows for rank 4 of 4 workers: 3 rows in 4"):
            run_cluster_inprocess(x, y, toy_settings(), workers=4)
        assert not [t for t in threading.enumerate() if t.name.startswith("bartgrid-worker-")]

    def test_serial_fit_keeps_empty_blocks(self):
        x, y = toy_data(3)
        assert run_serial(x, y, toy_settings(reduction_blocks=4)).sigmas.size == 40

    def test_master_refuses_a_worker_without_rows_before_its_shard_meta(self):
        # Two workers announce 1 and 0 rows and send nothing else.
        ends = [channel_pair() for _ in range(2)]
        for rank, (_, worker_end) in enumerate(ends, start=1):
            worker_end.send(proto.encode(proto.Hello(proto.PROTOCOL_VERSION, rank, 2 - rank)))
        try:
            with pytest.raises(ValueError, match="no rows for rank 2 of 2 workers: 1 rows in 2"):
                run_master([master_end for master_end, _ in ends], toy_settings())
        finally:
            for pair in ends:
                for chan in pair:
                    chan.close()

    @pytest.mark.parametrize("rank, rows", [(1, 0), (3, 20)], ids=["empty-shard", "rank-3-of-2"])
    def test_worker_refuses_a_bad_layout_before_the_handshake(self, rank, rows):
        x, y = toy_data(20)
        master_end, worker_end = channel_pair()
        with pytest.raises(ValueError, match=f"no rows for rank {rank} of 2 workers: {rows} rows"):
            run_worker(worker_end, x[:rows], y[:rows], rank, 2, 2)
        worker_end.close()
        with pytest.raises(ClusterError, match="closed the connection"):
            master_end.recv(1)
        master_end.close()


class TestEquivalence:
    @pytest.mark.parametrize("blocks", [1, 3, 5, 6])
    def test_single_worker_equals_serial(self, blocks):
        # One worker folds its blocks as the serial fit does, so any block
        # count gives the serial chain; the power-of-two rule is for 2+ workers.
        x, y = toy_data(1000)
        settings = toy_settings(draws=100, burn=20, thin=20, reduction_blocks=blocks)
        serial = run_serial(x, y, settings, collect_hashes=True)
        one = run_cluster_inprocess(x, y, settings, workers=1, collect_hashes=True)
        assert serial.sigmas.tobytes() == one.sigmas.tobytes()
        assert serial.forest_hashes == one.forest_hashes

    def test_serial_vs_two_and_four_workers(self):
        x, y = toy_data(400)
        settings = toy_settings(reduction_blocks=4)
        serial = run_serial(x, y, settings, collect_hashes=True)
        two = run_cluster_inprocess(x, y, settings, workers=2, collect_hashes=True)
        four = run_cluster_inprocess(x, y, settings, workers=4, collect_hashes=True)
        assert np.array_equal(serial.sigmas, two.sigmas)
        assert np.array_equal(serial.sigmas, four.sigmas)
        assert serial.forest_hashes == two.forest_hashes == four.forest_hashes
        assert serial.y_mid == two.y_mid == four.y_mid
        assert serial.prior.lam == two.prior.lam == four.prior.lam

    def test_serial_vs_two_workers_on_a_uint16_grid(self):
        # 300 cutpoints need uint16 cut indices in every shard.
        x, y = toy_data(400)
        settings = toy_settings(numcut=300, reduction_blocks=2)
        serial = run_serial(x, y, settings, collect_hashes=True)
        two = run_cluster_inprocess(x, y, settings, workers=2, collect_hashes=True)
        assert np.array_equal(serial.sigmas, two.sigmas)
        assert serial.forest_hashes == two.forest_hashes
        cuts = [
            val[1] for _, forest in serial.snapshots for tree in forest
            for val in tree.nodes.values() if isinstance(val, tuple)
        ]
        assert max(cuts) > 255

    def test_prior_only_distributed_matches_serial(self):
        x, y = toy_data(64)
        settings = toy_settings(m=2, prior_only=True, min_leaf=0, reduction_blocks=2)
        serial = run_serial(x, y, settings, collect_hashes=True)
        dist = run_cluster_inprocess(x, y, settings, workers=2, collect_hashes=True)
        assert serial.forest_hashes == dist.forest_hashes
        assert np.array_equal(serial.mean_b, dist.mean_b)

    def test_replica_coherence_debug_mode(self):
        x, y = toy_data(120)
        settings = toy_settings(draws=15, burn=5, thin=2)
        result = run_cluster_inprocess(x, y, settings, workers=2, check_replicas=True)
        assert result.sigmas.size == 15

    def test_replica_check_catches_a_diverged_replica(self, monkeypatch):
        # Rank 2 shifts a leaf of its first tree after every leaf pass.
        serve_tree = cluster._serve_tree

        def perturbed(io, provider, grid, j, tree):
            serve_tree(io, provider, grid, j, tree)
            if j == 0 and threading.current_thread().name == "bartgrid-worker-2":
                tree.nodes[tree.terminals()[0]] += 1.0

        monkeypatch.setattr(cluster, "_serve_tree", perturbed)
        x, y = toy_data(120)
        settings = toy_settings(draws=4, burn=1, thin=1)
        with pytest.raises(ClusterError, match="rank 2 forest replica diverged at iteration 1"):
            run_cluster_inprocess(x, y, settings, workers=2, check_replicas=True)


class TestByteAccounting:
    def test_audit_matches_iteration_byte_count(self):
        x, y = toy_data(200)
        settings = toy_settings(draws=12, burn=2, thin=2)
        worker_audits = {1: ByteAudit(), 2: ByteAudit()}
        result = run_cluster_inprocess(
            x, y, settings, workers=2, worker_audits=worker_audits, collect_trace=True
        )
        assert result.trace is not None
        predicted = sum(
            iteration_byte_count(
                [(rec.move, rec.accepted) for rec in itrace],
                [rec.b_after for rec in itrace],
                p=2,
            )
            for itrace in result.trace
        )
        observed = sum(a.sampler_payload_total() for a in worker_audits.values())
        assert observed == predicted

    @pytest.mark.parametrize("n", [300, 1200])
    def test_fixed_opcode_sizes_on_the_wire(self, n):
        # Same assertions at two dataset sizes: no sampler payload may grow
        # with the shard size.
        x, y = toy_data(n)
        settings = toy_settings(draws=10, burn=2, thin=2)
        audit = ByteAudit()
        run_cluster_inprocess(x, y, settings, workers=2, worker_audits={1: audit, 2: ByteAudit()})
        fixed = {
            proto.OP_BIRTH_PROPOSAL: 12,
            proto.OP_DEATH_PROPOSAL: 8,
            proto.OP_MOVE_STATS: 24,
            proto.OP_BIRTH_ACCEPT: 28,
            proto.OP_DEATH_ACCEPT: 28,
            proto.OP_REJECT: 0,
            proto.OP_RSS_PARTIAL: 8,
        }
        for direction, counts in (("sent", audit.sent), ("received", audit.received)):
            count_map = audit.sent_count if direction == "sent" else audit.received_count
            for opcode, total in counts.items():
                if opcode in fixed:
                    assert total == fixed[opcode] * count_map[opcode]
                elif opcode == proto.OP_MU_STATS:
                    assert total % 20 == 0
                elif opcode == proto.OP_MU_VALUES:
                    assert total % 8 == 0

    def test_golden_trace_replays_identically(self, monkeypatch):
        # Capture every frame of a live 2-worker run, on the master's and the
        # workers' threads, then decode the byte trace offline: every frame
        # must parse, and re-encoding the parsed message must reproduce the
        # captured bytes exactly.
        encode, read_frame = proto.encode, proto.read_frame
        captures: dict[tuple[str, str], list[bytes]] = {}

        def capture(direction, frame):
            key = (threading.current_thread().name, direction)
            captures.setdefault(key, []).append(frame)
            return frame

        monkeypatch.setattr(proto, "encode", lambda msg: capture("send", encode(msg)))
        monkeypatch.setattr(
            proto, "read_frame", lambda *args: capture("recv", read_frame(*args))
        )
        x, y = toy_data(150)
        settings = toy_settings(draws=6, burn=1, thin=1)
        result = run_cluster_inprocess(x, y, settings, workers=2)
        assert result.sigmas.size == settings.draws
        master = threading.main_thread().name
        assert set(captures) == {
            (name, direction)
            for name in (master, "bartgrid-worker-1", "bartgrid-worker-2")
            for direction in ("send", "recv")
        }
        sampler_ops_seen = set()
        for frames in captures.values():
            for frame in frames:
                msg = proto.decode(frame)
                assert encode(msg) == frame
                if frame[0] in proto.SAMPLER_OPCODES:
                    sampler_ops_seen.add(frame[0])
        assert proto.OP_MOVE_STATS in sampler_ops_seen
        assert proto.OP_MU_STATS in sampler_ops_seen
        assert proto.OP_RSS_PARTIAL in sampler_ops_seen


# One out-of-domain value per FitSettings field, and the field its error names.
BAD_SETTINGS = [
    ("m", {"m": 0}),
    ("m", {"m": -2}),
    ("kfac", {"kfac": 0.0}),
    ("alpha", {"alpha": float("nan")}),
    ("alpha", {"alpha": 1.0}),
    ("beta", {"beta": -0.5}),
    ("nu", {"nu": 0.0}),
    ("sigquant", {"sigquant": 1.5}),
    ("numcut", {"numcut": 0}),
    ("min_leaf", {"min_leaf": -1}),
    ("burn", {"burn": -1}),
    ("draws", {"burn": 40, "draws": 40}),
    ("thin", {"thin": 0}),
    ("seed", {"seed": -1}),
    ("reduction_blocks", {"reduction_blocks": -2}),
    ("prior_only", {"prior_only": "false"}),
]


@pytest.mark.parametrize(
    "name, overrides", BAD_SETTINGS, ids=[f"{n}-{next(iter(o.values()))}" for n, o in BAD_SETTINGS]
)
def test_bad_setting_is_named_before_any_work(name, overrides):
    bad = toy_settings(**overrides)
    x, y = toy_data(n=40)
    for run in (lambda: run_serial(x, y, bad), lambda: run_cluster_inprocess(x, y, bad, 2)):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run()
    bound = []
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"^{name} must be"):
        serve_master(("127.0.0.1", 0), 2, bad, accept_timeout=30, on_bound=bound.append)
    assert time.monotonic() - start < 2.0 and not bound


class TestTransportErrors:
    def test_unknown_opcode_is_fatal(self):
        a, b = channel_pair()
        b.send(b"\xfe")
        io = MessageIO(a)
        with pytest.raises(ClusterError, match="unknown opcode"):
            io.recv((proto.Reject,))
        a.close()
        b.close()

    def test_unexpected_message_type(self):
        a, b = channel_pair()
        b.send(proto.encode(proto.Reject()))
        io = MessageIO(a)
        with pytest.raises(ClusterError, match="unexpected Reject"):
            io.recv((proto.MoveStats,))
        a.close()
        b.close()

    def test_closed_socket_raises(self):
        left, right = socket.socketpair()
        chan = SocketChannel(left)
        right.close()
        with pytest.raises(ClusterError, match="closed the connection"):
            chan.recv(4)
        chan.close()

    def test_worker_failure_surfaces(self):
        # A worker that dies instantly must abort the master with a diagnostic.
        x, y = toy_data(40)
        settings = toy_settings(draws=4, burn=1, thin=1)

        import bartgrid.cluster as cluster_mod

        orig = cluster_mod.run_worker

        def dying_worker(channel, *args, **kwargs):
            raise RuntimeError("synthetic worker crash")

        cluster_mod.run_worker = dying_worker
        try:
            with pytest.raises(ClusterError, match="synthetic worker crash"):
                run_cluster_inprocess(x, y, settings, workers=2)
        finally:
            cluster_mod.run_worker = orig

    def test_master_failure_propagates_and_stops_workers(self, monkeypatch):
        # The master's own error comes out unchanged, and closing its ends
        # releases every worker thread waiting on it.
        def failing_master(channels, settings, **kwargs):
            raise RuntimeError("synthetic master failure")

        monkeypatch.setattr(cluster, "run_master", failing_master)
        x, y = toy_data(40)
        with pytest.raises(RuntimeError, match="synthetic master failure") as info:
            run_cluster_inprocess(x, y, toy_settings(draws=4, burn=1, thin=1), workers=2)
        assert type(info.value) is RuntimeError
        alive = [t.name for t in threading.enumerate() if t.name.startswith("bartgrid-worker-")]
        assert alive == []

    @pytest.mark.parametrize(
        "accept",
        [
            proto.BirthAccept(1, 1, 3, 0.1, -0.1),  # another variable
            proto.BirthAccept(1, 0, 4, 0.1, -0.1),  # another cutpoint
            proto.DeathAccept(1, 0.0),  # another move
        ],
    )
    def test_accept_must_match_the_pending_proposal(self, accept):
        # A scripted master proposes a birth, then accepts another move.
        with scripted_master() as (io, errors):
            play(io, [
                proto.IterBegin(proto.PHASE_TREES),
                proto.BirthProposal(1, 0, 3),
                proto.MoveStats,
                accept,
            ])
        assert len(errors) == 1
        assert "does not match the pending proposal" in str(errors[0])

    @pytest.mark.parametrize(
        "m, steps, match",
        [
            pytest.param(
                1,
                [
                    proto.IterBegin(proto.PHASE_TREES),
                    proto.BirthProposal(1, 0, 3),
                    proto.MoveStats,
                    proto.BirthProposal(1, 0, 3),
                ],
                "unexpected BirthProposal, wanted BirthAccept/DeathAccept/Reject",
                id="second-proposal-before-the-decision",
            ),
            pytest.param(
                2,
                [
                    proto.IterBegin(proto.PHASE_TREES),
                    proto.Reject(),
                    (proto.MuStats, 1),
                    proto.MuValues((0.0,)),
                    proto.IterBegin(proto.PHASE_TREES),
                ],
                "unexpected IterBegin, wanted BirthProposal/DeathProposal/Reject",
                id="tree-phase-restarted-mid-sweep",
            ),
        ],
    )
    def test_worker_refuses_messages_out_of_order(self, m, steps, match):
        with scripted_master(m=m) as (io, errors):
            play(io, steps)
        assert len(errors) == 1
        assert match in str(errors[0])

    @pytest.mark.parametrize(
        "depth, proposal, match",
        [
            (0, proto.DeathProposal(0, 1), "tree 0: death of nodes (0, 1), which are not"),
            (0, proto.DeathProposal(2, 3), "tree 0: death of nodes (2, 3), which are not"),
            (0, proto.DeathProposal(3, 4), "tree 0: death of nodes (3, 4), which are not"),
            (0, proto.BirthProposal(1, 5, 0), "tree 0: birth at node 1 on variable 5 of 2"),
            (0, proto.BirthProposal(1, 0, 50), "node 1 cuts variable 0 at 50, outside [0, 31)"),
            (0, proto.BirthProposal(2, 0, 3), "tree 0: birth at node 2, which is not a leaf"),
            (1, proto.BirthProposal(1, 1, 3), "tree 0: birth at node 1, which is not a leaf"),
            (1, proto.BirthProposal(3, 0, 0), "node 3 cuts variable 0 at 0, outside [1, 31)"),
            (1, proto.DeathProposal(4, 5), "tree 0: death of nodes (4, 5), which are not"),
            (
                MAX_DEPTH,
                proto.BirthProposal(2 ** (MAX_DEPTH + 1) - 1, 0, MAX_DEPTH),
                f"birth at node {2 ** (MAX_DEPTH + 1) - 1}, which is not a leaf that may split",
            ),
        ],
        ids=[
            "death-at-node-0", "death-at-a-leaf-root", "death-of-non-siblings",
            "birth-on-a-missing-variable", "birth-past-the-grid", "birth-at-a-missing-node",
            "birth-at-an-internal-node", "birth-outside-the-ancestor-range", "death-at-a-leaf",
            "birth-at-the-maximum-depth",
        ],
    )
    def test_worker_refuses_a_proposal_its_replica_cannot_make(self, depth, proposal, match):
        # Two predictors and MAX_DEPTH + 1 cutpoints; the tree is a right
        # spine `depth` deep, its root split at (0, 0).
        steps = [*right_spine(depth), proto.IterBegin(proto.PHASE_TREES), proposal]
        with scripted_master(d=2, numcut=MAX_DEPTH + 1) as (io, errors):
            play(io, steps)
        assert len(errors) == 1
        assert match in str(errors[0])

    def test_worker_sends_its_rss_unprompted_after_the_sweep(self):
        x, y = toy_data(40)
        with scripted_master() as (io, errors):
            play(io, [
                proto.IterBegin(proto.PHASE_TREES),
                proto.Reject(),
                (proto.MuStats, 1),
                proto.MuValues((0.0,)),
            ])
            rss = io.recv((proto.RssPartial,)).rss
            io.send(proto.Shutdown())
        assert errors == []
        # The one leaf mean stays 0, so the residual is the scaled response.
        assert rss == float(np.sum(y * y))

    def test_worker_speaking_protocol_version_1_is_refused(self):
        master_end, worker_end = channel_pair()
        worker_end.send(proto.encode(proto.Hello(1, 1, 40)))
        try:
            with pytest.raises(ClusterError, match="protocol version mismatch: worker 1 speaks 1"):
                run_master([master_end], toy_settings())
        finally:
            master_end.close()
            worker_end.close()

    def test_worker_shard_holds_only_cut_indices(self, monkeypatch):
        providers = []

        class RecordingProvider(cluster.LocalProvider):
            def __init__(self, shard):
                super().__init__(shard)
                providers.append(self)

        monkeypatch.setattr(cluster, "LocalProvider", RecordingProvider)
        x, y = toy_data(200)
        run_cluster_inprocess(x, y, toy_settings(draws=3, burn=1, thin=1), workers=2)
        assert len(providers) == 2
        for provider in providers:
            shard = provider.shard
            assert shard.xb.dtype == np.uint8 and shard.xb.shape == (3, 100)
            arrays = {name: getattr(shard, name) for name in type(shard).__slots__}
            float_tables = [
                name for name, value in arrays.items()
                if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim > 1
            ]
            assert float_tables == []

    def test_worker_drops_its_float_rows(self):
        x, y = toy_data(40)
        rows = [x.copy()]  # the worker is handed the only reference
        released = weakref.ref(rows[0])
        master_end, worker_end = channel_pair()

        def target():
            try:
                run_worker(worker_end, rows.pop(), y, 1, 1, 1)
            finally:
                worker_end.close()

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        try:
            io = MessageIO(master_end)
            io.recv((proto.Hello,))
            meta = io.recv((proto.ShardMeta,))
            io.send(proto.RunSetup(1, 10, 1, 40, 0.0, 1.0, meta.x_min, meta.x_max))
            # The answer to the hash phase comes after the worker binned.
            io.send(proto.IterBegin(proto.PHASE_HASH))
            io.recv((proto.ReplicaHash,))
            assert released() is None
            io.send(proto.Shutdown())
            thread.join(timeout=15)
        finally:
            master_end.close()
        assert not thread.is_alive()

    def test_workers_disagreeing_on_d_are_named(self):
        x, y = toy_data(40)
        shards = []
        for rank, width in ((1, 3), (2, 2)):
            lo, hi = worker_row_range(40, 2, 2, rank)
            shards.append((rank, x[lo:hi, :width], y[lo:hi]))
        refused_handshake(shards, "rank 1 has 3, rank 2 has 2")

    def test_two_workers_claiming_one_rank_are_refused(self):
        x, y = toy_data(40)
        lo, hi = worker_row_range(40, 2, 2, 1)
        refused_handshake([(1, x[lo:hi], y[lo:hi])] * 2, "two workers claim rank 1")


def refused_handshake(shards, match):
    """Workers (rank, x, y) on 2 blocks whose handshake the master refuses."""
    settings = toy_settings(draws=4, burn=1, thin=1, reduction_blocks=2)
    ends = [channel_pair() for _ in shards]
    errors = []
    threads = []
    for (rank, xs, ys), (_, worker_end) in zip(shards, ends):

        def target(chan=worker_end, rank=rank, xs=xs, ys=ys):
            try:
                run_worker(chan, xs, ys, rank, len(shards), 2)
            except ClusterError as exc:
                errors.append(exc)
            finally:
                chan.close()

        threads.append(threading.Thread(target=target, daemon=True))
        threads[-1].start()
    with pytest.raises(ClusterError, match=match):
        run_master([master_end for master_end, _ in ends], settings)
    # Workers still wait for the run setup; closing the master's ends
    # releases them.
    for master_end, _ in ends:
        master_end.close()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(errors) == len(shards)


class TestTcpTransport:
    def test_tcp_channels_send_keepalive_probes(self):
        # Both ends of a loopback TCP connection probe their peer; a unix
        # socketpair, which has no TCP options, still makes a channel.
        with socket.create_server(("127.0.0.1", 0)) as server:
            client = socket.create_connection(server.getsockname(), timeout=10.0)
            conn, _addr = server.accept()
        channels = [SocketChannel(client), SocketChannel(conn)]
        try:
            for sock in (client, conn):
                assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) != 0
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                for name, value in cluster.KEEPALIVE:
                    if hasattr(socket, name):
                        assert sock.getsockopt(socket.IPPROTO_TCP, getattr(socket, name)) == value
        finally:
            for chan in channels:
                chan.close()
        ends = channel_pair()
        ends[0].send(b"ok")
        assert ends[1].recv(2) == b"ok"
        for chan in ends:
            chan.close()

    def test_idle_worker_outlives_connect_timeout(self, monkeypatch):
        # A connected worker waits on its master as long as the master needs;
        # here the master is silent for longer than the connect timeout.
        monkeypatch.setattr(cluster, "CONNECT_TIMEOUT", 0.3)
        run_master_now = cluster.run_master

        def late_master(*args, **kwargs):
            time.sleep(1.0)
            return run_master_now(*args, **kwargs)

        monkeypatch.setattr(cluster, "run_master", late_master)
        x, y = toy_data(60)
        settings = toy_settings(m=2, draws=3, burn=1, thin=1)
        bound: list = []
        results = {}

        def master():
            results["chain"] = serve_master(
                ("127.0.0.1", 0), 1, settings, on_bound=bound.append, accept_timeout=30.0
            )

        mt = threading.Thread(target=master, daemon=True)
        mt.start()
        deadline = time.monotonic() + 30.0
        while not bound and time.monotonic() < deadline:
            time.sleep(0.01)
        connect_worker(bound[0], [x, y], 1, 1, 1)
        mt.join(timeout=30)
        assert not mt.is_alive()
        assert results["chain"].sigmas.size == settings.draws

    def test_tcp_matches_inprocess(self):
        x, y = toy_data(240)
        settings = toy_settings(draws=20, burn=5, thin=5, reduction_blocks=2)
        inproc = run_cluster_inprocess(x, y, settings, workers=2, collect_hashes=True)

        n = y.shape[0]
        results = {}
        errors = []

        def master():
            try:
                results["master"] = serve_master(
                    ("127.0.0.1", 0), 2, settings, on_bound=lambda addr: bound.append(addr),
                    collect_hashes=True,
                )
            except BaseException as exc:
                errors.append(exc)

        bound: list = []
        mt = threading.Thread(target=master, daemon=True)
        mt.start()
        while not bound and mt.is_alive():
            pass
        host, port = bound[0]
        workers = []
        for rank in (1, 2):
            lo, hi = worker_row_range(n, 2, 2, rank)

            def target(rank=rank, lo=lo, hi=hi):
                try:
                    connect_worker((host, port), [x[lo:hi], y[lo:hi]], rank, 2, 2)
                except BaseException as exc:
                    errors.append(exc)

            wt = threading.Thread(target=target, daemon=True)
            workers.append(wt)
            wt.start()
        mt.join(timeout=90)
        for wt in workers:
            wt.join(timeout=10)
        assert not errors, errors
        tcp = results["master"]
        assert np.array_equal(tcp.sigmas, inproc.sigmas)
        assert tcp.forest_hashes == inproc.forest_hashes
