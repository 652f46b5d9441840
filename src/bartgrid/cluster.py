"""Master/worker runtime: sharding, transports, and the per-iteration protocol.

The master owns the chain's randomness and the model replica but never sees a
row of data; workers hold contiguous shards and answer every request with
fixed-size reduced statistics.  Workers own contiguous runs of `sampler`'s
global reduction blocks, and every floating-point reduction is `sampler`'s
balanced pairwise fold, which is what makes the chain bit-identical across
worker counts (and equal to the serial chain).

A worker answers in a fixed order.  In an iteration's tree phase it takes
each tree in turn: a proposal (answered with MOVE_STATS, then the decision)
or a bare reject, then the leaf pass, whose MU_STATS carries the rows of the
worker's folded leaf-statistics array; the master stacks the workers' rows
and folds them once.  The phase ends with the worker's RSS_PARTIAL, sent
unprompted after the last tree's leaf pass.  Any other message, or a
proposal that does not fit its forest replica, fails the run.

One transport, a stream socket: a socketpair per worker thread in-process,
TCP across hosts.  Failure model is fail-stop: any worker loss aborts the
run.
"""
from __future__ import annotations

import hashlib
import socket
import threading
import time
from dataclasses import astuple, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import protocol as proto
from .sampler import (
    BIRTH,
    DEATH,
    ChainResult,
    FitSettings,
    LocalProvider,
    Proposal,
    ShardData,
    SuffStats,
    derive_run_constants,
    forest_hash,
    pairwise_fold,
    reduction_block_count,
    shard_block_slices,
    start_chain,
    summarize_shard,
    worker_row_range,
)
from .trees import MAX_DEPTH, CutpointGrid, Tree, available_cut_ranges, children_ids, depth_of_id


class ClusterError(RuntimeError):
    """Protocol violation or worker failure; the run cannot continue."""


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class SocketChannel:
    """Stream-socket channel: TCP across hosts, a socketpair in-process."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            for name, value in KEEPALIVE:
                if hasattr(socket, name):
                    sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, name), value)
        except OSError:
            pass  # non-TCP stream sockets (e.g. a unix socketpair) lack the options

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ClusterError(f"socket send failed: {exc}") from exc

    def recv(self, n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            try:
                chunk = self._sock.recv(n - len(chunks))
            except OSError as exc:
                raise ClusterError(f"socket receive failed: {exc}") from exc
            if not chunk:
                raise ClusterError("peer closed the connection mid-message")
            chunks.extend(chunk)
        return bytes(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Message framing over a channel
# ---------------------------------------------------------------------------

@dataclass
class ByteAudit:
    """Tally of payload bytes per opcode, split by direction."""

    sent: dict[int, int] = field(default_factory=dict)
    received: dict[int, int] = field(default_factory=dict)
    sent_count: dict[int, int] = field(default_factory=dict)
    received_count: dict[int, int] = field(default_factory=dict)

    def record(self, opcode: int, payload_len: int, outgoing: bool) -> None:
        bucket, counts = (
            (self.sent, self.sent_count) if outgoing else (self.received, self.received_count)
        )
        bucket[opcode] = bucket.get(opcode, 0) + payload_len
        counts[opcode] = counts.get(opcode, 0) + 1

    def sampler_payload_total(self) -> int:
        """Ledger bytes (both directions), control plumbing excluded."""
        tallies = (*self.sent.items(), *self.received.items())
        return sum(v for op, v in tallies if op in proto.SAMPLER_OPCODES)


class MessageIO:
    """Sends and receives whole frames on a channel.

    The protocol is lockstep, so the receiver always knows which opcodes may
    arrive next and, for the per-leaf messages, how many records to expect.
    """

    def __init__(self, channel: SocketChannel, audit: ByteAudit | None = None):
        self.channel = channel
        self.audit = audit

    def _log(self, frame: bytes, outgoing: bool) -> None:
        if self.audit is not None:
            self.audit.record(frame[0], len(frame) - 1, outgoing)

    def send(self, msg: proto.Message) -> None:
        frame = proto.encode(msg)
        self._log(frame, outgoing=True)
        self.channel.send(frame)

    def recv(
        self,
        allowed: tuple[type, ...],
        mu_records: int | None = None,
    ) -> proto.Message:
        try:
            frame = proto.read_frame(self.channel.recv, mu_records)
            self._log(frame, outgoing=False)
            msg = proto.decode(frame)
        except proto.ProtocolError as exc:
            raise ClusterError(str(exc)) from exc
        if not isinstance(msg, allowed):
            names = "/".join(t.__name__ for t in allowed)
            raise ClusterError(f"unexpected {type(msg).__name__}, wanted {names}")
        return msg


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

def run_worker(
    channel: SocketChannel,
    x: np.ndarray,
    y: np.ndarray,
    rank: int,
    workers: int,
    reduction_blocks: int,
    audit: ByteAudit | None = None,
) -> None:
    """Worker loop: serve reduced statistics, phase by phase, until SHUTDOWN.

    The worker drives a `LocalProvider` over its shard: each message becomes
    the call the serial chain makes on its provider.  Once RUN_SETUP has
    fixed the cutpoint grid, the worker bins its rows into the shard's cut
    indices and drops its own reference to the float rows `x`.  It consumes
    no randomness; its forest replica evolves purely by applying the
    master's accepted moves and leaf means, so after every iteration it is
    structurally identical to the master's.  A rank outside 1..workers or an
    empty shard is refused with a ValueError before the handshake.
    """
    y = np.asarray(y, dtype=np.float64)
    blocks = shard_block_slices(y.size, reduction_blocks, workers, rank)
    io = MessageIO(channel, audit)
    x = np.ascontiguousarray(x, dtype=np.float64)

    io.send(proto.Hello(proto.PROTOCOL_VERSION, rank, y.size))
    io.send(proto.ShardMeta(*summarize_shard(x, y, blocks)))
    setup = io.recv((proto.RunSetup,))
    configured = reduction_block_count(reduction_blocks, workers)
    if setup.blocks != configured:
        raise ClusterError(
            f"master uses {setup.blocks} reduction blocks, worker configured {configured}"
        )
    expected_lo, expected_hi = worker_row_range(setup.n_total, setup.blocks, workers, rank)
    if expected_hi - expected_lo != y.size:
        raise ClusterError(
            f"rank {rank} shard holds {y.size} rows, layout expects {expected_hi - expected_lo}"
        )
    grid = CutpointGrid.from_ranges(setup.x_min, setup.x_max, setup.numcut)
    ys = (y - setup.y_mid) / setup.y_range
    provider = LocalProvider(ShardData(grid.bin(x), ys, setup.m, blocks))
    del x, y
    forest = [Tree() for _ in range(setup.m)]

    while True:
        msg = io.recv((proto.IterBegin, proto.Shutdown))
        if isinstance(msg, proto.Shutdown):
            return
        if msg.phase == proto.PHASE_TREES:
            for j, tree in enumerate(forest):
                _serve_tree(io, provider, grid, j, tree)
            io.send(proto.RssPartial(provider.rss()))
        elif msg.phase == proto.PHASE_HASH:
            io.send(proto.ReplicaHash(hashlib.md5(forest_hash(forest).encode()).digest()))
        else:
            raise ClusterError(f"unknown iteration phase {msg.phase}")


def _serve_tree(
    io: MessageIO, provider: LocalProvider, grid: CutpointGrid, j: int, tree: Tree
) -> None:
    """Tree j's exchange: a proposal and its decision, or a bare reject (the
    drawn birth had no admissible rule); then the leaf pass.  An accept
    carries the whole move, which must be the one proposed."""
    msg = io.recv((proto.BirthProposal, proto.DeathProposal, proto.Reject))
    if not isinstance(msg, proto.Reject):
        prop = _checked_proposal(j, tree, grid, msg)
        left, right = provider.move_stats(j, tree, prop)
        io.send(proto.MoveStats(left.n, right.n, left.s, right.s))
        msg = io.recv((proto.BirthAccept, proto.DeathAccept, proto.Reject))
        if isinstance(msg, proto.BirthAccept):
            if prop != Proposal(BIRTH, msg.node_id, msg.v, msg.c):
                raise ClusterError("birth accept does not match the pending proposal")
            provider.apply_birth(j, tree, prop, msg.mu_left, msg.mu_right)
            tree.birth(msg.node_id, msg.v, msg.c, msg.mu_left, msg.mu_right)
        elif isinstance(msg, proto.DeathAccept):
            if prop != Proposal(DEATH, msg.node_id):
                raise ClusterError("death accept does not match the pending proposal")
            provider.apply_death(j, tree, prop, msg.mu)
            tree.death(msg.node_id, msg.mu)
    terminals = tree.terminals()
    old = np.array(list(map(tree.nodes.__getitem__, terminals)), dtype=np.float64)
    # The payload carries sums of squares too, which the master discards, and
    # the counts as ints, as MuStats packs them.
    n, s, s2 = pairwise_fold(provider.shard.mu_stats_blocks(j, old, squares=True)).tolist()
    io.send(proto.MuStats(tuple(zip(map(int, n), s, s2))))
    new = io.recv((proto.MuValues,), mu_records=len(terminals)).values
    provider.apply_mus(j, old, np.array(new, dtype=np.float64))
    tree.nodes.update(zip(terminals, new))


def _checked_proposal(j: int, tree: Tree, grid: CutpointGrid, msg: proto.Message) -> Proposal:
    """The move `msg` proposes on tree j: a birth of a leaf above the maximum
    depth by a rule its ancestors leave open, or a death of a nog's leaves."""
    if isinstance(msg, proto.BirthProposal):
        k, v, c = msg.node_id, msg.v, msg.c
        if isinstance(tree.nodes.get(k, ()), tuple) or depth_of_id(k) >= MAX_DEPTH:
            raise ClusterError(f"tree {j}: birth at node {k}, which is not a leaf that may split")
        if v >= grid.n_vars:
            raise ClusterError(f"tree {j}: birth at node {k} on variable {v} of {grid.n_vars}")
        lo, hi = available_cut_ranges(tree, k, grid.counts)[v]
        if not lo <= c < hi:
            raise ClusterError(
                f"tree {j}: birth at node {k} cuts variable {v} at {c}, outside [{lo}, {hi})"
            )
        return Proposal(BIRTH, k, v, c)
    k, pair = msg.left_id // 2, (msg.left_id, msg.right_id)
    if children_ids(k) != pair or k not in tree.nogs():
        raise ClusterError(f"tree {j}: death of nodes {pair}, which are not the leaves of a nog")
    return Proposal(DEATH, k)


# ---------------------------------------------------------------------------
# Master
# ---------------------------------------------------------------------------

class RemoteProvider:
    """Statistics provider that speaks the wire protocol to every worker."""

    def __init__(self, ios: dict[int, MessageIO], n_total: int):
        self.ios = [ios[rank] for rank in sorted(ios)]
        self.n_total = n_total

    def _broadcast(self, msg: proto.Message) -> None:
        for io in self.ios:
            io.send(msg)

    def begin_iteration(self) -> None:
        self._broadcast(proto.IterBegin(proto.PHASE_TREES))

    def reject(self, j: int) -> None:
        self._broadcast(proto.Reject())

    def move_stats(self, j, tree, prop):
        if prop.move == BIRTH:
            self._broadcast(proto.BirthProposal(prop.node_id, prop.v, prop.c))
        else:
            left_id, right_id = children_ids(prop.node_id)
            self._broadcast(proto.DeathProposal(left_id, right_id))
        msgs = [io.recv((proto.MoveStats,)) for io in self.ios]
        return (pairwise_fold([SuffStats(m.n_left, m.sum_left) for m in msgs]),
                pairwise_fold([SuffStats(m.n_right, m.sum_right) for m in msgs]))

    def apply_birth(self, j, tree, prop, mu_l, mu_r):
        self._broadcast(proto.BirthAccept(prop.node_id, prop.v, prop.c, mu_l, mu_r))

    def apply_death(self, j, tree, prop, mu):
        self._broadcast(proto.DeathAccept(prop.node_id, mu))

    def mu_stats(self, j, mus):
        # (workers, rows, leaves), without the sums of squares.
        records = [io.recv((proto.MuStats,), mu_records=mus.size).records for io in self.ios]
        return pairwise_fold(np.array(records).transpose(0, 2, 1)[:, :2])

    def apply_mus(self, j, old, new):
        self._broadcast(proto.MuValues(tuple(float(v) for v in new)))

    def rss(self) -> float:
        return pairwise_fold([io.recv((proto.RssPartial,)).rss for io in self.ios])

    def check_replicas(self, it: int, sigma: float, forest: list[Tree]) -> None:
        """Chain hook: every worker's forest replica must hash as `forest` does."""
        expected = hashlib.md5(forest_hash(forest).encode()).digest()
        self._broadcast(proto.IterBegin(proto.PHASE_HASH))
        for rank, io in enumerate(self.ios, start=1):
            if io.recv((proto.ReplicaHash,)).digest != expected:
                raise ClusterError(f"rank {rank} forest replica diverged at iteration {it}")

    def shutdown(self) -> None:
        self._broadcast(proto.Shutdown())


def run_master(
    channels: Sequence[SocketChannel],
    settings: FitSettings,
    *,
    audits: dict[int, ByteAudit] | None = None,
    check_replicas: bool = False,
    **chain_kwargs,
) -> ChainResult:
    """Drive the full distributed chain over connected worker channels.

    The channels may come in any order: each worker names its rank (1..p) in
    its HELLO, and must have sent nothing else yet (the handshake starts
    here).  `audits` are keyed by rank.  `check_replicas` compares every
    worker's forest replica with the master's forest after each iteration;
    `chain_kwargs` (`collect_hashes`, `collect_trace`) go to `run_chain_core`.
    Returns the same result structure as the serial sampler: for equal seeds
    and block layouts the two are bit-identical.
    """
    settings.validate()
    p = len(channels)
    blocks = reduction_block_count(settings.reduction_blocks, p)
    ios: dict[int, MessageIO] = {}
    hellos: dict[int, proto.Hello] = {}
    for chan in channels:
        io = MessageIO(chan)
        hello = io.recv((proto.Hello,))
        rank = hello.rank
        if hello.version != proto.PROTOCOL_VERSION:
            raise ClusterError(f"protocol version mismatch: worker {rank} speaks {hello.version}")
        if not 1 <= rank <= p:
            raise ClusterError(f"worker rank {rank} outside 1..{p}")
        if rank in hellos:
            raise ClusterError(f"two workers claim rank {rank}")
        # The HELLO names the rank, so the rank's ledger starts with it.
        io.audit = audits.get(rank) if audits else None
        io._log(proto.encode(hello), outgoing=False)
        ios[rank] = io
        hellos[rank] = hello
    n_total = sum(h.shard_rows for h in hellos.values())
    for rank in sorted(ios):
        lo, hi = worker_row_range(n_total, blocks, p, rank)
        if hellos[rank].shard_rows != hi - lo:
            raise ClusterError(
                f"rank {rank} holds {hellos[rank].shard_rows} rows, layout expects {hi - lo}"
            )
    metas = {rank: ios[rank].recv((proto.ShardMeta,)) for rank in sorted(ios)}
    widths = {rank: len(meta.x_min) for rank, meta in metas.items()}
    if len(set(widths.values())) > 1:
        counts = ", ".join(f"rank {rank} has {d}" for rank, d in sorted(widths.items()))
        raise ClusterError(f"workers disagree on the predictor count: {counts}")

    derived = derive_run_constants([astuple(meta) for meta in metas.values()])
    setup = proto.RunSetup(
        settings.m,
        settings.numcut,
        blocks,
        n_total,
        derived.y_mid,
        derived.y_range,
        tuple(derived.x_min),
        tuple(derived.x_max),
    )
    provider = RemoteProvider(ios, n_total)
    provider._broadcast(setup)
    grid = CutpointGrid.from_ranges(derived.x_min, derived.x_max, settings.numcut)
    result = start_chain(
        settings, derived, grid, provider,
        on_iteration=provider.check_replicas if check_replicas else None, **chain_kwargs,
    )
    provider.shutdown()
    return result


# ---------------------------------------------------------------------------
# In-process cluster (worker threads, each over a socketpair)
# ---------------------------------------------------------------------------

# Bounds every receive of an in-process run, on both ends, so a peer thread
# that stops answering fails the run instead of hanging it.
INPROCESS_RECV_TIMEOUT = 120.0


def run_cluster_inprocess(
    x: np.ndarray,
    y: np.ndarray,
    settings: FitSettings,
    workers: int,
    *,
    worker_audits: dict[int, ByteAudit] | None = None,
    **master_kwargs,
) -> ChainResult:
    """Run master plus `workers` worker threads inside this process.

    `master_kwargs` go to `run_master`; `worker_audits` are keyed by rank.

    A worker thread closes its end of the socketpair when it exits, so the
    master's next receive fails at once.  The run then raises a ClusterError
    naming the exception of the worker that failed first, or the master's own
    error when no worker failed.
    """
    settings.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    blocks = settings.reduction_blocks
    ranges = [worker_row_range(y.size, blocks, workers, rank) for rank in range(1, workers + 1)]
    failures: list[Exception] = []
    channels: list[SocketChannel] = []
    threads: list[threading.Thread] = []
    for rank, (lo, hi) in enumerate(ranges, start=1):
        master_end, worker_end = socket.socketpair()
        for sock in (master_end, worker_end):
            sock.settimeout(INPROCESS_RECV_TIMEOUT)
        channels.append(SocketChannel(master_end))

        def target(rank=rank, chan=SocketChannel(worker_end), lo=lo, hi=hi):
            try:
                run_worker(
                    chan, x[lo:hi], y[lo:hi], rank, workers, blocks,
                    audit=worker_audits.get(rank) if worker_audits else None,
                )
            except Exception as exc:  # noqa: BLE001 - raised again below
                failures.append(exc)
            finally:
                chan.close()

        thread = threading.Thread(target=target, name=f"bartgrid-worker-{rank}", daemon=True)
        threads.append(thread)
        thread.start()

    try:
        return run_master(channels, settings, **master_kwargs)
    except ClusterError:
        if failures:
            raise ClusterError(f"worker failed: {failures[0]!r}") from failures[0]
        raise
    finally:
        # Workers still waiting on the master see their channel close and exit.
        for chan in channels:
            chan.close()
        for thread in threads:
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# TCP endpoints
# ---------------------------------------------------------------------------

ACCEPT_POLL = 0.1  # seconds between `while_accepting` calls


def serve_master(
    listen: tuple[str, int],
    workers: int,
    settings: FitSettings,
    *,
    accept_timeout: float = 120.0,
    on_bound: Callable[[tuple[str, int]], None] | None = None,
    while_accepting: Callable[[], None] | None = None,
    **master_kwargs,
) -> ChainResult:
    """Listen, accept `workers` connections, run the chain, shut down.

    Each connection may take up to `accept_timeout` seconds.  The master
    waits for it in slices of `ACCEPT_POLL` seconds and calls
    `while_accepting`, if given, between them, so a caller that launched the
    workers can fail the run by raising as soon as one exits.
    """
    settings.validate()
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    channels: list[SocketChannel] = []
    try:
        server.bind(listen)
        server.listen(workers)
        server.settimeout(ACCEPT_POLL)
        if on_bound is not None:
            on_bound(server.getsockname())
        for _ in range(workers):
            deadline = time.monotonic() + accept_timeout
            while True:
                try:
                    conn, _addr = server.accept()
                    break
                except socket.timeout:
                    if time.monotonic() >= deadline:
                        raise ClusterError(
                            f"only {len(channels)} of {workers} workers connected"
                        ) from None
                    if while_accepting is not None:
                        while_accepting()
            channels.append(SocketChannel(conn))
        return run_master(channels, settings, **master_kwargs)
    finally:
        for chan in channels:
            chan.close()
        server.close()


# Bounds only the connection attempt: an established worker waits on its
# master for as long as the master computes.
CONNECT_TIMEOUT = 10.0
# TCP keepalive: after 60 idle seconds, a probe every 10 s; 6 unanswered probes
# fail the next receive.  A busy peer's kernel still answers them.
KEEPALIVE = (("TCP_KEEPIDLE", 60), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 6))
CONNECT_RETRY = 30.0  # seconds a worker keeps retrying while its master binds


def connect_worker(
    address: tuple[str, int],
    shard: list[np.ndarray],
    rank: int,
    workers: int,
    reduction_blocks: int,
) -> None:
    """Connect to the master (with retries while it binds) and serve a shard.

    `shard` is the list [x, y].  It is emptied as its arrays go to
    `run_worker`, so once the worker has binned the float rows `x`, no
    caller that passed the list keeps them alive.
    """
    deadline = time.monotonic() + CONNECT_RETRY
    last_err: Exception | None = None
    sock = None
    while time.monotonic() < deadline:
        try:
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
            break
        except OSError as exc:
            last_err = exc
            time.sleep(0.1)
    if sock is None:
        raise ClusterError(f"could not reach master at {address}: {last_err}")
    sock.settimeout(None)
    chan = SocketChannel(sock)
    try:
        run_worker(chan, shard.pop(0), shard.pop(0), rank, workers, reduction_blocks)
    finally:
        chan.close()
