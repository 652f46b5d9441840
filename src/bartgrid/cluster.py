"""Master/worker runtime: sharding, transports, and the per-iteration protocol.

The master owns the chain's randomness and the model replica but never sees a
row of data; workers hold contiguous shards and answer every request with
fixed-size reduced statistics.  Rows are partitioned into `reduction_blocks`
global blocks, workers own contiguous runs of blocks, and every floating-point
reduction is the balanced pairwise fold from `sampler`, which is what makes
the chain bit-identical across worker counts (and equal to the serial chain)
whenever each worker holds a power-of-two number of blocks.

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
from typing import Callable, Protocol, Sequence

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
    StatsVec,
    SuffStats,
    derive_run_constants,
    forest_hash,
    pairwise_fold,
    partition_bounds,
    resolve_prior,
    run_chain_core,
    summarize_shard,
)
from .trees import CutpointGrid, Tree, children_ids


class ClusterError(RuntimeError):
    """Protocol violation or worker failure; the run cannot continue."""


# ---------------------------------------------------------------------------
# Data partitioning
# ---------------------------------------------------------------------------

def _blocks_per_worker(blocks: int, p: int) -> int:
    if blocks % p != 0:
        raise ValueError("reduction_blocks must be a multiple of the worker count")
    per = blocks // p
    if per & (per - 1):
        raise ValueError("blocks per worker must be a power of two for a stable fold")
    return per


def worker_row_range(n_total: int, blocks: int, p: int, rank: int) -> tuple[int, int]:
    """Global row range of worker `rank` (1-based) under the block layout.

    Shards are unions of whole reduction blocks so that block sums never
    straddle a worker boundary.
    """
    per = _blocks_per_worker(blocks, p)
    bounds = partition_bounds(n_total, blocks)
    return int(bounds[(rank - 1) * per]), int(bounds[rank * per])


def shard_block_slices(n_local: int, blocks: int, p: int) -> list[tuple[int, int]]:
    """Shard-local [lo, hi) slices of the global blocks a worker owns.

    The near-equal partition of the shard's own rows into blocks/p slices is
    identical to the restriction of the global block partition to the shard:
    the oversized global blocks form a prefix, so their intersection with any
    contiguous run of blocks is a prefix of that run.
    """
    per = _blocks_per_worker(blocks, p)
    bounds = partition_bounds(n_local, per)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(per)]


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Channel(Protocol):
    """Ordered, reliable duplex byte channel (one endpoint).

    `recv(n)` blocks until exactly n bytes have arrived.
    """

    def send(self, data: bytes) -> None: ...

    def recv(self, n: int) -> bytes: ...

    def close(self) -> None: ...


class SocketChannel:
    """Stream-socket channel: TCP across hosts, a socketpair in-process."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP stream sockets (e.g. a unix socketpair) lack the option

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

    def __init__(self, channel: Channel, audit: ByteAudit | None = None,
                 capture: list | None = None):
        self.channel = channel
        self.audit = audit
        self.capture = capture

    def _log(self, frame: bytes, outgoing: bool) -> None:
        if self.audit is not None:
            self.audit.record(frame[0], len(frame) - 1, outgoing)
        if self.capture is not None:
            self.capture.append(("send" if outgoing else "recv", frame))

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
    channel: Channel,
    x: np.ndarray,
    y: np.ndarray,
    rank: int,
    workers: int,
    reduction_blocks: int,
    audit: ByteAudit | None = None,
) -> None:
    """Worker event loop: serve reduced statistics until SHUTDOWN.

    The worker drives a `LocalProvider` over its shard: each message becomes
    the call the serial chain makes on its provider.  Once RUN_SETUP has
    fixed the cutpoint grid, the worker bins its rows into the shard's cut
    indices and drops its own reference to the float rows `x`.  It consumes
    no randomness; its forest replica evolves purely by applying the
    master's accepted moves and leaf means, so after every iteration it is
    structurally identical to the master's.
    """
    io = MessageIO(channel, audit)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    blocks = shard_block_slices(y.size, reduction_blocks, workers)

    io.send(proto.Hello(proto.PROTOCOL_VERSION, rank, y.size))
    io.send(proto.ShardMeta(*summarize_shard(x, y, blocks)))
    setup = io.recv((proto.RunSetup,))
    if setup.blocks != reduction_blocks:
        raise ClusterError(
            f"master uses {setup.blocks} reduction blocks, worker configured {reduction_blocks}"
        )
    expected_lo, expected_hi = worker_row_range(setup.n_total, setup.blocks, workers, rank)
    if expected_hi - expected_lo != y.size:
        raise ClusterError(
            f"rank {rank} shard holds {y.size} rows, layout expects {expected_hi - expected_lo}"
        )
    grid = CutpointGrid.from_ranges(
        np.array(setup.x_min), np.array(setup.x_max), setup.numcut
    )
    ys = (y - setup.y_mid) / setup.y_range
    provider = LocalProvider(ShardData(grid.bin(x), ys, setup.m, blocks))
    del x, y
    forest = [Tree() for _ in range(setup.m)]

    j = 0
    pending = None  # proposal awaiting the master's decision
    expected_msgs = (
        proto.IterBegin,
        proto.BirthProposal,
        proto.DeathProposal,
        proto.BirthAccept,
        proto.DeathAccept,
        proto.Reject,
        proto.Shutdown,
    )
    while True:
        msg = io.recv(expected_msgs)
        if isinstance(msg, proto.Shutdown):
            return
        if isinstance(msg, proto.IterBegin):
            if msg.phase == proto.PHASE_TREES:
                j = 0
                pending = None
            elif msg.phase == proto.PHASE_SIGMA:
                io.send(proto.RssPartial(provider.rss()))
            elif msg.phase == proto.PHASE_HASH:
                io.send(proto.ReplicaHash(
                    hashlib.md5(forest_hash(forest).encode()).digest()
                ))
            else:
                raise ClusterError(f"unknown iteration phase {msg.phase}")
            continue
        tree = forest[j]
        if isinstance(msg, (proto.BirthProposal, proto.DeathProposal)):
            if isinstance(msg, proto.BirthProposal):
                pending = Proposal(BIRTH, j, msg.node_id, msg.v, msg.c)
            else:
                if msg.left_id // 2 != msg.right_id // 2 or msg.left_id + 1 != msg.right_id:
                    raise ClusterError("death proposal children are not siblings")
                pending = Proposal(DEATH, j, msg.left_id // 2)
            left, right = provider.move_stats(j, tree, pending)
            io.send(proto.MoveStats(left.n, right.n, left.s, right.s))
            continue
        # The decision on the pending proposal, or a bare reject for a tree
        # whose drawn proposal had no admissible rule; the leaf pass follows.
        # An accept carries the whole move, which must be the one proposed.
        if isinstance(msg, proto.BirthAccept):
            if pending != Proposal(BIRTH, j, msg.node_id, msg.v, msg.c):
                raise ClusterError("birth accept does not match the pending proposal")
            provider.apply_birth(j, tree, pending, msg.mu_left, msg.mu_right)
            tree.birth(msg.node_id, msg.v, msg.c, msg.mu_left, msg.mu_right)
        elif isinstance(msg, proto.DeathAccept):
            if pending != Proposal(DEATH, j, msg.node_id):
                raise ClusterError("death accept does not match the pending proposal")
            provider.apply_death(j, tree, pending, msg.mu)
            tree.death(msg.node_id, msg.mu)
        pending = None
        terminals = tree.terminals()
        old = np.array([tree.nodes[k] for k in terminals], dtype=np.float64)
        # The payload carries sums of squares too; the master discards them.
        stats = pairwise_fold(provider.shard.mu_stats_blocks(j, old, squares=True))
        io.send(proto.MuStats(tuple(zip(stats.n.tolist(), stats.s.tolist(), stats.s2.tolist()))))
        new = io.recv((proto.MuValues,), mu_records=len(terminals)).values
        provider.apply_mus(j, old, np.array(new, dtype=np.float64))
        tree.nodes.update(zip(terminals, new))
        j = (j + 1) % setup.m


# ---------------------------------------------------------------------------
# Master
# ---------------------------------------------------------------------------

class RemoteProvider:
    """Statistics provider that speaks the wire protocol to every worker."""

    def __init__(self, ios: dict[int, MessageIO], n_total: int):
        self.ios = [ios[rank] for rank in sorted(ios)]
        self.n_total = n_total
        self._iteration = 0

    def _broadcast(self, msg: proto.Message) -> None:
        for io in self.ios:
            io.send(msg)

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._broadcast(proto.IterBegin(iteration, proto.PHASE_TREES))

    def reject(self, j: int) -> None:
        self._broadcast(proto.Reject())

    def move_stats(self, j, tree, prop):
        if prop.move == BIRTH:
            self._broadcast(proto.BirthProposal(prop.node_id, prop.v, prop.c))
        else:
            left_id, right_id = children_ids(prop.node_id)
            self._broadcast(proto.DeathProposal(left_id, right_id))
        lefts = []
        rights = []
        for io in self.ios:
            msg = io.recv((proto.MoveStats,))
            lefts.append(SuffStats(msg.n_left, msg.sum_left))
            rights.append(SuffStats(msg.n_right, msg.sum_right))
        return pairwise_fold(lefts), pairwise_fold(rights)

    def apply_birth(self, j, tree, prop, mu_l, mu_r):
        self._broadcast(proto.BirthAccept(prop.node_id, prop.v, prop.c, mu_l, mu_r))

    def apply_death(self, j, tree, prop, mu):
        self._broadcast(proto.DeathAccept(prop.node_id, mu))

    def mu_stats(self, j, mus):
        partials = []
        for io in self.ios:
            msg = io.recv((proto.MuStats,), mu_records=mus.size)
            n, s, _s2 = zip(*msg.records)
            partials.append(StatsVec(np.array(n, dtype=np.int64), np.array(s)))
        return pairwise_fold(partials)

    def apply_mus(self, j, old, new):
        self._broadcast(proto.MuValues(tuple(float(v) for v in new)))

    def rss(self) -> float:
        self._broadcast(proto.IterBegin(self._iteration, proto.PHASE_SIGMA))
        return pairwise_fold([io.recv((proto.RssPartial,)).rss for io in self.ios])

    def replica_hashes(self) -> list[bytes]:
        self._broadcast(proto.IterBegin(self._iteration, proto.PHASE_HASH))
        return [io.recv((proto.ReplicaHash,)).digest for io in self.ios]

    def finish(self) -> None:
        self._broadcast(proto.Shutdown())


def run_master(
    channels: Sequence[Channel],
    settings: FitSettings,
    *,
    audits: dict[int, ByteAudit] | None = None,
    captures: dict[int, list] | None = None,
    collect_hashes: bool = False,
    collect_trace: bool = False,
    check_replicas: bool = False,
    on_iteration: Callable[[int, float, list[Tree]], None] | None = None,
) -> ChainResult:
    """Drive the full distributed chain over connected worker channels.

    The channels may come in any order: each worker names its rank (1..p) in
    its HELLO, and must have sent nothing else yet (the handshake starts
    here).  `audits` and `captures` are keyed by rank.  Returns the same
    result structure as the serial sampler: for equal seeds and block
    layouts the two are bit-identical.
    """
    settings.validate()
    p = len(channels)
    blocks = settings.reduction_blocks or p
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
        io.capture = captures.get(rank) if captures else None
        io._log(proto.encode(hello), outgoing=False)
        ios[rank] = io
        hellos[rank] = hello
    metas = {rank: ios[rank].recv((proto.ShardMeta,)) for rank in sorted(ios)}
    widths = {rank: len(meta.x_min) for rank, meta in metas.items()}
    if len(set(widths.values())) > 1:
        counts = ", ".join(f"rank {rank} has {d}" for rank, d in sorted(widths.items()))
        raise ClusterError(f"workers disagree on the predictor count: {counts}")

    n_total = sum(h.shard_rows for h in hellos.values())
    for rank in sorted(ios):
        lo, hi = worker_row_range(n_total, blocks, p, rank)
        if hellos[rank].shard_rows != hi - lo:
            raise ClusterError(
                f"rank {rank} holds {hellos[rank].shard_rows} rows, layout expects {hi - lo}"
            )

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
    for rank in sorted(ios):
        ios[rank].send(setup)

    grid = CutpointGrid.from_ranges(derived.x_min, derived.x_max, settings.numcut)
    prior = resolve_prior(settings, derived.sd_scaled)
    provider = RemoteProvider(ios, n_total)
    forest = [Tree() for _ in range(settings.m)]
    rng = np.random.default_rng(settings.seed)

    def iteration_hook(it: int, sigma: float, f: list[Tree]) -> None:
        if check_replicas:
            expected = hashlib.md5(forest_hash(f).encode()).digest()
            for rank, digest in zip(sorted(ios), provider.replica_hashes()):
                if digest != expected:
                    raise ClusterError(f"rank {rank} forest replica diverged at iteration {it}")
        if on_iteration is not None:
            on_iteration(it, sigma, f)

    result = run_chain_core(
        forest,
        grid,
        prior,
        derived.sd_scaled,
        rng,
        provider,
        settings,
        collect_hashes=collect_hashes,
        collect_trace=collect_trace,
        on_iteration=iteration_hook,
    )
    result.y_mid = derived.y_mid
    result.y_range = derived.y_range
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
    audits: dict[int, ByteAudit] | None = None,
    worker_audits: dict[int, ByteAudit] | None = None,
    captures: dict[int, list] | None = None,
    collect_hashes: bool = False,
    collect_trace: bool = False,
    check_replicas: bool = False,
) -> ChainResult:
    """Run master plus `workers` worker threads inside this process.

    A worker thread closes its end of the socketpair when it exits, so the
    master's next receive fails at once.  The run then raises a ClusterError
    naming the exception of the worker that failed first, or the master's own
    error when no worker failed.
    """
    settings.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    blocks = settings.reduction_blocks or workers
    failures: list[Exception] = []
    channels: list[SocketChannel] = []
    threads: list[threading.Thread] = []
    for rank in range(1, workers + 1):
        lo, hi = worker_row_range(n, blocks, workers, rank)
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
        return run_master(
            channels,
            settings,
            audits=audits,
            captures=captures,
            collect_hashes=collect_hashes,
            collect_trace=collect_trace,
            check_replicas=check_replicas,
        )
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

def serve_master(
    listen: tuple[str, int],
    workers: int,
    settings: FitSettings,
    *,
    accept_timeout: float = 120.0,
    on_bound: Callable[[tuple[str, int]], None] | None = None,
    **master_kwargs,
) -> ChainResult:
    """Listen, accept `workers` connections, run the chain, shut down."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    channels: list[SocketChannel] = []
    try:
        server.bind(listen)
        server.listen(workers)
        server.settimeout(accept_timeout)
        if on_bound is not None:
            on_bound(server.getsockname())
        for _ in range(workers):
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                raise ClusterError(
                    f"only {len(channels)} of {workers} workers connected"
                ) from None
            channels.append(SocketChannel(conn))
        return run_master(channels, settings, **master_kwargs)
    finally:
        for chan in channels:
            chan.close()
        server.close()


# Bounds only the connection attempt: an established worker waits on its
# master for as long as the master computes.
CONNECT_TIMEOUT = 10.0


def connect_worker(
    address: tuple[str, int],
    x: np.ndarray,
    y: np.ndarray,
    rank: int,
    workers: int,
    reduction_blocks: int,
    *,
    retry_for: float = 30.0,
    audit: ByteAudit | None = None,
) -> None:
    """Connect to the master (with retries while it binds) and serve a shard."""
    deadline = time.monotonic() + retry_for
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
        run_worker(chan, x, y, rank, workers, reduction_blocks, audit=audit)
    finally:
        chan.close()
