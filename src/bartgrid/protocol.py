"""Wire messages for the master/worker exchange.

Every message is one opcode byte followed by a fixed-layout payload; integers
are 32-bit unsigned little-endian, reals IEEE-754 binary64 little-endian.
The sampler-phase payload sizes are pinned exactly:

    birth proposal 12, death proposal 8, move stats 24, accepts 28,
    reject 0, mu stats 20 per terminal node (count, sum, and a third value
    sent as 0.0 and never read), mu values 8 per terminal node, partial RSS 8.

MOVE_STATS and MU_STATS sums are of the worker's cached residual, without
any leaf mean; the master adds each node's count * mean after the fold.
BIRTH_ACCEPT carries the split node's mean as both children's, and
DEATH_ACCEPT the left child's mean as the merged node's: values the worker's
replica already holds, and checks.  A version-2 peer added the means inside
its sums, hence PROTOCOL_VERSION 3.

No payload grows with the number of observations.  Control messages (HELLO,
SHARD_META, RUN_SETUP, ITER_BEGIN with only its phase, REPLICA_HASH,
SHUTDOWN) are plumbing outside that ledger.  The tree phase ends with
RSS_PARTIAL, which a worker sends unprompted after the last tree's leaf pass.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from itertools import starmap
from operator import itemgetter
from typing import Callable, Sequence

PROTOCOL_VERSION = 3

OP_HELLO = 0x01
OP_SHARD_META = 0x02
OP_RUN_SETUP = 0x03
OP_ITER_BEGIN = 0x04
OP_SHUTDOWN = 0x05
OP_REPLICA_HASH = 0x06
OP_BIRTH_PROPOSAL = 0x10
OP_DEATH_PROPOSAL = 0x11
OP_MOVE_STATS = 0x12
OP_BIRTH_ACCEPT = 0x13
OP_DEATH_ACCEPT = 0x14
OP_REJECT = 0x15
OP_MU_STATS = 0x16
OP_MU_VALUES = 0x17
OP_RSS_PARTIAL = 0x18

# Iteration phases carried by ITER_BEGIN.
PHASE_TREES = 0
PHASE_HASH = 1


class ProtocolError(ValueError):
    """Malformed frame: unknown opcode, wrong length, or bad field."""


@dataclass(frozen=True)
class Hello:
    version: int
    rank: int
    shard_rows: int


@dataclass(frozen=True)
class ShardMeta:
    """Worker data summaries the master needs to derive run constants."""

    n: int
    y_min: float
    y_max: float
    y_sum: float
    y_sumsq: float
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]


@dataclass(frozen=True)
class RunSetup:
    """Derived constants broadcast so all replicas agree bit-for-bit."""

    m: int
    numcut: int
    blocks: int
    n_total: int
    y_mid: float
    y_range: float
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]


@dataclass(frozen=True)
class IterBegin:
    phase: int


@dataclass(frozen=True)
class BirthProposal:
    node_id: int
    v: int
    c: int


@dataclass(frozen=True)
class DeathProposal:
    left_id: int
    right_id: int


@dataclass(frozen=True)
class MoveStats:
    n_left: int
    n_right: int
    sum_left: float
    sum_right: float


@dataclass(frozen=True)
class BirthAccept:
    node_id: int
    v: int
    c: int
    mu_left: float
    mu_right: float


@dataclass(frozen=True)
class DeathAccept:
    node_id: int
    mu: float


@dataclass(frozen=True)
class Reject:
    pass


@dataclass(frozen=True)
class MuStats:
    records: tuple[tuple[int, float, float], ...]


@dataclass(frozen=True)
class MuValues:
    values: tuple[float, ...]


@dataclass(frozen=True)
class RssPartial:
    rss: float


@dataclass(frozen=True)
class ReplicaHash:
    digest: bytes  # 16-byte md5 of the canonical forest serialization


@dataclass(frozen=True)
class Shutdown:
    pass


Message = (
    Hello
    | ShardMeta
    | RunSetup
    | IterBegin
    | BirthProposal
    | DeathProposal
    | MoveStats
    | BirthAccept
    | DeathAccept
    | Reject
    | MuStats
    | MuValues
    | RssPartial
    | ReplicaHash
    | Shutdown
)

# The wire format: per message type, its opcode and the struct of its payload.
# Generic rows pack the dataclass fields in order.  For the per-leaf messages
# the struct is one record and the payload is `records` of them; for
# SHARD_META / RUN_SETUP it is a head whose trailing u32 is the predictor
# count d, and 16*d bytes of range data (x_min then x_max) follow.
MESSAGES: dict[type, tuple[int, struct.Struct]] = {
    Hello: (OP_HELLO, struct.Struct("<III")),
    ShardMeta: (OP_SHARD_META, struct.Struct("<IddddI")),
    RunSetup: (OP_RUN_SETUP, struct.Struct("<IIIQddI")),
    IterBegin: (OP_ITER_BEGIN, struct.Struct("<B")),
    Shutdown: (OP_SHUTDOWN, struct.Struct("<")),
    ReplicaHash: (OP_REPLICA_HASH, struct.Struct("<16s")),
    BirthProposal: (OP_BIRTH_PROPOSAL, struct.Struct("<III")),
    DeathProposal: (OP_DEATH_PROPOSAL, struct.Struct("<II")),
    MoveStats: (OP_MOVE_STATS, struct.Struct("<IIdd")),
    BirthAccept: (OP_BIRTH_ACCEPT, struct.Struct("<IIIdd")),
    # 12 bytes of content zero-padded to the ledger's 28-byte accept size.
    DeathAccept: (OP_DEATH_ACCEPT, struct.Struct("<Id16x")),
    Reject: (OP_REJECT, struct.Struct("<")),
    MuStats: (OP_MU_STATS, struct.Struct("<Idd")),
    MuValues: (OP_MU_VALUES, struct.Struct("<d")),
    RssPartial: (OP_RSS_PARTIAL, struct.Struct("<d")),
}
_PER_RECORD = (MuStats, MuValues)
_RANGES = (ShardMeta, RunSetup)
# The sampler-phase messages, whose values `decode` refuses when NaN or
# infinite.  SHARD_META and RUN_SETUP are not checked: a serial fit takes
# data whose sums overflow, and a check on the wire alone would refuse it.
_CHECKED = frozenset({MoveStats, BirthAccept, DeathAccept, MuStats, MuValues, RssPartial})
_SUM = itemgetter(1)  # a MU_STATS record's sum
_U32 = struct.Struct("<I")

_BY_OPCODE = {opcode: (kind, layout) for kind, (opcode, layout) in MESSAGES.items()}
_FIELDS = {kind: tuple(f.name for f in fields(kind)) for kind in MESSAGES}

# Opcodes whose payloads appear in the communication ledger: the sampler
# phase, numbered from 0x10; control plumbing is excluded.
SAMPLER_OPCODES = frozenset(op for op, _ in MESSAGES.values() if op >= OP_BIRTH_PROPOSAL)


def encode(msg: Message) -> bytes:
    """Serialize a message: opcode byte plus its exact payload."""
    kind = type(msg)
    if kind not in MESSAGES:
        raise ProtocolError(f"cannot encode {kind.__name__}")
    opcode, layout = MESSAGES[kind]
    values = [getattr(msg, name) for name in _FIELDS[kind]]
    if kind in _PER_RECORD:
        (records,) = values
        if kind is MuValues:
            payload = struct.pack(f"<{len(records)}d", *records)
        else:
            payload = b"".join(starmap(layout.pack, records))
    elif kind in _RANGES:
        *head, x_min, x_max = values
        d = len(x_min)
        if len(x_max) != d:
            raise ProtocolError("x_min / x_max length mismatch")
        payload = layout.pack(*head, d) + struct.pack(f"<{2 * d}d", *x_min, *x_max)
    else:
        if kind is ReplicaHash and len(msg.digest) != 16:
            raise ProtocolError("replica hash must be 16 bytes")
        payload = layout.pack(*values)
    return bytes([opcode]) + payload


def read_frame(
    recv: Callable[[int], bytes], records: int | None = None, head: bytes | None = None
) -> bytes:
    """Read one whole frame from a stream; `recv(k)` returns exactly k bytes.

    The exchange is lockstep, so the receiver knows how many records a
    per-leaf message carries: `records` sizes MU_STATS / MU_VALUES frames.
    `head` is the frame's opcode byte when the caller has already read it.
    """
    opcode = (head or recv(1))[0]
    if opcode not in _BY_OPCODE:
        raise ProtocolError(f"unknown opcode 0x{opcode:02x} on the wire")
    kind, layout = _BY_OPCODE[opcode]
    if kind in _PER_RECORD:
        if records is None:
            raise ProtocolError("per-leaf message arrived without an expected count")
        size = layout.size * records
    elif kind in _RANGES:
        head = recv(layout.size)
        (d,) = _U32.unpack_from(head, layout.size - _U32.size)
        return bytes([opcode]) + head + recv(16 * d)
    else:
        size = layout.size
    return bytes([opcode]) + (recv(size) if size else b"")


def decode(data: bytes) -> Message:
    """Parse one full frame back into its message; inverse of `encode`.

    Rejects unknown opcodes, truncated payloads, trailing bytes, and NaN or
    infinite values in a sampler-phase message (a MU_STATS record's padding
    aside).
    """
    if not data:
        raise ProtocolError("empty frame")
    opcode = data[0]
    payload = data[1:]
    if opcode not in _BY_OPCODE:
        raise ProtocolError(f"unknown opcode 0x{opcode:02x}")
    kind, layout = _BY_OPCODE[opcode]
    if kind in _PER_RECORD:
        if len(payload) % layout.size:
            raise ProtocolError(
                f"{kind.__name__} payload not a multiple of {layout.size} bytes"
            )
        if kind is MuValues:
            msg = MuValues(struct.unpack(f"<{len(payload) // layout.size}d", payload))
            values = msg.values
        else:
            msg = MuStats(tuple(layout.iter_unpack(payload)))
            values = map(_SUM, msg.records)  # the third value is padding, never read
    elif kind in _RANGES:
        if len(payload) < layout.size:
            raise ProtocolError(f"{kind.__name__} payload truncated")
        *head, d = layout.unpack_from(payload)
        if len(payload) != layout.size + 16 * d:
            raise ProtocolError(f"{kind.__name__} payload length mismatch")
        vals = struct.unpack_from(f"<{2 * d}d", payload, layout.size)
        return kind(*head, vals[:d], vals[d:])
    else:
        if len(payload) != layout.size:
            raise ProtocolError(
                f"opcode 0x{opcode:02x}: payload is {len(payload)} bytes, expected {layout.size}"
            )
        if kind is DeathAccept and payload[12:] != bytes(16):
            raise ProtocolError("death accept padding must be zero")
        values = layout.unpack(payload)
        msg = kind(*values)
    # Builtins only: the check adds no Python call per frame.  Integers are
    # always finite, so a message's whole tuple is checked.
    if kind in _CHECKED and not all(map(math.isfinite, values)):
        raise ProtocolError(f"non-finite value in {msg}")
    return msg


def iteration_byte_count(
    trace: Sequence[tuple[str | None, bool]], b_counts: Sequence[int], p: int
) -> int:
    """Exact sampler-phase payload bytes master<->workers for one iteration.

    `trace` holds (move, accepted) per tree where move is 'birth', 'death' or
    None (a proposal with no admissible rule, signalled by a bare reject);
    `b_counts` the matching terminal-node counts at the leaf-mean phase.
    Control messages are not part of the ledger and are not counted.
    """
    if len(trace) != len(b_counts):
        raise ValueError("trace and b_counts must cover the same trees")
    if p < 0:
        raise ValueError("worker count must be >= 0")
    size = {kind: layout.size for kind, (_, layout) in MESSAGES.items()}
    moves = {"birth": (BirthProposal, BirthAccept), "death": (DeathProposal, DeathAccept)}
    per_worker = size[RssPartial]
    for (move, accepted), b in zip(trace, b_counts):
        if move in moves:
            proposal, accept = moves[move]
            per_worker += size[proposal] + size[MoveStats] + size[accept if accepted else Reject]
        elif move is not None:
            raise ValueError(f"unknown move {move!r}")
        per_worker += (size[MuStats] + size[MuValues]) * b
    return p * per_worker
