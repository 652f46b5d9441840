import io
import re

import numpy as np
import pytest

from bartgrid import protocol as proto
from bartgrid.protocol import (
    BirthAccept,
    BirthProposal,
    DeathAccept,
    DeathProposal,
    Hello,
    IterBegin,
    MoveStats,
    MuStats,
    MuValues,
    ProtocolError,
    Reject,
    ReplicaHash,
    RssPartial,
    RunSetup,
    ShardMeta,
    Shutdown,
    decode,
    encode,
    iteration_byte_count,
)


def random_messages(rng, d=3, b=4):
    f = lambda: float(rng.standard_normal())
    u = lambda hi=2**31: int(rng.integers(1, hi))
    return [
        Hello(1, u(100), u()),
        ShardMeta(u(), f(), f(), f(), f(), tuple(f() for _ in range(d)), tuple(f() for _ in range(d))),
        RunSetup(u(500), u(200), u(16), u(), f(), abs(f()) + 0.1,
                 tuple(f() for _ in range(d)), tuple(f() for _ in range(d))),
        IterBegin(int(rng.integers(0, 2))),
        BirthProposal(u(), u(40), u(100)),
        DeathProposal(2 * u(2**30), 2 * u(2**30) + 1),
        MoveStats(u(), u(), f(), f()),
        BirthAccept(u(), u(40), u(100), f(), f()),
        DeathAccept(u(), f()),
        Reject(),
        MuStats(tuple((u(), f(), abs(f())) for _ in range(b))),
        MuValues(tuple(f() for _ in range(b))),
        RssPartial(abs(f())),
        ReplicaHash(bytes(rng.integers(0, 256, 16, dtype=np.uint8))),
        Shutdown(),
    ]


class TestPayloadSizes:
    """The byte ledger is pinned exactly; nothing here may drift."""

    def test_birth_proposal_is_12(self):
        assert len(encode(BirthProposal(1, 3, 42))) == 1 + 12

    def test_death_proposal_is_8(self):
        assert len(encode(DeathProposal(6, 7))) == 1 + 8

    def test_move_stats_is_24(self):
        assert len(encode(MoveStats(10, 20, 0.5, -0.5))) == 1 + 24

    def test_birth_accept_is_28(self):
        assert len(encode(BirthAccept(5, 0, 1, 0.1, 0.2))) == 1 + 28

    def test_death_accept_is_28(self):
        assert len(encode(DeathAccept(5, 0.1))) == 1 + 28

    def test_reject_is_0(self):
        assert len(encode(Reject())) == 1 + 0

    def test_mu_stats_is_20_per_leaf(self):
        msg = MuStats(tuple((i, 0.1 * i, 0.2 * i) for i in range(7)))
        assert len(encode(msg)) == 1 + 20 * 7

    def test_mu_values_is_8_per_leaf(self):
        assert len(encode(MuValues((0.1, 0.2, 0.3)))) == 1 + 8 * 3

    def test_rss_partial_is_8(self):
        assert len(encode(RssPartial(1.5))) == 1 + 8

    def test_no_sampler_payload_depends_on_rows(self):
        # Same message shapes, wildly different implied dataset sizes.
        small = encode(MoveStats(1, 1, 0.0, 0.0))
        large = encode(MoveStats(2**31 - 1, 2**31 - 1, 1e300, -1e300))
        assert len(small) == len(large) == 25


class TestRoundTrip:
    def test_all_variants_round_trip(self):
        rng = np.random.default_rng(0)
        for msg in random_messages(rng):
            assert decode(encode(msg)) == msg

    def test_random_round_trips(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            for msg in random_messages(rng, d=int(rng.integers(1, 6)), b=int(rng.integers(1, 9))):
                assert decode(encode(msg)) == msg

    def test_death_accept_padding(self):
        frame = encode(DeathAccept(9, 0.25))
        assert frame[13:] == b"\x00" * 16
        bad = frame[:-1] + b"\x01"
        with pytest.raises(ProtocolError, match="padding"):
            decode(bad)


class TestMessageTable:
    def test_every_table_type_round_trips(self):
        b = 4
        msgs = random_messages(np.random.default_rng(2), b=b)
        assert {type(msg) for msg in msgs} == set(proto.MESSAGES)
        for msg in msgs:
            frame = encode(msg)
            assert frame[0] == proto.MESSAGES[type(msg)][0]
            assert decode(frame) == msg
            # Sized from the stream alone (plus the lockstep record count).
            stream = io.BytesIO(frame + b"next frame")
            assert proto.read_frame(stream.read, records=b) == frame

    def test_fixed_payload_sizes(self):
        # Payload bytes of every message type, measured on encoded frames at
        # d predictors and b leaves: only the range and per-leaf messages vary.
        rng = np.random.default_rng(3)
        for d, b in ((1, 1), (5, 9)):
            sizes = {type(msg): len(encode(msg)) - 1 for msg in random_messages(rng, d, b)}
            assert sizes == {
                Hello: 12,
                ShardMeta: 40 + 16 * d,
                RunSetup: 40 + 16 * d,
                IterBegin: 1,
                Shutdown: 0,
                ReplicaHash: 16,
                BirthProposal: 12,
                DeathProposal: 8,
                MoveStats: 24,
                BirthAccept: 28,
                DeathAccept: 28,
                Reject: 0,
                MuStats: 20 * b,
                MuValues: 8 * b,
                RssPartial: 8,
            }

    def test_per_leaf_frame_needs_a_record_count(self):
        stream = io.BytesIO(encode(MuValues((0.5,))))
        with pytest.raises(ProtocolError, match="without an expected count"):
            proto.read_frame(stream.read)


class TestDecodeErrors:
    def test_truncated_move_stats(self):
        frame = encode(MoveStats(1, 2, 0.5, -0.5))
        with pytest.raises(ProtocolError, match="23 bytes"):
            decode(frame[:-1])

    def test_trailing_bytes_rejected(self):
        frame = encode(Reject()) + b"\x00"
        with pytest.raises(ProtocolError):
            decode(frame)

    def test_unknown_opcode(self):
        with pytest.raises(ProtocolError, match="unknown opcode"):
            decode(b"\xfe\x00")

    def test_empty_frame(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode(b"")

    def test_mu_stats_not_multiple_of_record(self):
        frame = encode(MuStats(((1, 0.5, 0.25),)))
        with pytest.raises(ProtocolError, match="multiple of 20"):
            decode(frame + b"\x00")

    def test_shard_meta_length_mismatch(self):
        msg = ShardMeta(5, 0.0, 1.0, 2.0, 3.0, (0.0, 0.0), (1.0, 1.0))
        frame = encode(msg)
        with pytest.raises(ProtocolError):
            decode(frame[:-8])


class TestNonFiniteValues:
    # Every real of a sampler-phase message, as (message with that real set
    # to `v`, name); a MU_STATS record's third value is padding and unread.
    REALS = [
        (lambda v: MoveStats(3, 4, v, 0.5), "MoveStats.sum_left"),
        (lambda v: MoveStats(3, 4, 0.5, v), "MoveStats.sum_right"),
        (lambda v: BirthAccept(1, 0, 2, v, 0.5), "BirthAccept.mu_left"),
        (lambda v: BirthAccept(1, 0, 2, 0.5, v), "BirthAccept.mu_right"),
        (lambda v: DeathAccept(1, v), "DeathAccept.mu"),
        (lambda v: RssPartial(v), "RssPartial.rss"),
        (lambda v: MuStats(((2, 0.5, 0.0), (3, v, 0.0))), "MuStats sum"),
        (lambda v: MuValues((0.5, v)), "MuValues value"),
    ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("build", [b for b, _ in REALS], ids=[n for _, n in REALS])
    def test_decode_refuses_a_non_finite_real(self, build, value):
        assert decode(encode(build(0.25))) == build(0.25)
        with pytest.raises(ProtocolError, match=re.escape(f"non-finite value in {build(value)}")):
            decode(encode(build(value)))

    def test_mu_stats_padding_is_not_checked(self):
        msg = MuStats(((2, 0.5, float("inf")),))
        assert decode(encode(msg)).records[0][:2] == (2, 0.5)


class TestEncodeErrors:
    def test_replica_hash_length(self):
        with pytest.raises(ProtocolError, match="16 bytes"):
            encode(ReplicaHash(b"\x00" * 4))


class TestIterationByteCount:
    def test_single_accepted_birth_example(self):
        # One tree, birth accepted, 2 leaves after, one worker:
        # 12 + 24 + 28 + 20*2 + 8*2 + 8 = 128 payload bytes.
        assert iteration_byte_count([("birth", True)], [2], p=1) == 128

    def test_zero_workers(self):
        assert iteration_byte_count([("birth", True)], [2], p=0) == 0

    def test_rejected_moves(self):
        # Rejected birth: 12 + 24 + 0; rejected death: 8 + 24 + 0.
        total = iteration_byte_count(
            [("birth", False), ("death", False)], [1, 2], p=2
        )
        per_worker = (12 + 24) + (8 + 24) + (20 + 8) * 1 + (20 + 8) * 2 + 8
        assert total == 2 * per_worker

    def test_null_move_counts_nothing_but_mu(self):
        assert iteration_byte_count([(None, False)], [3], p=1) == (20 + 8) * 3 + 8

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            iteration_byte_count([("birth", True)], [2, 3], p=1)

    def test_unknown_move(self):
        with pytest.raises(ValueError, match="unknown move"):
            iteration_byte_count([("swap", True)], [2], p=1)
