import math

import numpy as np
import pytest

from dqsim.codec import (
    _TAGS,
    BitLedger,
    MessageKind,
    WireMessage,
    check_sendable,
    decode_dense,
    decode_full,
    decode_sparse,
    dense_bits,
    encode_dense,
    encode_flag,
    encode_full,
    encode_sparse,
    flag_bits,
    full_bits,
    index_bits,
    sparse_bits,
)
from dqsim.quantizer import LowPrecisionVector, QuantGrid, SparseLowPrecisionVector

from oracles import per_kind


def decode_message(payload: bytes, d: int, b=None) -> WireMessage:
    """Reconstruct a message from its physical stream, dispatching on the
    tag byte."""
    if not payload:
        raise ValueError("empty payload")
    kind = {tag: kind for kind, tag in _TAGS.items()}.get(payload[0])
    if kind is None:
        raise ValueError(f"unknown format tag 0x{payload[0]:02x}")
    if kind is MessageKind.FLAG:
        return WireMessage(kind, flag_bits(), None)
    if kind is MessageKind.FULL:
        return WireMessage(kind, full_bits(d), decode_full(payload, d))
    if b is None:
        raise ValueError(f"{kind.value} decoding requires the code width b")
    if kind is MessageKind.DENSE:
        return WireMessage(kind, dense_bits(d, b), decode_dense(payload, d, b))
    q = decode_sparse(payload, d, b)
    return WireMessage(kind, sparse_bits(d, q.nnz, b), q)


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_dense(rng, d=None, b=None):
    d = d or int(rng.integers(1, 200))
    b = b or int(rng.integers(2, 17))
    grid = QuantGrid(float(np.float32(rng.uniform(1e-4, 2.0))), b)
    codes = rng.integers(grid.code_min, grid.code_max + 1, size=d)
    return LowPrecisionVector(grid, codes)


def random_sparse(rng):
    d = int(rng.integers(1, 300))
    b = int(rng.integers(2, 17))
    grid = QuantGrid(float(np.float32(rng.uniform(1e-4, 2.0))), b)
    nnz = int(rng.integers(0, d + 1))
    idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
    codes = rng.integers(grid.code_min, grid.code_max + 1, size=nnz)
    return SparseLowPrecisionVector(grid, d, idx, codes)


class TestBitFormulas:
    @pytest.mark.parametrize("d,b", [(1000, 8), (1, 2), (784, 4), (300, 8), (17, 13)])
    def test_dense_counted_bits(self, d, b):
        grid = QuantGrid(1.0, b)
        q = LowPrecisionVector(grid, np.zeros(d, dtype=np.int64))
        msg = encode_dense(q)
        assert msg.bits == 32 + b * d
        # physical payload: tag + ceil((32 + b d)/8) bytes
        assert len(msg.payload) == 1 + math.ceil((32 + b * d) / 8)

    def test_dense_example_1000_by_8(self):
        q = LowPrecisionVector(QuantGrid(0.5, 8), np.zeros(1000, dtype=np.int64))
        assert encode_dense(q).bits == 8032

    def test_smallest_dense_roundtrip(self):
        q = LowPrecisionVector(QuantGrid(1.0, 2), np.array([-2]))
        msg = encode_dense(q)
        assert msg.bits == 34
        back = decode_dense(msg.payload, 1, 2)
        assert back.codes.tolist() == [-2]
        np.testing.assert_array_equal(back.decode(), [-2.0])

    def test_sparse_counted_bits_example(self):
        # d=1024 gives 10 position bits: 32 + 10*(10+4) = 172
        grid = QuantGrid(1.0, 4)
        q = SparseLowPrecisionVector(
            grid, 1024, np.arange(10, dtype=np.int64),
            np.ones(10, dtype=np.int64),
        )
        assert encode_sparse(q).bits == 172 == sparse_bits(1024, 10, 4)

    def test_sparse_empty_is_header_only(self):
        grid = QuantGrid(0.0, 6)
        q = SparseLowPrecisionVector(
            grid, 50, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        msg = encode_sparse(q)
        assert msg.bits == 32
        back = decode_sparse(msg.payload, 50, 6)
        assert back.nnz == 0
        np.testing.assert_array_equal(back.decode(), np.zeros(50))

    @pytest.mark.parametrize("d,expected", [(1, 0), (2, 1), (1024, 10), (1025, 11),
                                            (0, ValueError)])
    def test_index_bits(self, d, expected):
        if expected is ValueError:
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                index_bits(d)
        else:
            assert index_bits(d) == expected

    def test_full_counted_bits(self):
        assert encode_full(np.zeros(1000)).bits == 32_000
        assert full_bits(300) == 9600

    def test_flag_single_bit(self):
        assert encode_flag().bits == 1
        assert flag_bits() == 1

    def test_full_vs_dense_ratio(self):
        # the per-message saving driving the headline ratios
        assert full_bits(1000) / dense_bits(1000, 8) == pytest.approx(3.98, abs=0.01)


class TestRoundtrips:
    def test_dense_bit_exact(self):
        rng = rng_of(1)
        for _ in range(1000):
            q = random_dense(rng)
            msg = encode_dense(q)
            back = decode_dense(msg.payload, q.dim, q.grid.bits)
            assert back == q
            assert encode_dense(back).payload == msg.payload

    def test_sparse_bit_exact(self):
        rng = rng_of(2)
        for _ in range(1000):
            q = random_sparse(rng)
            msg = encode_sparse(q)
            back = decode_sparse(msg.payload, q.dim, q.grid.bits)
            assert back == q
            assert encode_sparse(back).payload == msg.payload

    def test_full_exact_at_single_precision(self):
        rng = rng_of(3)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 100)).astype(np.float32)
            msg = encode_full(v.astype(np.float64))
            np.testing.assert_array_equal(decode_full(msg.payload, v.size),
                                          v.astype(np.float64))

    def test_delta_travels_at_single_precision(self):
        # float64 deltas are rounded to binary32 on the wire
        q = LowPrecisionVector(QuantGrid(1.0 / 127.0, 8), np.array([127, -127]))
        back = decode_dense(encode_dense(q).payload, 2, 8)
        assert back.grid.delta == float(np.float32(1.0 / 127.0))
        np.testing.assert_array_equal(back.codes, q.codes)

    def test_decode_message_dispatch(self):
        rng = rng_of(4)
        q = random_dense(rng, d=20, b=6)
        msg = encode_dense(q)
        parsed = decode_message(msg.payload, 20, 6)
        assert parsed.kind is MessageKind.DENSE and parsed.bits == msg.bits
        f = encode_full(np.arange(5, dtype=np.float64))
        parsed = decode_message(f.payload, 5)
        assert parsed.kind is MessageKind.FULL and parsed.bits == 160
        assert decode_message(encode_flag().payload, 5).kind is MessageKind.FLAG
        with pytest.raises(ValueError):
            decode_message(b"\xff\x00", 5)
        # a decoder given another kind's stream, or none, refuses it
        with pytest.raises(ValueError, match="quantized_dense tag"):
            decode_dense(encode_flag().payload, 5, 6)
        with pytest.raises(ValueError, match="full tag"):
            decode_full(b"", 5)

    def test_width_over_32_rejected(self):
        grid = QuantGrid(1.0, 33)
        q = LowPrecisionVector(grid, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            encode_dense(q)

    def test_sparse_index_out_of_range_rejected(self):
        grid = QuantGrid(1.0, 4)
        with pytest.raises(ValueError):
            SparseLowPrecisionVector(
                grid, 4, np.array([5], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    def test_non_finite_full_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            encode_full(np.array([1.0, np.inf]))
        # the shape is checked first, as in the quantizer
        with pytest.raises(ValueError, match="1-d vector"):
            encode_full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            encode_full([])

    def test_scale_beyond_binary32_overflows_at_encode(self):
        grid = QuantGrid(1e39, 4)
        with pytest.raises(OverflowError, match="^quantized_dense message "
                           "scale 1e[+]39 too large for binary32$"):
            encode_dense(LowPrecisionVector(grid, np.array([1, -1])))
        with pytest.raises(OverflowError, match="^quantized_sparse message "
                           "scale 1e[+]39 too large for binary32$"):
            encode_sparse(SparseLowPrecisionVector(
                grid, 8, np.array([2], dtype=np.int64), np.array([1], dtype=np.int64)
            ))

    def test_binary32_limit_is_the_edge(self):
        # 2^128 - 2^103 is halfway between the largest binary32 value and
        # 2^128, so it rounds to infinity; the float below it does not
        limit = 2.0**128 - 2.0**103
        below = math.nextafter(limit, 0.0)
        for kind in (MessageKind.DENSE, MessageKind.SPARSE):
            with pytest.raises(OverflowError):
                check_sendable(kind, QuantGrid(limit, 4))
            check_sendable(kind, QuantGrid(below, 4))
        for sign in (1.0, -1.0):
            with pytest.raises(OverflowError):
                encode_full(np.array([0.0, sign * limit]))
            encode_full(np.array([0.0, sign * below]))

    def test_full_beyond_binary32_overflows(self):
        with pytest.raises(OverflowError):
            encode_full(np.array([1e39, 1.0]))
        top = float(np.finfo(np.float32).max)
        msg = encode_full(np.array([-top, top]))
        np.testing.assert_array_equal(decode_full(msg.payload, 2), [-top, top])


class TestLedger:
    def test_records_and_totals(self):
        ledger = BitLedger()
        q = LowPrecisionVector(QuantGrid(0.5, 8), np.zeros(1000, dtype=np.int64))
        ledger.record_message(0, "down", encode_dense(q))
        assert ledger.down_bits == 8032 and ledger.up_bits == 0
        ledger.record_message(1, "down", encode_flag())
        assert ledger.down_bits == 8033
        ledger.record_message(2, "up", encode_full(np.zeros(10)))
        assert ledger.up_bits == 320

    def test_conservation_over_random_sequences(self):
        rng = rng_of(5)
        ledger = BitLedger()
        for step in range(200):
            direction = "up" if rng.random() < 0.5 else "down"
            pick = rng.integers(0, 3)
            if pick == 0:
                msg = encode_dense(random_dense(rng, d=8, b=4))
            elif pick == 1:
                msg = encode_full(rng.normal(size=4))
            else:
                msg = encode_flag()
            ledger.record_message(step, direction, msg)
        per_kind_total = sum(bits for _, bits in per_kind(ledger).values())
        per_kind_count = sum(count for count, _ in per_kind(ledger).values())
        assert per_kind_total == ledger.up_bits + ledger.down_bits
        assert per_kind_count == 200
        assert ledger.rows[-1].cumulative_bits == ledger.total_bits
        # cumulative column is nondecreasing
        cums = [row.cumulative_bits for row in ledger.rows]
        assert all(a <= b for a, b in zip(cums, cums[1:]))

    def test_csv_export(self, tmp_path):
        ledger = BitLedger()
        ledger.record_message(0, "down", encode_flag())
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,direction,kind,bits,cumulative_bits"
        assert lines[1] == "0,down,snapshot_flag,1,1"

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            BitLedger().record(0, "sideways", "full", 1)
