"""Bit-exact message serialization and the transmitted-bit ledger.

Counted bits follow the information-accounting convention: scaling factors
and floating-point payloads cost 32 bits each, quantized codes cost their bit
width, sparse entry positions cost ``ceil(log2(d))`` bits, and a snapshot flag
costs a single bit. Physical streams additionally carry a 1-byte format tag,
an explicit entry count for sparse payloads, and final-byte padding; none of
those are counted, so ledger totals match the closed-form message costs
exactly.

A message holds its kind, its counted bits and its typed value. The
simulator consumes the value and the ledger charges the bits, so the
physical stream is packed only on request, each time ``payload`` is read.
Everything that can make a message unsendable (a code width past 32 bits, a
scale or value at or past the binary32 limit ``2^128 - 2^103``, from which
a value rounds to infinity) is checked when the message is built.

Wire layout (version 1), after the tag byte:

    full    : d big-endian IEEE-754 binary32 values
    dense   : binary32 delta, then d codes packed b bits each, two's
              complement, MSB-first, no padding between codes
    sparse  : binary32 delta, uint32 entry count, then per entry
              ceil(log2(d)) position bits followed by b code bits
    flag    : one bit (physically one byte)

Decoding needs the session context (dimension ``d`` and gradient width ``b``)
that both endpoints already share; it is not repeated on the wire.
"""

from __future__ import annotations

import csv
import enum
import math
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quantizer import (
    FULL_PRECISION_BITS,
    LowPrecisionVector,
    QuantGrid,
    SparseLowPrecisionVector,
    _as_vector,
)

__all__ = [
    "MessageKind",
    "WireMessage",
    "BitLedger",
    "dense_bits",
    "sparse_bits",
    "full_bits",
    "flag_bits",
    "index_bits",
    "encode_dense",
    "encode_sparse",
    "encode_full",
    "encode_flag",
    "check_sendable",
    "decode_dense",
    "decode_sparse",
    "decode_full",
    "write_csv",
]


class MessageKind(enum.Enum):
    FULL = "full"
    DENSE = "quantized_dense"
    SPARSE = "quantized_sparse"
    FLAG = "snapshot_flag"


_TAGS = {
    MessageKind.FULL: 0x10 | 0x1,
    MessageKind.DENSE: 0x10 | 0x2,
    MessageKind.SPARSE: 0x10 | 0x3,
    MessageKind.FLAG: 0x10 | 0x4,
}

_BINARY32_LIMIT = 2.0**128 - 2.0**103  # the least magnitude that rounds to inf

Content = Union[np.ndarray, LowPrecisionVector, SparseLowPrecisionVector, None]


@dataclass(frozen=True, eq=False)
class WireMessage:
    """One master<->worker message.

    ``bits`` is the counted information cost. ``content`` is the sender-side
    typed value, which the simulator consumes without the binary32 round
    trip. ``payload`` packs the physical stream (tag byte included) from
    ``content`` each time it is read.
    """

    kind: MessageKind
    bits: int
    content: Content

    @property
    def payload(self) -> bytes:
        return _pack_message(self.kind, self.content)


def index_bits(d: int) -> int:
    """Bits needed to address a coordinate of a d-dimensional vector."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.ceil(math.log2(d)) if d > 1 else 0


def dense_bits(d: int, b: int) -> int:
    return 32 + b * d


def sparse_bits(d: int, nnz: int, b: int) -> int:
    return 32 + nnz * (index_bits(d) + b)


def full_bits(d: int) -> int:
    return 32 * d


def flag_bits() -> int:
    return 1


def _pack_fields(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ints MSB-first at ``width`` bits each, zero-padded to bytes."""
    if width == 0 or values.size == 0:
        return b""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = (values.astype(np.uint64)[:, None] >> shifts) & 1
    return np.packbits(bits.astype(np.uint8).ravel()).tobytes()


def _unpack_fields(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_fields`."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * width)
    weights = (1 << np.arange(width - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
    return (bits.reshape(count, width).astype(np.uint64) @ weights).astype(np.int64)


def _to_unsigned(codes: np.ndarray, width: int) -> np.ndarray:
    return (codes.astype(np.int64) & ((1 << width) - 1)).astype(np.uint64)


def _to_signed(u: np.ndarray, width: int) -> np.ndarray:
    half = np.int64(1) << (width - 1)
    s = u.astype(np.int64)
    return np.where(s >= half, s - (np.int64(1) << width), s)


def _pack_message(kind: MessageKind, content: Content) -> bytes:
    """The version-1 stream of a message: tag byte, then its kind's layout."""
    if kind is MessageKind.FLAG:
        body = b"\x80"
    elif kind is MessageKind.FULL:
        body = content.astype(">f4").tobytes()
    else:
        b = content.grid.bits
        codes = _to_unsigned(content.codes, b)
        body = struct.pack(">f", content.grid.delta)
        if kind is MessageKind.DENSE:
            body += _pack_fields(codes, b)
        else:
            entries = (content.indices.astype(np.uint64) << np.uint64(b)) | codes
            body += struct.pack(">I", content.nnz)
            body += _pack_fields(entries, index_bits(content.dim) + b)
    return bytes([_TAGS[kind]]) + body


def check_sendable(kind: MessageKind, grid: QuantGrid) -> None:
    """Codes must fit the wire's width and the scale must be below the binary32
    limit, else ``OverflowError`` names the message kind and the scale."""
    if grid.bits > FULL_PRECISION_BITS:
        raise ValueError(
            f"cannot encode codes wider than {FULL_PRECISION_BITS} bits, got {grid.bits}"
        )
    if grid.delta >= _BINARY32_LIMIT:
        raise OverflowError(f"{kind.value} message scale {grid.delta!r} "
                            "too large for binary32")


def encode_dense(q: LowPrecisionVector) -> WireMessage:
    """Dense quantized vector: 32 + b*d counted bits."""
    check_sendable(MessageKind.DENSE, q.grid)
    return WireMessage(MessageKind.DENSE, dense_bits(q.dim, q.grid.bits), q)


def encode_sparse(q: SparseLowPrecisionVector) -> WireMessage:
    """Sparse quantized vector: 32 + nnz*(ceil(log2 d) + b) counted bits.

    The explicit entry count travels physically but is folded into the 32-bit
    header for accounting, so counted cost matches the closed formula.
    """
    check_sendable(MessageKind.SPARSE, q.grid)
    return WireMessage(MessageKind.SPARSE, sparse_bits(q.dim, q.nnz, q.grid.bits), q)


def encode_full(v) -> WireMessage:
    """Full-precision vector: 32*d counted bits, binary32 payload.

    A finite value that rounds past the binary32 range raises
    ``OverflowError``, as the scale of a quantized message does, so the wire
    never carries an infinity the simulator does not hold."""
    arr = _as_vector(v)
    if arr.max() >= _BINARY32_LIMIT or arr.min() <= -_BINARY32_LIMIT:
        raise OverflowError("value too large for binary32")
    return WireMessage(MessageKind.FULL, full_bits(arr.size), arr)


def encode_flag() -> WireMessage:
    """Snapshot flag: the receiver reuses its stored snapshot. One counted bit."""
    return WireMessage(MessageKind.FLAG, flag_bits(), None)


def _check_tag(payload: bytes, kind: MessageKind) -> bytes:
    if not payload or payload[0] != _TAGS[kind]:
        raise ValueError(f"payload does not carry a {kind.value} tag")
    return payload[1:]


def decode_dense(payload: bytes, d: int, b: int) -> LowPrecisionVector:
    body = _check_tag(payload, MessageKind.DENSE)
    (delta,) = struct.unpack(">f", body[:4])
    codes = _to_signed(_unpack_fields(body[4:], d, b), b)
    return LowPrecisionVector(QuantGrid(float(delta), b), codes)


def decode_sparse(payload: bytes, d: int, b: int) -> SparseLowPrecisionVector:
    body = _check_tag(payload, MessageKind.SPARSE)
    (delta,) = struct.unpack(">f", body[:4])
    (nnz,) = struct.unpack(">I", body[4:8])
    iw = index_bits(d)
    raw = _unpack_fields(body[8:], nnz, iw + b).astype(np.uint64)
    indices = (raw >> np.uint64(b)).astype(np.int64)
    codes = _to_signed(raw & np.uint64((1 << b) - 1), b)
    return SparseLowPrecisionVector(QuantGrid(float(delta), b), d, indices, codes)


def decode_full(payload: bytes, d: int) -> np.ndarray:
    body = _check_tag(payload, MessageKind.FULL)
    arr = np.frombuffer(body, dtype=">f4", count=d)
    return arr.astype(np.float64)


@dataclass
class LedgerRow:
    step: int
    direction: str  # "up" (worker->master) or "down" (master->worker)
    kind: str
    bits: int
    cumulative_bits: int


class BitLedger:
    """Cumulative transmitted-bit totals by direction, and one row per
    record with its kind.

    Single-owner mutable state: only the simulation event loop appends.
    """

    def __init__(self):
        self.up_bits = 0
        self.down_bits = 0
        self.rows: list[LedgerRow] = []

    @property
    def total_bits(self) -> int:
        return self.up_bits + self.down_bits

    def record(self, step: int, direction: str, kind: str, bits: int) -> None:
        if direction == "up":
            self.up_bits += bits
        elif direction == "down":
            self.down_bits += bits
        else:
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        self.rows.append(LedgerRow(step, direction, kind, bits, self.total_bits))

    def record_message(self, step: int, direction: str, msg: WireMessage) -> None:
        self.record(step, direction, msg.kind.value, msg.bits)

    def write_csv(self, path) -> None:
        write_csv(path, ["step", "direction", "kind", "bits", "cumulative_bits"],
                  ([r.step, r.direction, r.kind, r.bits, r.cumulative_bits]
                   for r in self.rows))


def write_csv(path, header, rows) -> None:
    """A table of a run: the header, then each row, a sequence of values,
    through ``csv.writer``, which writes ``None`` as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

