"""Bit-exact message serialization and the transmitted-bit ledger.

Counted bits follow the information-accounting convention: scaling factors
and floating-point payloads cost 32 bits each, quantized codes cost their bit
width, sparse entry positions cost ``ceil(log2(d))`` bits, and a snapshot flag
costs a single bit. Physical streams additionally carry a 1-byte format tag,
an explicit entry count for sparse payloads, and final-byte padding; none of
those are counted, so ledger totals match the closed-form message costs
exactly.

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
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .quantizer import LowPrecisionVector, QuantGrid, SparseLowPrecisionVector

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
    "decode_dense",
    "decode_sparse",
    "decode_full",
    "decode_message",
]

_FORMAT_VERSION = 1


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
_KIND_BY_TAG = {tag: kind for kind, tag in _TAGS.items()}

Content = Union[np.ndarray, LowPrecisionVector, SparseLowPrecisionVector, None]


@dataclass(frozen=True)
class WireMessage:
    """One master<->worker message.

    ``bits`` is the counted information cost. ``payload`` is the physical
    packed stream (tag byte included). ``content`` keeps the sender-side
    typed value so the simulator can consume messages without the binary32
    round trip; the payload is authoritative for persistence.
    """

    kind: MessageKind
    bits: int
    payload: bytes
    content: Content = field(compare=False)


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


def encode_dense(q: LowPrecisionVector) -> WireMessage:
    """Dense quantized vector: 32 + b*d counted bits."""
    b = q.grid.bits
    if b > 32:
        raise ValueError(f"cannot encode codes wider than 32 bits, got {b}")
    body = struct.pack(">f", q.grid.delta) + _pack_fields(_to_unsigned(q.codes, b), b)
    return WireMessage(
        kind=MessageKind.DENSE,
        bits=dense_bits(q.dim, b),
        payload=bytes([_TAGS[MessageKind.DENSE]]) + body,
        content=q,
    )


def encode_sparse(q: SparseLowPrecisionVector) -> WireMessage:
    """Sparse quantized vector: 32 + nnz*(ceil(log2 d) + b) counted bits.

    The explicit entry count travels physically but is folded into the 32-bit
    header for accounting, so counted cost matches the closed formula.
    """
    b = q.grid.bits
    if b > 32:
        raise ValueError(f"cannot encode codes wider than 32 bits, got {b}")
    iw = index_bits(q.dim)
    entry = (
        (q.indices.astype(np.uint64) << np.uint64(b)) | _to_unsigned(q.codes, b)
        if q.nnz
        else np.zeros(0, dtype=np.uint64)
    )
    body = (
        struct.pack(">f", q.grid.delta)
        + struct.pack(">I", q.nnz)
        + _pack_fields(entry, iw + b)
    )
    return WireMessage(
        kind=MessageKind.SPARSE,
        bits=sparse_bits(q.dim, q.nnz, b),
        payload=bytes([_TAGS[MessageKind.SPARSE]]) + body,
        content=q,
    )


def encode_full(v) -> WireMessage:
    """Full-precision vector: 32*d counted bits, binary32 payload."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot encode non-finite values")
    body = arr.astype(">f4").tobytes()
    return WireMessage(
        kind=MessageKind.FULL,
        bits=full_bits(arr.size),
        payload=bytes([_TAGS[MessageKind.FULL]]) + body,
        content=arr,
    )


def encode_flag() -> WireMessage:
    """Snapshot flag: the receiver reuses its stored snapshot. One counted bit."""
    return WireMessage(
        kind=MessageKind.FLAG,
        bits=flag_bits(),
        payload=bytes([_TAGS[MessageKind.FLAG], 0x80]),
        content=None,
    )


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


def decode_message(payload: bytes, d: int, b: Optional[int] = None) -> WireMessage:
    """Reconstruct a :class:`WireMessage` from its physical stream."""
    if not payload:
        raise ValueError("empty payload")
    kind = _KIND_BY_TAG.get(payload[0])
    if kind is None:
        raise ValueError(f"unknown format tag 0x{payload[0]:02x}")
    if kind is MessageKind.FLAG:
        return WireMessage(kind, flag_bits(), payload, None)
    if kind is MessageKind.FULL:
        return WireMessage(kind, full_bits(d), payload, decode_full(payload, d))
    if b is None:
        raise ValueError(f"{kind.value} decoding requires the code width b")
    if kind is MessageKind.DENSE:
        q = decode_dense(payload, d, b)
        return WireMessage(kind, dense_bits(d, b), payload, q)
    q = decode_sparse(payload, d, b)
    return WireMessage(kind, sparse_bits(d, q.nnz, b), payload, q)


@dataclass
class LedgerRow:
    step: int
    direction: str  # "up" (worker->master) or "down" (master->worker)
    kind: str
    bits: int
    cumulative_bits: int


class BitLedger:
    """Cumulative transmitted-bit accounting, split by direction and kind.

    Single-owner mutable state: only the simulation event loop appends.
    """

    def __init__(self):
        self.up_bits = 0
        self.down_bits = 0
        self.per_kind: dict[str, tuple[int, int]] = {}
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
        count, total = self.per_kind.get(kind, (0, 0))
        self.per_kind[kind] = (count + 1, total + bits)
        self.rows.append(LedgerRow(step, direction, kind, bits, self.total_bits))

    def record_message(self, step: int, direction: str, msg: WireMessage,
                       kind: Optional[str] = None) -> None:
        self.record(step, direction, kind or msg.kind.value, msg.bits)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "direction", "kind", "bits", "cumulative_bits"])
            for row in self.rows:
                writer.writerow(
                    [row.step, row.direction, row.kind, row.bits, row.cumulative_bits]
                )

