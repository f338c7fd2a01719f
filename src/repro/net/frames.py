"""Wire format of the asyncio runtime: length-prefixed JSON frames.

One frame is ``<4-byte big-endian length><canonical JSON object>``.
The JSON object is a :class:`Message` envelope: protocol kind, source,
destination, per-link sequence number, sender incarnation, and a
Lamport clock sample, plus a free-form payload dict.  Canonical
encoding (sorted keys, no whitespace) means a message has exactly one
byte representation, which the fault injector exploits to make
per-message drop/delay decisions a pure function of content -- the
root of the runtime's replay determinism.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: Frame length prefix: 4-byte unsigned big-endian.
_LEN = struct.Struct(">I")

#: Upper bound on a frame body; anything larger is a protocol error.
MAX_FRAME = 1 << 20

#: Cross-shard record header: (src node, dst node) routed over one link.
_RECORD_HDR = struct.Struct(">II")

#: The canonical-JSON encoder, built once: ``json.dumps(..., sort_keys=
#: True, separators=(",", ":"))`` constructs a fresh ``JSONEncoder`` per
#: call, which is measurable at millions of messages (see the ``frames``
#: micro-bench in ``benchmarks/bench_net.py``).  Byte-for-byte the same
#: output as the per-call form.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

encode_canonical = _ENCODER.encode


class FrameError(ValueError):
    """Malformed frame or envelope."""


def encode_frame(body: bytes) -> bytes:
    """Wrap ``body`` in the length prefix (one pre-sized buffer, no
    intermediate concatenation)."""
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    out = bytearray(_LEN.size + len(body))
    _LEN.pack_into(out, 0, len(body))
    out[_LEN.size:] = body
    return bytes(out)


def append_frame(buffer: bytearray, body: bytes) -> None:
    """Append one length-prefixed frame to ``buffer`` in place -- the
    batching primitive: many frames accumulate in one buffer and leave
    in one syscall."""
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    offset = len(buffer)
    buffer.extend(b"\x00\x00\x00\x00")
    _LEN.pack_into(buffer, offset, len(body))
    buffer.extend(body)


def pack_record(src: int, dst: int, body: bytes) -> bytes:
    """A routed cross-shard record: ``(src, dst)`` header + frame body.
    Link peers exchange these inside ordinary length-prefixed frames, so
    :class:`FrameDecoder` splits a batched byte stream back into them."""
    out = bytearray(_RECORD_HDR.size + len(body))
    _RECORD_HDR.pack_into(out, 0, src, dst)
    out[_RECORD_HDR.size:] = body
    return bytes(out)


def unpack_record(record: bytes) -> tuple[int, int, bytes]:
    """Invert :func:`pack_record`; raises :class:`FrameError` on a
    truncated header."""
    if len(record) < _RECORD_HDR.size:
        raise FrameError(f"record of {len(record)} bytes has no routing header")
    src, dst = _RECORD_HDR.unpack_from(record)
    return src, dst, record[_RECORD_HDR.size:]


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get whole frames.

    This is the stream side of the codec (TCP delivers bytes, not
    frames); the in-memory transport hands frames around whole and
    never needs it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> Iterator[bytes]:
        """Consume ``chunk``; yield every frame body it completes."""
        self._buffer.extend(chunk)
        while True:
            if len(self._buffer) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            end = _LEN.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LEN.size:end])
            del self._buffer[:end]
            yield body

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet framed."""
        return len(self._buffer)


@dataclass(frozen=True)
class Message:
    """The protocol envelope every frame carries.

    ``seq`` is per ``(src, dst, incarnation)`` and monotone, which is
    what receiver-side dedup keys on; ``lamport`` stamps the sender's
    logical clock so merged traces have a causal order.
    """

    kind: str
    src: int
    dst: int
    seq: int
    incarnation: int = 0
    lamport: int = 0
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Canonical JSON body (stable byte representation)."""
        record = {
            "k": self.kind,
            "s": self.src,
            "d": self.dst,
            "q": self.seq,
            "i": self.incarnation,
            "lc": self.lamport,
            "p": dict(self.payload),
        }
        return encode_canonical(record).encode()

    #: The envelope's wire keys; strict decode rejects anything else.
    _KEYS = frozenset({"k", "s", "d", "q", "i", "lc", "p"})

    @classmethod
    def from_bytes(cls, body: bytes, strict: bool = False) -> "Message":
        """Decode and schema-validate an envelope.

        Every field is type- and range-checked (a hostile peer may send
        anything), so a decoded :class:`Message` is safe to index on:
        ``src``/``dst``/``seq``/``incarnation``/``lamport`` are
        non-negative ints, ``kind`` a short string, ``payload`` a dict.
        ``strict=True`` additionally rejects unknown keys and
        non-canonical encodings (whitespace, key order, duplicate
        keys), so one logical message keeps exactly one byte
        representation even against an adversary.
        """
        try:
            record = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"undecodable frame body: {exc}") from exc
        if not isinstance(record, dict):
            raise FrameError(
                f"envelope is not an object: {type(record).__name__}"
            )
        kind = record.get("k")
        if not isinstance(kind, str) or not 1 <= len(kind) <= 32:
            raise FrameError(f"bad message kind {kind!r}")
        fields: dict[str, int] = {}
        for key, name, default in (
            ("s", "src", None),
            ("d", "dst", None),
            ("q", "seq", None),
            ("i", "incarnation", 0),
            ("lc", "lamport", 0),
        ):
            value = record.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise FrameError(f"bad {name} field {value!r}")
            fields[name] = value
        payload = record.get("p", {})
        if not isinstance(payload, dict):
            raise FrameError(
                f"payload is not an object: {type(payload).__name__}"
            )
        if strict:
            unknown = set(record) - cls._KEYS
            if unknown:
                raise FrameError(f"unknown envelope keys {sorted(unknown)}")
            if encode_canonical(record).encode() != body:
                raise FrameError("non-canonical envelope encoding")
        return cls(kind=kind, payload=payload, **fields)

    @property
    def dedup_key(self) -> tuple[int, int, int]:
        return (self.src, self.incarnation, self.seq)


def frame_digest(body: bytes) -> bytes:
    """Stable identity of a frame body (fault decisions hash this)."""
    return hashlib.sha256(body).digest()


#: Max tracked sequence numbers above the low-water mark per sender
#: incarnation.  Legitimate gaps come from loss/reorder and stay tiny
#: (resends advance the mark); a forged far-future seq would otherwise
#: pin an entry in the sparse set for the rest of the run.
MAX_SEQ_WINDOW = 4096


class DedupIndex:
    """Receiver-side exactly-once filter over ``(src, inc, seq)``.

    Sequence numbers are monotone per sender incarnation, but loss and
    reordering mean they arrive with gaps and out of order, so the
    index keeps, per ``(src, inc)``, a low-water mark plus the sparse
    set of seen sequence numbers above it -- O(1) amortized and bounded
    by the reorder window rather than the run length.

    Memory stays bounded against adversarial traffic too: dead
    incarnations are pruned (and floored, so replays from a sender's
    previous lives are filtered without re-tracking them) when the
    runtime observes an incarnation bump, and sequence numbers more
    than :data:`MAX_SEQ_WINDOW` above the mark are refused outright.
    """

    def __init__(self) -> None:
        #: (src, inc) -> [low-water mark, set of seen seqs > mark]
        self._seen: dict[tuple[int, int], list[Any]] = {}
        #: src -> lowest incarnation still accepted.
        self._floor: dict[int, int] = {}

    def accept(self, src: int, incarnation: int, seq: int) -> bool:
        """True exactly once per (src, incarnation, seq)."""
        if incarnation < self._floor.get(src, 0):
            return False  # replayed traffic from a pruned incarnation
        key = (src, incarnation)
        entry = self._seen.get(key)
        if entry is None:
            entry = self._seen[key] = [-1, set()]
        mark, above = entry
        if seq <= mark or seq in above:
            return False
        if seq > mark + MAX_SEQ_WINDOW:
            return False  # forged far-future seq: refuse to track it
        above.add(seq)
        while mark + 1 in above:
            mark += 1
            above.discard(mark)
        entry[0] = mark
        return True

    def forget_older_incarnations(self, src: int, incarnation: int) -> None:
        """Drop state for a sender's previous lives (post-restart) and
        floor the sender so those lives cannot be re-tracked."""
        self._floor[src] = max(self._floor.get(src, 0), incarnation)
        for key in [k for k in self._seen if k[0] == src and k[1] < incarnation]:
            del self._seen[key]

    def forget(self, src: int) -> None:
        """Drop everything held for a sender, its floor included: the
        next frame from ``src`` starts a fresh history."""
        self._floor.pop(src, None)
        for key in [k for k in self._seen if k[0] == src]:
            del self._seen[key]

    @property
    def tracked(self) -> int:
        """Live (src, incarnation) entries (memory-bound tests)."""
        return len(self._seen)

    @property
    def floors(self) -> int:
        """Senders with an incarnation floor."""
        return len(self._floor)


class LamportClock:
    """The runtime's logical clock: one per node, ticked on every local
    event and advanced past every received stamp, so the merged trace
    of all nodes has a causality-respecting total order."""

    def __init__(self) -> None:
        self.value = 0

    def tick(self) -> int:
        self.value += 1
        return self.value

    def update(self, remote: int) -> int:
        self.value = max(self.value, remote) + 1
        return self.value
