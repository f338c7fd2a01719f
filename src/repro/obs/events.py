"""The typed event schema of the tracing layer.

Every trace is a flat sequence of :class:`ObsEvent` records.  The kind
vocabulary is fixed: the paper's quantities (instances per phase,
recovery latency, token circulation overhead, messages per barrier --
Figures 3-7 and Table 1) are all reductions over these kinds, so the
summarizer and the cross-implementation conformance suite can treat
traces from any engine uniformly.

Events serialize to flat JSON objects (one per line in JSONL exports):
``{"kind": ..., "t": ..., "pid": ..., <data...>}``.  Payload keys live
at the top level, so the reserved names ``kind``/``t``/``pid`` may not
be used as data keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: A phase instance (one barrier attempt) began.  data: ``phase``.
PHASE_START = "phase_start"
#: A phase instance ended.  data: ``phase``, ``success``.
PHASE_END = "phase_end"
#: A fault struck ``pid``.  data: ``detectable`` (and engine extras).
FAULT = "fault"
#: The protocol detected an earlier fault (root saw error/repeat).
DETECT = "detect"
#: The protocol returned to a start state after faults.  data may carry
#: an explicit ``latency``; otherwise the summarizer pairs the event
#: with the earliest unmatched fault.
RECOVERY = "recovery"
#: The token/wave was released by ``src`` (one circulation).
TOKEN_PASS = "token_pass"
#: A message entered a link.  data: ``src``, ``dst``, ``tag``.
MSG_SEND = "msg_send"
#: A message was delivered.  data: ``src``, ``dst``, ``tag``.
MSG_RECV = "msg_recv"
#: A frame was rejected by the defensive decode/validation layer
#: instead of raising.  data: ``reason`` (e.g. ``decode``, ``schema``,
#: ``src-spoof``, ``semantic``), ``peer`` when attributable.  Like the
#: message kinds, quarantines are observational -- they never enter the
#: replay digest (their count can depend on resend timing).
QUARANTINE = "quarantine"

EVENT_KINDS = frozenset(
    {
        PHASE_START,
        PHASE_END,
        FAULT,
        DETECT,
        RECOVERY,
        TOKEN_PASS,
        MSG_SEND,
        MSG_RECV,
        QUARANTINE,
    }
)

#: The kinds the paper's guarantees are stated over, O(rounds): the replay
#: digest's projection, the monitor stream, a chaos run's kept events.
PROTOCOL_KINDS = frozenset({PHASE_START, PHASE_END, FAULT, DETECT, RECOVERY})

#: JSON keys that carry the event envelope rather than payload data.
RESERVED_KEYS = frozenset({"kind", "t", "pid"})


class _NoData(dict):
    """The payload of every event that has none: an empty ``dict`` that
    cannot be filled, so one instance serves the whole process.

    A real ``dict`` so ``==``, ``.get``, ``json`` and ``to_dict`` need
    no second case; it pickles (and deep-copies) as a reference to
    :data:`_NO_DATA`, which keeps it shared on the far side of a shard
    boundary -- ``types.MappingProxyType`` does not pickle at all.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("the shared empty event payload is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = setdefault = pop = popitem = clear = _read_only

    def __reduce__(self) -> str:
        return "_NO_DATA"


_NO_DATA = _NoData()


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """One structured trace record.

    ``time`` is virtual time for the timed engines and the step number
    (as a float) for the untimed guarded-command runs; ``pid`` is the
    process/rank the event is attributed to (None for system-wide
    events, e.g. a whole-system perturbation).  An event without payload
    holds the shared :data:`_NO_DATA`, whatever empty mapping it was
    built with.
    """

    kind: str
    time: float
    pid: int | None = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known: {sorted(EVENT_KINDS)}"
            )
        data = self.data
        if not data:
            object.__setattr__(self, "data", _NO_DATA)
        elif not RESERVED_KEYS.isdisjoint(data):
            bad = RESERVED_KEYS.intersection(data)
            raise ValueError(f"reserved keys in event data: {sorted(bad)}")

    def to_dict(self) -> dict[str, Any]:
        """The flat JSON form (payload keys at the top level)."""
        record: dict[str, Any] = {"kind": self.kind, "t": self.time}
        if self.pid is not None:
            record["pid"] = self.pid
        record.update(self.data)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ObsEvent":
        """Inverse of :meth:`to_dict`."""
        data = {k: v for k, v in record.items() if k not in RESERVED_KEYS}
        return cls(
            kind=record["kind"],
            time=float(record["t"]),
            pid=record.get("pid"),
            data=data,
        )
