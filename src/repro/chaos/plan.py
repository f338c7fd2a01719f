"""Serializable fault schedules and campaign configuration.

One :class:`FaultPlan` is the unit of adversity: a seeded, sorted,
engine-agnostic list of fault events (``when``, ``pid``, fault class)
plus optional message-fault rates for the network layer.  The *same*
plan drives every engine through its adapter -- the untimed
guarded-command simulator reads ``when`` as a step number, the timed
engines as virtual time -- which is what lets a campaign replay one
schedule against CB, RB, RB-on-trees and MB and compare their behaviour,
and what lets the shrinker hand back a minimal reproducer as a file.

Everything here round-trips through plain JSON (``to_json`` /
``from_json``): plans are content, not processes.  Generation is fully
determined by ``(seed, counts, window, nprocs)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

#: Format tag written into every serialized plan/reproducer.
PLAN_VERSION = 1


#: Fault classes an event can carry.  ``reset`` is the paper's
#: transient fault (correctable; ``detectable`` picks reset vs
#: scramble); ``crash`` is a *permanent* fail-stop (the process never
#: restarts -- the paper's Section 7 ``up`` variable); ``byzantine``
#: turns the process malicious (protocol-valid but semantically wrong
#: messages -- the ``good`` variable).  ``crash``/``byzantine`` are
#: uncorrectable: tolerant targets are allowed to fail-safe stop, but
#: must never *wrongly* report completion.
EVENT_KINDS = ("reset", "crash", "byzantine")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: strike ``pid`` at ``when``.

    ``when`` is interpreted by the target engine -- a daemon step for
    the untimed guarded-command runs (adapters floor it), virtual time
    for the timed ones.  ``detectable`` selects the fault class: True is
    the paper's reset fault (``cp := error``), False the undetectable
    arbitrary-state scramble.  ``kind`` extends the vocabulary with the
    Section 7 uncorrectable classes (see :data:`EVENT_KINDS`).
    """

    when: float
    pid: int
    detectable: bool = True
    kind: str = "reset"

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def uncorrectable(self) -> bool:
        return self.kind != "reset"

    def to_json(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "when": self.when,
            "pid": self.pid,
            "detectable": self.detectable,
        }
        # Emitted conditionally so pre-adversarial plans stay byte-stable.
        if self.kind != "reset":
            record["kind"] = self.kind
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "FaultEvent":
        return cls(
            when=float(record["when"]),
            pid=int(record["pid"]),
            detectable=bool(record.get("detectable", True)),
            kind=str(record.get("kind", "reset")),
        )


@dataclass(frozen=True)
class LinkPlan:
    """Message-fault pressure for engines with a real network layer
    (loss/duplication/corruption/reorder/delay rates, independent per
    message -- the :class:`repro.des.network.LinkFaults` vocabulary plus
    the asyncio transport's extra-latency fault).

    ``delay`` is the probability a message is held back for a seeded
    extra latency before delivery; ``reorder`` is the probability it is
    re-queued behind later traffic.  ``corruption`` flips seeded bytes
    inside the encoded frame (the receiver must quarantine, not crash);
    ``forge`` injects an adversarial extra envelope alongside the real
    one -- a replayed copy or a src-spoofed impersonation.  Engines
    without a matching fault channel ignore the rates they cannot
    express.
    """

    loss: float = 0.0
    duplication: float = 0.0
    corruption: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    forge: float = 0.0

    _RATES = ("loss", "duplication", "corruption", "reorder", "delay", "forge")

    def __post_init__(self) -> None:
        for name in self._RATES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} rate out of [0, 1]: {v}")

    @property
    def any(self) -> bool:
        return any(getattr(self, name) for name in self._RATES)

    def to_json(self) -> dict[str, float]:
        record = {
            "loss": self.loss,
            "duplication": self.duplication,
            "corruption": self.corruption,
            "reorder": self.reorder,
            "delay": self.delay,
        }
        # Emitted conditionally so pre-adversarial plans stay byte-stable.
        if self.forge:
            record["forge"] = self.forge
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "LinkPlan":
        return cls(**{k: float(record.get(k, 0.0)) for k in cls._RATES})


@dataclass(frozen=True)
class PartitionWindow:
    """A scheduled network partition: during ``[start, stop)`` messages
    crossing ``groups`` are dropped wholesale.

    ``groups`` is a tuple of disjoint pid tuples; a message is cut when
    its endpoints fall in *different* groups (pids in no group
    communicate freely -- the partition only separates the named
    blocks).  Time is the transport's clock: seconds since run start
    for the asyncio runtime.  Partitions heal at ``stop``; the
    protocols' resend machinery is what makes the run complete anyway.
    """

    start: float
    stop: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"bad partition window [{self.start}, {self.stop})")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        object.__setattr__(
            self,
            "groups",
            tuple(tuple(int(p) for p in group) for group in self.groups),
        )
        seen: set[int] = set()
        for group in self.groups:
            for pid in group:
                if pid in seen:
                    raise ValueError(f"pid {pid} appears in two partition groups")
                seen.add(pid)

    def cuts(self, src: int, dst: int, at: float) -> bool:
        """Whether a ``src -> dst`` message at time ``at`` is dropped."""
        if not self.start <= at < self.stop:
            return False
        side_src = side_dst = None
        for i, group in enumerate(self.groups):
            if src in group:
                side_src = i
            if dst in group:
                side_dst = i
        return side_src is not None and side_dst is not None and side_src != side_dst

    def to_json(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "stop": self.stop,
            "groups": [list(g) for g in self.groups],
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "PartitionWindow":
        return cls(
            start=float(record["start"]),
            stop=float(record["stop"]),
            groups=tuple(tuple(int(p) for p in g) for g in record["groups"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable fault schedule for one run.

    ``seed`` feeds the target engine's remaining nondeterminism (the
    ``?``-randomized variable draws, scramble values), so a plan pins
    the *entire* adversary, not just the strike times.
    """

    nprocs: int
    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    link: LinkPlan | None = None
    partitions: tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("plan needs at least one process")
        for e in self.events:
            if not 0 <= e.pid < self.nprocs:
                raise ValueError(f"event pid {e.pid} out of range for n={self.nprocs}")
            if e.when < 0:
                raise ValueError(f"negative event time {e.when}")
        ordered = tuple(sorted(self.events, key=lambda e: (e.when, e.pid)))
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "partitions", tuple(self.partitions))
        for window in self.partitions:
            for group in window.groups:
                for pid in group:
                    if not 0 <= pid < self.nprocs:
                        raise ValueError(
                            f"partition pid {pid} out of range for n={self.nprocs}"
                        )

    # -- derived views --------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.events)

    @property
    def detectable_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.detectable)

    @property
    def undetectable_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if not e.detectable)

    @property
    def uncorrectable_events(self) -> tuple[FaultEvent, ...]:
        """Permanent-crash and Byzantine strikes (Section 7 classes):
        the run may legitimately fail-safe stop because of these."""
        return tuple(e for e in self.events if e.uncorrectable)

    @property
    def byzantine_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == "byzantine")

    @property
    def permanent_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == "crash")

    @property
    def adversarial(self) -> bool:
        """Whether the plan contains anything the protocols cannot
        recover from: uncorrectable strikes or hostile link traffic."""
        return bool(self.uncorrectable_events) or bool(
            self.link and (self.link.corruption or self.link.forge)
        )

    def with_events(self, events: Iterable[FaultEvent]) -> "FaultPlan":
        """The same plan (seed, link, nprocs) over a different event
        subset -- the shrinker's step."""
        return replace(self, events=tuple(events))

    # -- generation -----------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        nprocs: int,
        *,
        detectable: int = 0,
        undetectable: int = 0,
        byzantine: int = 0,
        permanent: int = 0,
        start: float = 1.0,
        stop: float = 30.0,
        steps: bool = False,
        link: LinkPlan | None = None,
    ) -> "FaultPlan":
        """Draw a seeded random schedule inside ``[start, stop)``.

        ``steps=True`` floors strike times to integers (the untimed
        engines' step clock).  The same arguments always produce the
        same plan.  ``byzantine``/``permanent`` draw the Section 7
        uncorrectable classes; their victims never repeat (one process
        cannot turn Byzantine twice), so they are drawn without
        replacement and clamped to ``nprocs``.
        """
        if min(detectable, undetectable, byzantine, permanent) < 0:
            raise ValueError("fault counts must be >= 0")
        from repro._pcg64 import default_rng

        rng = default_rng(seed)
        events = []
        for is_detectable, n in ((True, detectable), (False, undetectable)):
            for _ in range(n):
                when = float(rng.uniform(start, stop))
                if steps:
                    when = float(int(when))
                events.append(
                    FaultEvent(
                        when=when,
                        pid=int(rng.integers(0, nprocs)),
                        detectable=is_detectable,
                    )
                )
        taken: set[int] = set()
        for kind, is_detectable, n in (
            ("crash", True, permanent),
            ("byzantine", False, byzantine),
        ):
            # Byzantine victims exclude pid 0: the narrator reports
            # phase outcomes, and a lying narrator cannot be monitored
            # from its own narration (the checker must stay sound).
            lo = 1 if kind == "byzantine" and nprocs > 1 else 0
            avail = [p for p in range(lo, nprocs) if p not in taken]
            for _ in range(min(n, len(avail))):
                when = float(rng.uniform(start, stop))
                if steps:
                    when = float(int(when))
                pid = lo + int(rng.integers(0, nprocs - lo))
                while pid in taken:
                    pid = lo + ((pid + 1 - lo) % (nprocs - lo))
                taken.add(pid)
                events.append(
                    FaultEvent(
                        when=when,
                        pid=pid,
                        detectable=is_detectable,
                        kind=kind,
                    )
                )
        return cls(nprocs=nprocs, events=tuple(events), seed=seed, link=link)

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "version": PLAN_VERSION,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "events": [e.to_json() for e in self.events],
        }
        if self.link is not None:
            record["link"] = self.link.to_json()
        if self.partitions:
            record["partitions"] = [w.to_json() for w in self.partitions]
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "FaultPlan":
        version = record.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {version!r}")
        return cls(
            nprocs=int(record["nprocs"]),
            events=tuple(FaultEvent.from_json(e) for e in record.get("events", ())),
            seed=int(record.get("seed", 0)),
            link=(
                LinkPlan.from_json(record["link"])
                if record.get("link") is not None
                else None
            ),
            partitions=tuple(
                PartitionWindow.from_json(w)
                for w in record.get("partitions", ())
            ),
        )


@dataclass(frozen=True)
class CampaignConfig:
    """What a campaign hammers and how hard.

    ``targets`` name engine adapters (see
    :data:`repro.chaos.adapters.ADAPTERS`); ``runs`` are distributed
    over them round-robin, each with a plan derived deterministically
    from ``seed`` and the run index.  ``target_phases`` is the number of
    successful barrier phases every run must reach -- failing to reach
    it *is* a guarantee violation (masking means the protocol always
    completes).
    """

    targets: tuple[str, ...] = ("gc:cb", "gc:rb-ring", "gc:rb-tree", "gc:mb")
    runs: int = 8
    seed: int = 0
    nprocs: int = 4
    nphases: int = 3
    target_phases: int = 5
    detectable: int = 2
    undetectable: int = 0
    byzantine: int = 0
    permanent: int = 0
    window: tuple[float, float] = (1.0, 30.0)
    link: LinkPlan | None = None
    #: Engine budget: max daemon steps (untimed) / virtual time (timed).
    max_steps: int = 20_000
    max_time: float = 500.0
    shrink: bool = True

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("campaign needs at least one target")
        if self.runs < 1:
            raise ValueError("campaign needs at least one run")
        if self.window[0] < 0 or self.window[1] <= self.window[0]:
            raise ValueError(f"bad fault window {self.window}")

    def to_json(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "version": PLAN_VERSION,
            "targets": list(self.targets),
            "runs": self.runs,
            "seed": self.seed,
            "nprocs": self.nprocs,
            "nphases": self.nphases,
            "target_phases": self.target_phases,
            "detectable": self.detectable,
            "undetectable": self.undetectable,
            "window": list(self.window),
            "max_steps": self.max_steps,
            "max_time": self.max_time,
            "shrink": self.shrink,
        }
        # Emitted conditionally so pre-adversarial configs stay byte-stable.
        if self.byzantine:
            record["byzantine"] = self.byzantine
        if self.permanent:
            record["permanent"] = self.permanent
        if self.link is not None:
            record["link"] = self.link.to_json()
        return record

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "CampaignConfig":
        kwargs: dict[str, Any] = dict(record)
        kwargs.pop("version", None)
        if "targets" in kwargs:
            kwargs["targets"] = tuple(kwargs["targets"])
        if "window" in kwargs:
            kwargs["window"] = tuple(kwargs["window"])
        if kwargs.get("link") is not None:
            kwargs["link"] = LinkPlan.from_json(kwargs["link"])
        return cls(**kwargs)
