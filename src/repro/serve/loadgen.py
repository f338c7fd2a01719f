"""A seeded, replayable load generator for the barrier service.

The generator builds a complete **script** first -- every client's id,
group, role and scheduled misbehaviour drawn from one
``random.Random(seed)`` -- and only then executes it; no randomness is
consumed during execution, so the *logical* outcome of a run (who
finished, who left, who was ejected, who was refused admission, how
many rounds each group completed) is a pure function of the
configuration and seed even though frames race over real sockets.

The replay digest hashes exactly that logical slice, which is what
makes ``loadgen --seed N`` twice produce byte-identical digests (the
serve-smoke CI assertion) while wall-clock latencies vary freely.

Roles (per group, counts from :class:`LoadConfig`):

* **founders** fill the group to capacity and run every barrier round;
* **leavers** depart cleanly mid-run (remaining members must still
  complete -- the leave-mid-barrier guarantee);
* **crashers** abort without goodbye at a scripted round, then
  reconnect with a bumped incarnation and resume -- the group blocks on
  their seat until they return, so their completion count is exact;
* **slow** members sleep before arriving -- they exercise backpressure
  and stragglers without changing any logical outcome;
* **byzantine** members forge future-round arrives until the daemon
  condemns and ejects them (seat freed, group completes without them);
* **probes** attempt to join a full group and must collect a
  ``group-full`` reject.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.net.frames import encode_canonical
from repro.serve.client import ServeClient, ServeClientError, ServeTimeout
from repro.serve.protocol import ARRIVE


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation run, fully specified (and fully seeded)."""

    groups: int = 3
    clients_per_group: int = 50
    barriers: int = 20
    seed: int = 0
    leavers: int = 2            #: per group, clean mid-run departures
    crashers: int = 2           #: per group, crash-restart clients
    slow: int = 2               #: per group, delayed arrivals
    byzantine: int = 1          #: total, placed in group 0
    probes: int = 2             #: per group, join-after-full attempts
    group_prefix: str = "g"     #: group names (``g0``, ``g1``, ...)
    client_base: int = 1        #: first client id (ids are dense from it)
    slow_delay_s: float = 0.02
    reconnect_delay_s: float = 0.05
    host: str = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None
    timeout_s: float = 60.0
    resend_s: float = 0.2

    def __post_init__(self) -> None:
        if self.groups < 1 or self.clients_per_group < 1:
            raise ValueError("need at least one group and one client")
        if self.barriers < 2:
            raise ValueError("need >= 2 barriers (roles act mid-run)")
        specials = self.leavers + self.crashers + self.slow
        if specials + (self.byzantine if self.groups else 0) > (
            self.clients_per_group - 1
        ):
            raise ValueError(
                "special roles exceed clients_per_group - 1 (one plain "
                "founder must remain to anchor each group)"
            )
        if not self.group_prefix:
            raise ValueError("group_prefix must be non-empty")
        if self.client_base < 1:
            raise ValueError("client_base must be >= 1 (0 is the server)")


@dataclass
class ClientScript:
    """One client's complete scripted behaviour."""

    client_id: int
    group: str
    role: str                    #: founder | leaver | crasher | slow | byzantine | probe
    creates: bool = False
    leave_at: int | None = None
    crash_at: int | None = None
    slow_delay_s: float = 0.0


@dataclass
class LoadResult:
    """What one run produced: the logical outcomes + the timings."""

    config: LoadConfig
    outcomes: list[dict[str, Any]] = field(default_factory=list)
    #: Client-side arrive->release wall seconds, all members, all rounds.
    latencies: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical logical outcome (replay-stable).

        Group names and client ids are normalised (the configured
        prefix is stripped, ``client_base`` is subtracted), so a soak
        can run many waves against one long-lived daemon under unique
        prefixes and id ranges and still compare a late replay's digest
        against an early wave's.
        """
        prefix = self.config.group_prefix
        base = self.config.client_base
        normalised = [
            {
                **o,
                "group": o["group"].removeprefix(prefix),
                "client": o["client"] - base,
            }
            for o in self.outcomes
        ]
        slice_ = {
            "groups": self.config.groups,
            "clients_per_group": self.config.clients_per_group,
            "barriers": self.config.barriers,
            "seed": self.config.seed,
            "outcomes": sorted(normalised, key=lambda o: o["client"]),
        }
        return hashlib.sha256(encode_canonical(slice_).encode()).hexdigest()

    def quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
        idx = min(int(q * len(data)), len(data) - 1)
        return data[idx]

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "clients": len(self.outcomes),
            "errors": self.errors,
            "wall_s": self.wall_s,
            "rounds_measured": len(self.latencies),
            "latency_p50_s": self.quantile(0.50),
            "latency_p99_s": self.quantile(0.99),
            "outcome_counts": self._counts(),
        }

    def _counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome["outcome"]] = counts.get(outcome["outcome"], 0) + 1
        return counts


def build_scripts(config: LoadConfig) -> list[ClientScript]:
    """The seeded plan: every client's role and schedule, up front."""
    rng = random.Random(config.seed)
    scripts: list[ClientScript] = []
    n = config.clients_per_group
    for g in range(config.groups):
        group = f"{config.group_prefix}{g}"
        base = config.client_base + g * n
        members = list(range(base, base + n))
        # Index 0 anchors the group: it creates and never misbehaves.
        pool = members[1:]
        rng.shuffle(pool)
        take = lambda k, pool=pool: [pool.pop() for _ in range(k)]  # noqa: E731
        byz = take(config.byzantine if g == 0 else 0)
        leavers = take(config.leavers)
        crashers = take(config.crashers)
        slow = take(config.slow)
        for cid in members:
            script = ClientScript(client_id=cid, group=group, role="founder")
            script.creates = cid == base
            if cid in byz:
                script.role = "byzantine"
            elif cid in leavers:
                script.role = "leaver"
                script.leave_at = rng.randrange(1, config.barriers)
            elif cid in crashers:
                script.role = "crasher"
                script.crash_at = rng.randrange(1, config.barriers)
            elif cid in slow:
                script.role = "slow"
                script.slow_delay_s = config.slow_delay_s * rng.uniform(
                    0.5, 1.5
                )
            scripts.append(script)
    probe_base = config.client_base + config.groups * n
    for g in range(config.groups):
        for j in range(config.probes):
            scripts.append(
                ClientScript(
                    client_id=probe_base + g * config.probes + j,
                    group=f"{config.group_prefix}{g}",
                    role="probe",
                )
            )
    return scripts


async def run_load(config: LoadConfig) -> LoadResult:
    """Execute the scripted run against a live daemon."""
    scripts = build_scripts(config)
    result = LoadResult(config=config)
    started = time.monotonic()
    gate = asyncio.Event()

    members = [s for s in scripts if s.role != "probe"]
    probes = [s for s in scripts if s.role == "probe"]

    def _client(script: ClientScript) -> ServeClient:
        return ServeClient(
            script.client_id,
            host=config.host,
            port=config.port,
            unix_path=config.unix_path,
            resend_s=config.resend_s,
            timeout_s=config.timeout_s,
        )

    async def _admit(script: ClientScript) -> tuple[ClientScript, ServeClient]:
        client = _client(script)
        await client.connect()
        if script.creates:
            await client.create(
                script.group,
                capacity=config.clients_per_group,
                barriers=config.barriers,
            )
        return script, client

    # Phase 1: creators first (the group must exist before any join),
    # then every member joins; admission outcomes settle before probes.
    creators = [s for s in members if s.creates]
    others = [s for s in members if not s.creates]
    admitted: dict[int, tuple[ClientScript, ServeClient]] = {}
    for batch in (creators, others):
        pairs = await asyncio.gather(*(_admit(s) for s in batch))
        for script, client in pairs:
            await client.join(script.group)
            admitted[script.client_id] = (script, client)

    # Phase 2: probes hit full groups; every one must be refused.
    async def _probe(script: ClientScript) -> None:
        client = _client(script)
        await client.connect()
        try:
            await client.join(script.group)
            result.errors.append(
                f"probe {script.client_id} was admitted to {script.group}"
            )
            outcome = "admitted"
        except ServeClientError as exc:
            outcome = "rejected" if exc.reason == "group-full" else exc.reason
        finally:
            await client.close()
        result.outcomes.append(
            {
                "client": script.client_id,
                "group": script.group,
                "role": script.role,
                "outcome": outcome,
                "incarnation": 0,
            }
        )

    await asyncio.gather(*(_probe(s) for s in probes))

    # Phase 3: the barrier run proper.
    gate.set()

    async def _run_member(script: ClientScript, client: ServeClient) -> None:
        outcome = "finished"
        completed = 0
        try:
            if script.role == "byzantine":
                outcome = await _run_byzantine(script, client)
            else:
                r = 0
                while r < config.barriers:
                    if script.leave_at == r:
                        await client.leave(script.group)
                        outcome = "left"
                        break
                    if script.crash_at == r and client.incarnation == 0:
                        await client.crash()
                        await asyncio.sleep(config.reconnect_delay_s)
                        await client.connect()
                        reply = await client.join(script.group)
                        r = int(reply.get("round", r))
                        continue
                    if script.slow_delay_s:
                        await asyncio.sleep(script.slow_delay_s)
                    t0 = time.monotonic()
                    status = await client.arrive(script.group, r)
                    if status == "ejected":
                        outcome = "ejected"
                        break
                    result.latencies.append(time.monotonic() - t0)
                    completed += 1
                    r += 1
        except (ServeClientError, ServeTimeout, OSError) as exc:
            outcome = "error"
            result.errors.append(f"client {script.client_id}: {exc}")
        finally:
            await client.close()
        record = {
            "client": script.client_id,
            "group": script.group,
            "role": script.role,
            "outcome": outcome,
            "incarnation": client.incarnation,
        }
        if script.role == "leaver":
            record["left_at"] = script.leave_at
        result.outcomes.append(record)

    async def _run_byzantine(script: ClientScript, client: ServeClient) -> str:
        # Three forged future-round arrives: each is provably hostile
        # (an honest client cannot outrun its own release), so the
        # third draws condemnation and ejection.
        for i in range(3):
            client.send_raw(
                ARRIVE,
                {"g": script.group, "round": 10_000 + i, "rid": 0},
            )
        deadline = time.monotonic() + config.timeout_s
        while time.monotonic() < deadline:
            status = await client.wait_ejected(script.group, timeout=0.2)
            if status:
                return "ejected"
            if not client.connected:
                return "ejected"  # the daemon hung up on the condemned
        return "byzantine-timeout"

    await asyncio.gather(
        *(_run_member(s, c) for s, c in admitted.values())
    )
    result.wall_s = time.monotonic() - started
    return result
