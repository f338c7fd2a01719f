"""The sharded runtime: process-per-shard event loops at 1000+ nodes.

One asyncio loop runs every node's handlers, timers and queues on one
thread, so a round's latency grows linearly with N.  Measured
fault-free on a 2-core x86 VM (CPython 3.11, arity 2, memory queues,
default :class:`~repro.net.node.Timing`): 8 nodes turn a round in ~2 ms
and send exactly the protocol's 3(n-1) frames; at 256 nodes a round
takes ~75 ms, longer than the 40 ms resend timer, so senders
re-announce frames that are merely late (10 rounds: 9 322 protocol
frames for a 7 650-frame budget -- 658 resends plus the replies they
draw).  That waste is bounded -- every sender still retires with its
round -- but it is work one thread cannot shed.  :func:`run_sharded`
splits the node set across ``config.shards`` worker processes -- each
running its *own* event loop over the existing, unchanged node classes
-- so each loop carries N/shards nodes and the other cores do protocol
work (``benchmarks/bench_net.py`` gates 256 nodes on 8 shards against
one loop, under a resend timer neither side crosses).

Topology-aware partitioning (:func:`partition_nodes`) keeps protocol
edges inside shards: the tree protocol is cut at the shallowest heap
level with at least ``shards`` subtree roots (whole subtrees stay
together and sibling roots are split only for the shards that would
otherwise sit empty, so only O(shards) edges cross), the ring is cut into
contiguous arcs (exactly ``shards`` cross edges).  In-shard traffic
goes straight into the destination's inbox, as in the single-loop
runtime's :class:`~repro.net.transport.MemTransport`.  Cross-shard
traffic rides the one socket link the single-loop runtime has too: each
worker's :class:`ShardFabric` is a
:class:`~repro.net.transport.TcpTransport` (Unix-domain or TCP) whose
node ids are shard ids and whose frames are *routing records*
(``(src, dst)`` header + frame body, :func:`~repro.net.frames.pack_record`).
So a wave of hundreds of messages leaves in one write per peer shard
per loop turn (or per 64 KiB), a peer that stops reading holds its
senders back, and a record is delivered only if its source lives on
the shard that the link's HELLO named.

This module owns *where* nodes run -- partitioning, the cross-shard
fabric, and process hosting: each worker is a direct child running
:data:`_BOOTSTRAP`, its own small program, over one inherited socketpair
(``sys.path`` and :class:`ShardSpec` in, ``address`` -> ``go`` ->
``result`` | ``error`` across); DESIGN.md, "net: shard worker boot".
What a run *is* stays in :mod:`repro.net.runtime`: each worker runs its
share of the nodes through the runtime's ``_run_group`` and the
coordinator folds the shipped reports with its ``_assemble``, exactly
as the single-loop path does for its one group.  So every existing
guarantee survives sharding:

* **Replay determinism** -- :class:`~repro.net.faults.FaultyTransport`
  decisions are pure hashes of ``(seed, channel, message identity,
  attempt)`` made on the *sender's* wrapper, so the same plan yields
  the same drops/dups/delays no matter which loop the sender runs in.
  Two sharded runs with one seed, and a sharded vs a single-loop run,
  produce identical trace digests (gated by test and CI).
* **Telemetry** -- each worker traces every node into a flight
  recorder (a ``Tracer`` ring; the runtime's ``_tracers`` picks it) and
  ships the O(rounds) protocol events the ring keeps whole back over
  its control channel; merge, digest and the PR-4 guarantee monitors
  then run on them as on any other streams (event times are Lamport
  stamps, so cross-process merge order is exact, not
  wall-clock-approximate).
* **Config surface** -- ``NetConfig(shards=..., shard_transport=...)``
  and :func:`~repro.net.runtime.run_sync` dispatches here
  transparently.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time as _time
import traceback
from dataclasses import dataclass
from itertools import groupby
from typing import Any

from repro.net.frames import FrameError, pack_record, unpack_record
from repro.net.transport import (
    MemTransport,
    TcpTransport,
    TransportClosed,
    have_af_unix,
)

#: Seconds the coordinator grants workers on top of ``timeout_s`` for
#: interpreter start-up, imports and result shipping.
STARTUP_GRACE = 30.0


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def partition_nodes(
    nodes: int, shards: int, protocol: str = "tree", arity: int = 2
) -> list[int]:
    """Map every pid to a shard, keeping protocol edges local.

    Tree: contiguous pid blocks would put almost *every* heap edge
    (parent of ``p`` is ``(p-1)//arity``) across shards, so instead the
    tree is cut at the shallowest level with >= ``shards`` subtree
    roots.  That level's sibling groups (one per depth-``d-1`` subtree,
    always fewer than ``shards``) each go whole to a shard of their
    own; the shards left over are handed out one at a time to the group
    with the most roots per shard, and only a group holding several
    shards is split, into contiguous runs.  Every deeper pid inherits
    its depth-``d`` ancestor's shard and every shallower pid follows
    its leftmost descendant, which keeps each parent--leftmost-child
    edge local: at most ``arity/2`` edges cross per left-over shard,
    plus the few above the cut -- O(shards), never O(nodes).

    Ring (mb): contiguous arcs, exactly ``shards`` cross edges.
    """
    if shards <= 1:
        return [0] * nodes
    shards = min(shards, nodes)
    if protocol != "tree":
        return [pid * shards // nodes for pid in range(nodes)]

    # Smallest heap level whose *existing* population covers the shards.
    base, width = 0, 1
    while True:
        existing = max(0, min(nodes, base + width) - base)
        if existing >= shards:
            break
        if base + width >= nodes:
            # Ragged tiny tree: no level is wide enough; arcs are fine.
            return [pid * shards // nodes for pid in range(nodes)]
        base += width
        width = width * arity if arity > 1 else 1
    roots = list(range(base, min(base + width, nodes)))
    siblings = [list(g) for _, g in groupby(roots, key=lambda r: (r - 1) // arity)]
    held = [1] * len(siblings)  # shards per group; never more than its roots
    for _ in range(shards - len(siblings)):
        g = max(range(len(siblings)), key=lambda i: len(siblings[i]) / held[i])
        held[g] += 1
    root_shard: dict[int, int] = {}
    first = 0
    for group, k in zip(siblings, held):
        for j, r in enumerate(group):
            root_shard[r] = first + j * k // len(group)
        first += k

    def anchor(pid: int) -> int:
        p = pid
        while p >= base + width:  # below the cut: climb to the ancestor
            p = (p - 1) // arity if arity > 1 else p - 1
        while p < base:  # above the cut: follow the leftmost child chain
            p = arity * p + 1 if arity > 1 else p + 1
        return p if p in root_shard else roots[-1]

    return [root_shard[anchor(pid)] for pid in range(nodes)]


def cross_edges(partition: list[int], protocol: str, arity: int = 2) -> int:
    """Count protocol edges whose endpoints land on different shards."""
    n = len(partition)
    crossing = 0
    if protocol == "tree":
        for pid in range(1, n):
            parent = (pid - 1) // arity if arity > 1 else pid - 1
            if partition[pid] != partition[parent]:
                crossing += 1
    else:
        for pid in range(n):
            if partition[pid] != partition[(pid + 1) % n]:
                crossing += 1
    return crossing


# ----------------------------------------------------------------------
# Worker-side fabric
# ----------------------------------------------------------------------
class ShardFabric(TcpTransport):
    """One worker's switch: the hub of its nodes' ports, and its end of
    the cross-shard wire.

    As a :class:`~repro.net.transport.TcpTransport` its node id is the
    shard id and its frames are routing records
    (:func:`~repro.net.frames.pack_record`): a record to a peer shard
    leaves on that shard's link with the rest of the loop turn's burst,
    and :meth:`deliver` hands each record that arrives to the local
    node it names.  ``nprocs`` is the run's node count, which the hub
    of :class:`ShardTransport` ports needs; a HELLO is only trusted as
    far as :meth:`deliver` checks.
    """

    def __init__(
        self, shard_id: int, partition: list[int], unix_path: str | None
    ) -> None:
        super().__init__(shard_id, len(partition), unix_path=unix_path)
        self.partition = partition
        self.local_pids = [
            pid for pid, shard in enumerate(partition) if shard == shard_id
        ]
        self.ports = {pid: ShardTransport(pid, self) for pid in self.local_pids}

    def deliver(self, shard: int, record: bytes) -> None:
        """Route a record from peer ``shard`` to its local node.  A record
        is authentic only if its source lives on the shard the link's
        HELLO named and its destination here; anything else raises
        :class:`~repro.net.frames.FrameError`, which drops the link."""
        src, dst, body = unpack_record(record)
        port = self.ports.get(dst)
        peer = shard != self.node_id and src < self.nprocs
        if port is None or not peer or self.partition[src] != shard:
            raise FrameError(f"record {src}->{dst} is not shard {shard}'s to send")
        port.deliver(src, body)


class ShardTransport(MemTransport):
    """One node's port on a :class:`ShardFabric`: receive, drain, close
    and in-shard sends are :class:`~repro.net.transport.MemTransport`'s
    own (the fabric is its hub); a send to another shard becomes a
    routing record on the fabric's link to that shard."""

    async def send(self, dst: int, body: bytes) -> None:
        fabric = self._hub
        if not 0 <= dst < self.nprocs or fabric.partition[dst] == fabric.node_id:
            return await super().send(dst, body)
        if self._closed:
            raise TransportClosed(f"node {self.node_id}: transport closed")
        await fabric.send(fabric.partition[dst], pack_record(self.node_id, dst, body))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs, picklable: it crosses the control
    channel as the worker's second message."""

    shard_id: int
    partition: tuple[int, ...]
    config: Any  # NetConfig (picklable once tracer_factory is None)
    unix_path: str | None


#: The whole program of a worker process (``python -c``), whoever the
#: coordinator's ``__main__`` is.  It imports nothing of ``repro`` before
#: the coordinator's ``sys.path`` is installed (a launcher may have put
#: ``src/`` there in-process), and prints nothing (fd 1 is inherited and
#: may be the launcher's data channel).  ``-c`` rather than ``-m
#: repro.net.shard``: run as ``__main__`` this module would be loaded a
#: second time to unpickle :class:`ShardSpec`.
_BOOTSTRAP = """\
import sys, multiprocessing.connection
conn = multiprocessing.connection.Connection(int(sys.argv[1]))
sys.path[:] = conn.recv()
from repro.net.shard import _worker_main
_worker_main(conn.recv(), conn)
"""


def _worker_main(spec: ShardSpec, conn: Any) -> None:
    """What :data:`_BOOTSTRAP` runs: the shard, then ``result`` or
    ``error`` to the coordinator.  Any failure -- the coordinator having
    gone away included -- ends the process with a non-zero status."""
    try:
        payload = asyncio.run(_worker_async(spec, conn))
        conn.send(("result", payload))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass  # nobody left to tell
        sys.exit(1)
    finally:
        conn.close()


async def _worker_async(spec: ShardSpec, conn: Any) -> dict[str, Any]:
    from repro.net.runtime import _run_group, _streams, _tracers

    config = spec.config
    fabric = ShardFabric(spec.shard_id, list(spec.partition), spec.unix_path)
    address = await fabric.start()
    conn.send(("address", spec.shard_id, address))
    # Blocking recv is safe here: no protocol task runs yet, and peers
    # only dial after everyone has the address map.
    op, addresses, epoch = conn.recv()
    if op != "go":
        raise RuntimeError(f"unexpected coordinator message {op!r}")
    fabric.set_addresses(addresses)

    tracers = _tracers(config, fabric.local_pids)

    # "go" was the coordinator's last word, so the channel turning
    # readable now is its end closing: stop instead of running on with
    # nobody to report to (no ``daemon=True`` does this for us).
    loop, task = asyncio.get_running_loop(), asyncio.current_task()

    def coordinator_gone() -> None:
        loop.remove_reader(conn.fileno())
        task.cancel()

    loop.add_reader(conn.fileno(), coordinator_gone)
    try:
        # Epoch-relative wall clock: one timeline for partition windows
        # across every worker (sub-ms skew; windows are seconds-wide).
        report = await _run_group(
            config, fabric.ports, lambda: _time.time() - epoch, tracers
        )
    finally:
        loop.remove_reader(conn.fileno())
        await fabric.close()
    report["link_stats"] = {
        "xshard_records": fabric.frames_out,
        "xshard_flushes": fabric.writes,
        "xshard_bytes": fabric.bytes_out,
        **report["link_stats"],
    }

    # The O(rounds) protocol events are all the coordinator needs to
    # merge, digest and monitor; a ring (live, or for a snapshot) stays here.
    return {"report": report, "events": _streams(tracers)}


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """The coordinator's handle on one shard: the child process and its
    end of the control channel."""

    shard_id: int
    proc: subprocess.Popen
    conn: Any  # multiprocessing.connection.Connection over a socketpair
    launched: float  # perf_counter at Popen


def _launch(shard_id: int) -> _Worker:
    """Start one worker as a direct child running :data:`_BOOTSTRAP`.

    The child inherits exactly one descriptor beyond stdout/stderr --
    its end of a fresh socketpair, closed here at once, so its death
    reads as EOF and no worker holds a sibling's channel open -- and the
    coordinator's interpreter flags (``-O``, ``-W``, ``-X``, ``-I``...).
    ``Connection`` is borrowed as a framing class only: pickling,
    ``poll`` and payloads of any size (a full-mode protocol log outgrows
    :data:`~repro.net.frames.MAX_FRAME`) over a plain descriptor.
    """
    from multiprocessing.connection import Connection

    ours, theirs = socket.socketpair()
    with ours, theirs:
        launched = _time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable,
                *subprocess._args_from_interpreter_flags(),
                "-c",
                _BOOTSTRAP,
                str(theirs.fileno()),
            ],
            pass_fds=[theirs.fileno()],
            stdin=subprocess.DEVNULL,
        )
        return _Worker(shard_id, proc, Connection(ours.detach()), launched)


def run_sharded(config: Any) -> Any:
    """Run ``config`` across ``config.shards`` worker processes.

    Blocking, like :func:`~repro.net.runtime.run_sync` (which dispatches
    here when ``shards > 1``).  The coordinator launches one fresh worker
    per shard, brokers the link-address handshake, collects each shard's
    group report and protocol events, and hands them to the runtime's
    ``_assemble`` -- the same fold that finishes a single-loop run.  No
    worker, and no helper process, outlives the call on any path.
    """
    from repro.net.runtime import _assemble

    shards = min(config.shards, config.nodes)
    partition = partition_nodes(config.nodes, shards, config.protocol, config.arity)
    if config.shard_transport == "unix" and not have_af_unix():
        raise RuntimeError("shard_transport='unix' but this platform lacks AF_UNIX")
    use_unix = config.shard_transport == "unix" or (
        config.shard_transport == "auto" and have_af_unix()
    )

    wall_start = _time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="shard-") as sockdir:
        workers: list[_Worker] = []
        try:
            for shard_id in range(shards):
                spec = ShardSpec(
                    shard_id=shard_id,
                    partition=tuple(partition),
                    config=config,
                    unix_path=os.path.join(sockdir, f"shard-{shard_id}.sock")
                    if use_unix
                    else None,
                )
                workers.append(_launch(shard_id))
                _pipe_send(workers[-1], sys.path)
                _pipe_send(workers[-1], spec)

            deadline = _time.monotonic() + STARTUP_GRACE
            addresses: dict[int, str] = {}
            boot_walls = [0.0] * shards
            pending = list(workers)
            while pending:
                worker, msg = _pipe_recv(pending, deadline, "address handshake")
                boot_walls[worker.shard_id] = _time.perf_counter() - worker.launched
                addresses[worker.shard_id] = msg[2]

            epoch = _time.time()
            for worker in workers:
                _pipe_send(worker, ("go", addresses, epoch))

            # The run clock starts at "go": grant the workers their
            # protocol deadline plus shipping slack from here.  Slack is
            # generous because a worker that hits its own timeout still
            # has to cancel nodes, drain queues and pickle results.
            deadline = (
                _time.monotonic()
                + config.timeout_s
                + max(STARTUP_GRACE, config.timeout_s)
            )
            payloads: list[Any] = [None] * shards
            pending = list(workers)
            while pending:
                worker, msg = _pipe_recv(pending, deadline, "shard result")
                payloads[worker.shard_id] = msg[1]
        finally:
            # Closing the channels is what tells a worker still running
            # that it is on its own; every child is then reaped, so none
            # is left a zombie and RUSAGE_CHILDREN describes the run.
            for worker in workers:
                worker.conn.close()
            for worker in workers:
                try:
                    worker.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.proc.terminate()
                    worker.proc.wait()
    wall_total = _time.perf_counter() - wall_start

    events: dict[int, list] = {}
    for payload in payloads:
        events.update(payload["events"])
    reports = [payload["report"] for payload in payloads]
    result = _assemble(config, reports, events)
    # ``result.wall_s`` is the slowest shard's run phase; what launching,
    # importing and shipping cost on top is visible here, and how much of
    # it is a worker's boot (Popen -> its ``address``) in ``boot_walls``.
    result.metrics_summary["shards"] = {
        "count": shards,
        "transport": "unix" if use_unix else "tcp",
        "partition_cross_edges": cross_edges(partition, config.protocol, config.arity),
        "shard_walls": [report["wall_s"] for report in reports],
        "boot_walls": boot_walls,
        "coordinator_wall_s": wall_total,
    }
    return result


def _pipe_send(worker: _Worker, obj: Any) -> None:
    """Send ``obj`` to ``worker``.  One that is already dead is left to
    the :func:`_pipe_recv` that follows, which says who died and how."""
    try:
        worker.conn.send(obj)
    except ConnectionError:
        pass


def _pipe_recv(pending: list[_Worker], deadline: float, what: str) -> tuple[_Worker, Any]:
    """Receive the next message from any of ``pending`` before
    ``deadline`` (monotonic) and take its sender off the list.

    Any, not each in turn: a dead worker is reported when it dies, not
    after its siblings have waited out their timeouts for it.  A worker's
    ``error`` message is raised here with its traceback.
    """
    from multiprocessing.connection import wait

    ready = wait(
        [worker.conn for worker in pending], max(0.0, deadline - _time.monotonic())
    )
    if not ready:
        waiting = ", ".join(str(worker.shard_id) for worker in pending)
        raise TimeoutError(f"timed out waiting for {what} from shard {waiting}")
    worker = next(worker for worker in pending if worker.conn is ready[0])
    try:
        msg = worker.conn.recv()
    except (EOFError, ConnectionError) as exc:
        raise RuntimeError(
            f"shard {worker.shard_id} worker {_exit_status(worker.proc)} "
            f"before sending {what}"
        ) from exc
    if msg[0] == "error":
        raise RuntimeError(f"shard {worker.shard_id} worker failed:\n{msg[1]}")
    pending.remove(worker)
    return worker, msg


def _exit_status(proc: subprocess.Popen) -> str:
    """How a worker whose channel hit EOF ended, for the error message."""
    try:
        status = proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        return "closed its control channel"
    if status >= 0:
        return f"exited with status {status}"
    try:
        name = signal.Signals(-status).name
    except ValueError:
        name = "unknown signal"
    return f"exited with status {status} ({name})"
