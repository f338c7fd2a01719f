"""The sharded runtime: process-per-shard event loops at 1000+ nodes.

One asyncio loop runs every node's handlers, timers and queues on one
thread, so a round's latency grows linearly with N.  Measured
fault-free on the 2-core build box (arity 2, memory queues, default
:class:`~repro.net.node.Timing`): 8 nodes turn a round in ~3 ms and
send exactly the protocol's 3(n-1) frames; at 256 nodes a round takes
~140 ms, honestly longer than the 40 ms resend timer, so senders
re-announce frames that are merely late (10 rounds: 12 498 protocol
frames for a 7 650-frame budget -- 2 690 resends plus the replies they
draw).  That waste is bounded -- every sender still retires with its
round and the run completes in 1.4 s -- but it is work one thread
cannot shed.  :func:`run_sharded` splits the node set across
``config.shards`` worker processes -- each running its *own* event loop
over the existing, unchanged node classes -- so each loop carries
N/shards nodes and the other cores do protocol work (256 nodes x 20
rounds under ``bench_net.SCALE_TIMING``, whose 0.4 s timer neither side
crosses: both send the 15 300-frame budget with 0 resends; 8 shards
turn a round in ~50 ms, one loop over Unix sockets in 100-190 ms).

Topology-aware partitioning (:func:`partition_nodes`) keeps protocol
edges inside shards: the tree protocol is cut at the shallowest heap
level with at least ``shards`` subtree roots (whole subtrees stay
together and sibling roots are split only for the shards that would
otherwise sit empty, so only O(shards) edges cross), the ring is cut into
contiguous arcs (exactly ``shards`` cross edges).  In-shard traffic
goes straight into the destination's inbox, as in the single-loop
runtime's :class:`~repro.net.transport.MemTransport`; cross-shard traffic rides one
:class:`ShardLink` per shard pair -- a Unix-domain (or TCP) socket
carrying length-prefixed *routing records* (``(src, dst)`` header +
frame body, :func:`~repro.net.frames.pack_record`).  Links batch: a
record appends to a per-link buffer that flushes on a size boundary
(``config.batch_bytes``) or at the end of the current event-loop turn,
so a wave of hundreds of messages leaves in a handful of syscalls.

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
* **Telemetry** -- each worker runs a
  :class:`~repro.obs.recorder.FlightRecorder` per node with
  ``protocol_log=True`` and ships the O(rounds) protocol events back
  over its control channel; merge, digest and the PR-4 guarantee monitors
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
from typing import Any, Mapping

from repro.net.frames import FrameDecoder, append_frame, pack_record, unpack_record
from repro.net.transport import (
    MemTransport,
    TransportClosed,
    have_af_unix,
    open_address,
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
class ShardLink:
    """One batched byte pipe to a peer shard.

    ``send_record`` appends a length-prefixed routing record to the
    link buffer; the buffer flushes when it crosses ``batch_bytes`` or
    -- via ``loop.call_soon`` -- at the end of the current event-loop
    turn, whichever comes first.  Many protocol messages therefore
    share each ``write`` syscall, which is what amortizes the wire
    cost of cutting the topology.
    """

    def __init__(self, address: str, batch_bytes: int) -> None:
        self.address = address
        self.batch_bytes = max(1, batch_bytes)
        self._writer: asyncio.StreamWriter | None = None
        self._buffer = bytearray()
        self._flush_scheduled = False
        self._dial_lock = asyncio.Lock()
        self._closed = False
        self.stats = {"records": 0, "flushes": 0, "bytes": 0}

    async def _ensure_writer(self) -> asyncio.StreamWriter:
        if self._writer is not None and not self._writer.is_closing():
            return self._writer
        async with self._dial_lock:
            if self._writer is None or self._writer.is_closing():
                _reader, self._writer = await open_address(self.address)
            return self._writer

    async def send_record(self, record: bytes) -> None:
        if self._closed:
            return
        try:
            await self._ensure_writer()
        except (ConnectionError, OSError):
            return  # peer shard is tearing down; resends will retry
        append_frame(self._buffer, record)
        self.stats["records"] += 1
        if len(self._buffer) >= self.batch_bytes:
            self._flush()
            if self._writer is not None:
                try:
                    await self._writer.drain()  # backpressure on bursts
                except (ConnectionError, OSError):
                    pass
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._turn_flush)

    def _turn_flush(self) -> None:
        self._flush_scheduled = False
        self._flush()

    def _flush(self) -> None:
        if not self._buffer or self._writer is None or self._writer.is_closing():
            return
        payload = bytes(self._buffer)
        self._buffer.clear()
        try:
            self._writer.write(payload)
        except (ConnectionError, OSError):
            return
        self.stats["flushes"] += 1
        self.stats["bytes"] += len(payload)

    async def close(self) -> None:
        self._closed = True
        self._flush()
        if self._writer is not None:
            try:
                self._writer.close()
            except (ConnectionError, OSError):
                pass
            self._writer = None


class ShardFabric:
    """One worker's switch: local ports + links + the link listener.

    Routing is record-addressed -- every cross-shard frame carries its
    ``(src, dst)`` header -- so the listener needs no HELLO handshake:
    any peer's batched stream demultiplexes straight into the local
    nodes' inboxes.
    """

    def __init__(
        self,
        shard_id: int,
        partition: list[int],
        batch_bytes: int,
        unix_path: str | None,
    ) -> None:
        self.shard_id = shard_id
        self.partition = partition
        #: With :attr:`ports`, the hub interface of
        #: :class:`~repro.net.transport.MemTransport`.
        self.nprocs = len(partition)
        self.batch_bytes = batch_bytes
        self.unix_path = unix_path
        self.local_pids = [
            pid for pid, shard in enumerate(partition) if shard == shard_id
        ]
        self.ports = {pid: ShardTransport(pid, self) for pid in self.local_pids}
        self.links: dict[int, ShardLink] = {}
        self.address: str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._reader_tasks: set[asyncio.Task] = set()
        self._closed = False

    # -- listener ------------------------------------------------------
    async def start(self) -> str:
        """Bind this shard's link listener; returns its address."""
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, self.unix_path
            )
            self.address = f"unix://{self.unix_path}"
        else:
            self._server = await asyncio.start_server(
                self._on_connection, "127.0.0.1", 0
            )
            port = self._server.sockets[0].getsockname()[1]
            self.address = f"tcp://127.0.0.1:{port}"
        return self.address

    def connect(self, addresses: Mapping[int, str]) -> None:
        """Learn the peer shards' listener addresses (links dial lazily)."""
        for shard, address in addresses.items():
            if shard != self.shard_id:
                self.links[shard] = ShardLink(address, self.batch_bytes)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        decoder = FrameDecoder()
        try:
            while not self._closed:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    src, dst, body = unpack_record(frame)
                    port = self.ports.get(dst)
                    if port is not None:  # else: stale route, drop
                        port.deliver(src, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self.links.values():
            await link.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = list(self._reader_tasks)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    def link_stats(self) -> dict[str, int]:
        totals = {"xshard_records": 0, "xshard_flushes": 0, "xshard_bytes": 0}
        for link in self.links.values():
            totals["xshard_records"] += link.stats["records"]
            totals["xshard_flushes"] += link.stats["flushes"]
            totals["xshard_bytes"] += link.stats["bytes"]
        return totals


class ShardTransport(MemTransport):
    """One node's port on a :class:`ShardFabric`: receive, drain, close
    and in-shard sends are :class:`~repro.net.transport.MemTransport`'s
    own (the fabric is its hub); a send to another shard becomes a
    routing record on that shard's link."""

    async def send(self, dst: int, body: bytes) -> None:
        fabric = self._hub
        if not 0 <= dst < self.nprocs or fabric.partition[dst] == fabric.shard_id:
            return await super().send(dst, body)
        if self._closed:
            raise TransportClosed(f"node {self.node_id}: transport closed")
        link = fabric.links.get(fabric.partition[dst])
        if link is not None:
            await link.send_record(pack_record(self.node_id, dst, body))


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
    from repro.net.runtime import _run_group

    config = spec.config
    fabric = ShardFabric(
        spec.shard_id, list(spec.partition), config.batch_bytes, spec.unix_path
    )
    address = await fabric.start()
    conn.send(("address", spec.shard_id, address))
    # Blocking recv is safe here: no protocol task runs yet, and peers
    # only dial after everyone has the address map.
    op, addresses, epoch = conn.recv()
    if op != "go":
        raise RuntimeError(f"unexpected coordinator message {op!r}")
    fabric.connect(addresses)

    tracers: dict[int, Any]
    if config.tracing:
        from repro.obs.recorder import FlightRecorder

        capacity = config.ring_capacity if config.live_mode else 65536
        tracers = {
            pid: FlightRecorder(capacity=capacity, pid=pid, protocol_log=True)
            for pid in fabric.local_pids
        }
    else:
        from repro.obs.tracer import NullTracer

        tracers = {pid: NullTracer() for pid in fabric.local_pids}

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
    report["link_stats"] = {**fabric.link_stats(), **report["link_stats"]}

    # The O(rounds) protocol log is all the coordinator needs to merge,
    # digest and monitor; the message-level rings stay here.
    events: dict[int, list] = {}
    rings: dict[str, dict[str, int]] = {}
    if config.tracing:
        for pid, tracer in tracers.items():
            events[pid] = tracer.protocol_events
            rings[str(pid)] = {"appended": tracer.appended, "dropped": tracer.dropped}
    return {"report": report, "events": events, "rings": rings}


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
    rings: dict[str, dict[str, int]] = {}
    for payload in payloads:
        events.update(payload["events"])
        rings.update(payload["rings"])
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
    if rings:
        result.metrics_summary["rings"] = rings
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
