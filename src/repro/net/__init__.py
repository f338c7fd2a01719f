"""repro.net -- the asyncio message-passing runtime.

The deployment tier of the repo: the tree-barrier and MB protocols as
real message protocols over length-prefixed JSON frames, running as N
asyncio tasks (one per node) over an in-memory, TCP or Unix-socket
transport, with transport-level fault injection driven by the same
:class:`~repro.chaos.plan.FaultPlan` schema the simulated engines use.
``NetConfig(shards=...)`` scales past one event loop: the node set is
partitioned across worker processes with batched cross-shard links
(:mod:`repro.net.shard`).  See ``API.md`` ("repro.net") for the frame
format and the guarantees.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.faults import MAX_DROP_ATTEMPTS, FaultyTransport
    from repro.net.frames import (
        DedupIndex,
        FrameDecoder,
        FrameError,
        LamportClock,
        Message,
        append_frame,
        encode_canonical,
        encode_frame,
        frame_digest,
        pack_record,
        unpack_record,
    )
    from repro.net.mbnode import MBRingNode
    from repro.net.node import NetNode, Timing
    from repro.net.runtime import (
        PROTOCOLS,
        SHARD_TRANSPORTS,
        TRANSPORTS,
        NetConfig,
        NetResult,
        run_async,
        run_sync,
    )
    from repro.net.shard import (
        ShardFabric,
        ShardTransport,
        cross_edges,
        partition_nodes,
        run_sharded,
    )
    from repro.net.trace import (
        PROTOCOL_KINDS,
        check_merged,
        merge_traces,
        monitor_stream,
        trace_digest,
    )
    from repro.net.transport import (
        MemHub,
        MemTransport,
        TcpTransport,
        Transport,
        TransportClosed,
        create_mem_transports,
        create_tcp_transports,
        have_af_unix,
        normalize_address,
    )
    from repro.net.tree import TreeBarrierNode, tree_children, tree_parent

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faults": ("MAX_DROP_ATTEMPTS", "FaultyTransport"),
        "frames": (
            "DedupIndex", "FrameDecoder", "FrameError", "LamportClock", "Message",
            "append_frame", "encode_canonical", "encode_frame", "frame_digest",
            "pack_record", "unpack_record",
        ),
        "mbnode": ("MBRingNode",),
        "node": ("NetNode", "Timing"),
        "runtime": (
            "PROTOCOLS", "SHARD_TRANSPORTS", "TRANSPORTS", "NetConfig", "NetResult",
            "run_async", "run_sync",
        ),
        "shard": (
            "ShardFabric", "ShardTransport",
            "cross_edges", "partition_nodes", "run_sharded",
        ),
        "trace": (
            "PROTOCOL_KINDS", "check_merged", "merge_traces", "monitor_stream",
            "trace_digest",
        ),
        "transport": (
            "MemHub", "MemTransport", "TcpTransport", "Transport", "TransportClosed",
            "create_mem_transports", "create_tcp_transports", "have_af_unix",
            "normalize_address",
        ),
        "tree": ("TreeBarrierNode", "tree_children", "tree_parent"),
    },
)

__all__ = [
    "MAX_DROP_ATTEMPTS",
    "FaultyTransport",
    "DedupIndex",
    "FrameDecoder",
    "FrameError",
    "LamportClock",
    "Message",
    "append_frame",
    "encode_canonical",
    "encode_frame",
    "frame_digest",
    "pack_record",
    "unpack_record",
    "MBRingNode",
    "NetNode",
    "Timing",
    "PROTOCOLS",
    "TRANSPORTS",
    "NetConfig",
    "NetResult",
    "run_async",
    "run_sync",
    "SHARD_TRANSPORTS",
    "ShardFabric",
    "ShardTransport",
    "cross_edges",
    "partition_nodes",
    "run_sharded",
    "PROTOCOL_KINDS",
    "check_merged",
    "merge_traces",
    "monitor_stream",
    "trace_digest",
    "MemHub",
    "MemTransport",
    "TcpTransport",
    "Transport",
    "TransportClosed",
    "create_mem_transports",
    "create_tcp_transports",
    "have_af_unix",
    "normalize_address",
    "TreeBarrierNode",
    "tree_children",
    "tree_parent",
]
