"""``repro-serve``: run the daemon, or drive it with the load generator.

::

    repro-serve run --port 0 --obs-port 0 --endpoints-file runs/serve.json
    repro-serve loadgen --endpoints-file runs/serve.json --seed 7
    repro-serve loadgen --port 4777 --groups 3 --clients 50 --json

``run`` blocks until SIGTERM/SIGINT, then drains gracefully (clients
get a ``shutdown`` frame).  With ``--port 0`` / ``--obs-port 0`` the
kernel picks ephemeral ports, which are reported on stdout and in the
``--endpoints-file`` (written atomically once both listeners are up) --
the race-free handshake the serve-smoke CI job relies on.

``loadgen`` runs one seeded scripted load (see
:mod:`repro.serve.loadgen`) and prints a JSON report whose ``digest``
is replay-stable: the same seed against a fresh daemon produces the
same digest, byte for byte.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.errors import ObsPortInUseError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="barrier-as-a-service daemon and load generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start the daemon")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral, reported)")
    run.add_argument("--unix", default=None, metavar="PATH",
                     help="serve a Unix socket instead of TCP")
    run.add_argument("--obs-port", type=int, default=None,
                     help="HTTP /metrics /health /groups (0 = ephemeral)")
    run.add_argument("--max-groups", type=int, default=64,
                     help="live groups at once (finished ones do not count)")
    run.add_argument("--queue-depth", type=int, default=256,
                     help="per-group inbox bound (backpressure past it)")
    run.add_argument("--lease", type=float, default=30.0,
                     help="seconds a silent member keeps its seat")
    run.add_argument("--endpoints-file", default=None, metavar="PATH",
                     help="write bound addresses here (atomic) once up")

    load = sub.add_parser("loadgen", help="run one seeded load script")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=0)
    load.add_argument("--unix", default=None, metavar="PATH")
    load.add_argument("--endpoints-file", default=None, metavar="PATH",
                      help="read the daemon address from this file")
    load.add_argument("--groups", type=int, default=3)
    load.add_argument("--clients", type=int, default=50)
    load.add_argument("--barriers", type=int, default=20)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--leavers", type=int, default=2)
    load.add_argument("--crashers", type=int, default=2)
    load.add_argument("--slow", type=int, default=2)
    load.add_argument("--byzantine", type=int, default=1)
    load.add_argument("--probes", type=int, default=2)
    load.add_argument("--group-prefix", default="g", metavar="PREFIX",
                      help="group name prefix (unique per wave when many "
                           "runs share one daemon; digests are "
                           "prefix-invariant)")
    load.add_argument("--client-base", type=int, default=1,
                      help="first client id (give waves disjoint id "
                           "ranges on a shared daemon; digests are "
                           "base-invariant)")
    load.add_argument("--timeout", type=float, default=60.0)
    load.add_argument("--json", action="store_true",
                      help="print the full JSON report (default: summary)")
    load.add_argument("--digest-only", action="store_true",
                      help="print only the replay digest")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return asyncio.run(_run_daemon(args))
    return asyncio.run(_run_loadgen(args))


async def _run_daemon(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeConfig, ServeDaemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        obs_port=args.obs_port,
        max_groups=args.max_groups,
        queue_depth=args.queue_depth,
        lease_s=args.lease,
    )
    daemon = ServeDaemon(config)
    try:
        await daemon.start()
    except ObsPortInUseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"serving barriers on {daemon.address}", flush=True)
    if daemon.obs_url:
        print(
            f"serving telemetry on {daemon.obs_url} "
            "(/metrics /health /groups)",
            flush=True,
        )
    if args.endpoints_file:
        daemon.write_endpoints(args.endpoints_file)

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-Unix loops
            pass
    await stop.wait()
    print("draining...", flush=True)
    await daemon.shutdown()
    print("stopped", flush=True)
    return 0


async def _run_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import LoadConfig, run_load

    host, port, unix_path = args.host, args.port, args.unix
    if args.endpoints_file:
        with open(args.endpoints_file) as fh:
            address = json.load(fh)["address"]
        if address.startswith("unix://"):
            unix_path = address[len("unix://"):]
        elif address.startswith("tcp://"):
            hostport = address[len("tcp://"):]
            host, _, port_text = hostport.rpartition(":")
            port = int(port_text)
        else:
            print(f"error: unrecognized address {address!r}", file=sys.stderr)
            return 2
    if unix_path is None and port == 0:
        print("error: need --port, --unix or --endpoints-file",
              file=sys.stderr)
        return 2
    config = LoadConfig(
        groups=args.groups,
        clients_per_group=args.clients,
        barriers=args.barriers,
        seed=args.seed,
        leavers=args.leavers,
        crashers=args.crashers,
        slow=args.slow,
        byzantine=args.byzantine,
        probes=args.probes,
        group_prefix=args.group_prefix,
        client_base=args.client_base,
        host=host,
        port=port,
        unix_path=unix_path,
        timeout_s=args.timeout,
    )
    result = await run_load(config)
    report = result.to_dict()
    if args.digest_only:
        print(report["digest"])
    elif args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(
            f"loadgen seed={args.seed}: {report['clients']} clients, "
            f"{report['rounds_measured']} rounds, "
            f"p50={report['latency_p50_s'] * 1e3:.2f}ms "
            f"p99={report['latency_p99_s'] * 1e3:.2f}ms "
            f"wall={report['wall_s']:.2f}s"
        )
        print(f"outcomes: {report['outcome_counts']}")
        print(f"digest: {report['digest']}")
    bad = [o for o in result.outcomes
           if o["outcome"] in ("error", "admitted", "byzantine-timeout")]
    if result.errors or bad:
        for line in result.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
