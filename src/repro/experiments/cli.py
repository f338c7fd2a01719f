"""Command-line entry point: regenerate the paper's tables and figures.

::

    repro-experiments all
    repro-experiments fig5 --phases 500 --seed 7
    python -m repro.experiments fig7 --trials 50
    python -m repro.experiments trace-report runs/trace.jsonl
    python -m repro.experiments metrics-report runs/trace.jsonl --format prom
    python -m repro.experiments causal-report runs/trace.jsonl
    python -m repro.experiments chaos run --runs 16 --out runs/chaos
    python -m repro.experiments chaos replay runs/chaos/repro-gc-cb-0.json
    repro-experiments net run --nodes 5 --transport mem --drop 0.1
    repro-experiments net run --nodes 8 --transport tcp \
        --partition 0.5:1.5:0,1,2,3|4,5,6,7 --seed 42
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment

#: Subcommands that consume a JSONL trace instead of regenerating a figure.
REPORT_COMMANDS = ("trace-report", "metrics-report", "causal-report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Low-cost Fault-tolerance in "
            "Barrier Synchronizations' (Kulkarni & Arora, ICPP 1998)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", *REPORT_COMMANDS, "chaos", "net", "obs"],
        help="which table/figure to regenerate, one of the trace "
        "reports (trace-report: summary; metrics-report: aggregated "
        "metrics; causal-report: per-fault chains) over a JSONL trace, "
        "the chaos campaign engine (chaos run | chaos replay <file>), "
        "the asyncio message-passing runtime (net run), or the live "
        "telemetry plane (obs tail <url-or-trace>)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="JSONL trace file (the *-report subcommands), or the "
        "chaos/net/obs action: 'run' (default), 'replay' (chaos only), "
        "'tail' (obs only)",
    )
    parser.add_argument(
        "arg",
        nargs="?",
        default=None,
        help="reproducer file for 'chaos replay'; base URL of a live "
        "run (http://...) or a JSONL trace file/dir for 'obs tail'",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="metrics-report / causal-report output format "
        "(prom = Prometheus text exposition; metrics-report only)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--phases",
        type=int,
        default=None,
        help="successful phases per simulated point (fig5/fig6)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="perturbation trials per point (fig7)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render an ASCII chart of each figure's series",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation sweeps "
        "(fig5/fig6/fig7/sensitivity); 1 = in-process serial. Results "
        "are bit-identical at any job count",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed sweep-point cache directory; points "
        "already present are loaded instead of re-simulated",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point wall-clock deadline in seconds; a point that "
        "hangs is terminated (and retried, see --retries) instead of "
        "stalling the sweep",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="attempts beyond the first per sweep point (exponential "
        "backoff); points still failing are reported and skipped",
    )
    chaos = parser.add_argument_group("chaos campaigns")
    chaos.add_argument(
        "--runs",
        type=int,
        default=None,
        help="campaign runs (distributed round-robin over the targets)",
    )
    chaos.add_argument(
        "--engines",
        default=None,
        metavar="T1,T2,...",
        help="comma-separated campaign targets (default: the four "
        "guarded-command barriers; see repro.chaos.ADAPTERS)",
    )
    chaos.add_argument(
        "--detectable",
        type=int,
        default=None,
        help="detectable faults per campaign run",
    )
    chaos.add_argument(
        "--undetectable",
        type=int,
        default=None,
        help="undetectable faults per campaign run",
    )
    chaos.add_argument(
        "--permanent",
        type=int,
        default=None,
        help="permanent (non-restarting) crash faults per campaign run",
    )
    chaos.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="campaign config JSON (flag options override its fields)",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write report.json and reproducer files here",
    )
    chaos.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging minimization of failing schedules",
    )
    net = parser.add_argument_group("net runtime (repro.net)")
    net.add_argument(
        "--nodes", type=int, default=5, help="distributed node count"
    )
    net.add_argument(
        "--transport",
        choices=("mem", "tcp", "unix"),
        default="mem",
        help="in-memory fabric (CI default), real localhost TCP, or "
        "Unix domain sockets (falls back to TCP without AF_UNIX)",
    )
    net.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes: >1 partitions the nodes across that "
        "many event loops (cross-shard traffic on batched socket links)",
    )
    net.add_argument(
        "--shard-transport",
        choices=("auto", "unix", "tcp"),
        default="auto",
        help="cross-shard link transport (auto = Unix domain sockets "
        "when available, else TCP)",
    )
    net.add_argument(
        "--resend",
        type=float,
        default=None,
        metavar="S",
        help="resend timer override (scale runs want ~0.4 at n>=256; "
        "default 0.04 suits a few dozen nodes)",
    )
    net.add_argument(
        "--hb-interval",
        type=float,
        default=None,
        metavar="S",
        help="heartbeat interval override (scale runs want ~2.0)",
    )
    net.add_argument(
        "--protocol",
        choices=("tree", "mb"),
        default="tree",
        help="tree barrier (arrive/release waves) or the MB ring",
    )
    net.add_argument(
        "--barriers", type=int, default=20, help="barrier rounds to complete"
    )
    net.add_argument(
        "--arity", type=int, default=2, help="tree fan-out (tree protocol)"
    )
    net.add_argument(
        "--drop", type=float, default=0.0, help="per-message drop rate"
    )
    net.add_argument(
        "--dup", type=float, default=0.0, help="per-message duplication rate"
    )
    net.add_argument(
        "--delay", type=float, default=0.0, help="per-message delay rate"
    )
    net.add_argument(
        "--reorder", type=float, default=0.0, help="per-message reorder rate"
    )
    net.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="START:STOP:G1|G2[|...]",
        help="partition window, e.g. 0.5:1.5:0,1,2|3,4 -- cross-group "
        "messages drop for START<=t<STOP seconds (repeatable)",
    )
    net.add_argument(
        "--crash",
        action="append",
        default=None,
        metavar="PID:WHEN",
        help="crash-restart node PID at round/strike-time WHEN (repeatable)",
    )
    net.add_argument(
        "--fail-stop",
        action="append",
        default=None,
        metavar="PID:WHEN",
        help="permanently fail-stop node PID at WHEN -- crash with no "
        "restart, Section 7's detectable uncorrectable fault (repeatable)",
    )
    net.add_argument(
        "--byzantine",
        action="append",
        default=None,
        metavar="PID:WHEN|N",
        help="net run: turn node PID Byzantine at WHEN -- protocol-valid "
        "but semantically wrong frames, seeded lie palette (repeatable); "
        "chaos run: a bare count of Byzantine faults per campaign run",
    )
    net.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="per-frame byte-corruption rate at the transport (the "
        "receiver must quarantine, never raise)",
    )
    net.add_argument(
        "--forge",
        type=float,
        default=0.0,
        metavar="RATE",
        help="per-send forged-envelope rate: a seeded replayed or "
        "src-spoofed extra frame rides alongside the real one",
    )
    net.add_argument(
        "--no-defense",
        action="store_true",
        help="trust every frame (adversarial control): skip validation, "
        "suspicion strikes and the fail-safe degradation path",
    )
    net.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="FaultPlan JSON file (overrides the fault flags above)",
    )
    net.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="dump per-node and merged JSONL traces here (flight-"
        "recorder snapshots when the live plane is on)",
    )
    net.add_argument(
        "--work",
        type=float,
        default=None,
        metavar="S",
        help="simulated per-barrier work time in seconds (slows the "
        "run down so it can be watched live)",
    )
    obs = parser.add_argument_group("live telemetry plane (repro.obs.live)")
    obs.add_argument(
        "--live",
        action="store_true",
        help="net run: stream the Lamport merge through the guarantee "
        "monitors while nodes run (bounded flight recorders per node)",
    )
    obs.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="net run: serve /metrics, /health and /spans/recent on "
        "localhost:PORT during the run (implies --live; 0 = ephemeral)",
    )
    obs.add_argument(
        "--ring",
        type=int,
        default=4096,
        metavar="N",
        help="flight-recorder ring capacity per node (live plane)",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="obs tail: poll interval against a live endpoint",
    )
    return parser


#: Experiments whose runners accept a SweepExecutor.
SWEPT = ("fig5", "fig6", "fig7", "sensitivity")


def _kwargs_for(exp_id: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {}
    if exp_id in ("fig5", "fig6", "fig7", "table1", "sensitivity"):
        kwargs["seed"] = args.seed
    if exp_id in ("fig5", "fig6") and args.phases is not None:
        kwargs["phases"] = args.phases
    if exp_id == "fig7" and args.trials is not None:
        kwargs["trials"] = args.trials
    if exp_id in SWEPT and (
        args.jobs != 1
        or args.cache_dir is not None
        or args.timeout is not None
        or args.retries
    ):
        kwargs["executor"] = _executor_from(args)
    return kwargs


def _executor_from(args: argparse.Namespace):
    from repro.experiments.sweep import SweepExecutor

    return SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
    )


def trace_report(path: str) -> int:
    """Summarize a structured JSONL trace to the paper's quantities."""
    from repro.obs.jsonl import read_jsonl
    from repro.obs.summary import summarize

    events = read_jsonl(path)
    print(summarize(events).render())
    return 0


def metrics_report(path: str, fmt: str = "text") -> int:
    """Aggregate a JSONL trace into the metrics registry and export it."""
    import json as _json

    from repro.obs.jsonl import read_jsonl
    from repro.obs.tracefold import metrics_from_trace

    registry = metrics_from_trace(read_jsonl(path))
    if fmt == "json":
        print(_json.dumps(registry.to_json(), indent=2, sort_keys=True))
    elif fmt == "prom":
        sys.stdout.write(registry.render_prometheus())
    else:
        print(registry.render())
    return 0


def causal_report_cmd(path: str, fmt: str = "text") -> int:
    """Reconstruct per-fault causal chains from a JSONL trace."""
    import json as _json

    from repro.obs.causal import causal_report
    from repro.obs.jsonl import read_jsonl

    report = causal_report(read_jsonl(path))
    if fmt == "json":
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def chaos_cmd(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The campaign engine: ``chaos run`` / ``chaos replay <file>``.

    ``run`` exits non-zero when any guarantee was violated (the shrunk
    reproducers, if --out was given, tell you how); ``replay`` exits
    non-zero when the saved violation does *not* reappear.
    """
    import json as _json

    from repro.chaos import CampaignConfig, replay_file, run_campaign

    action = args.path or "run"
    if action == "replay":
        if args.arg is None:
            parser.error(
                "chaos replay requires a reproducer file "
                f"(usage: {parser.prog} chaos replay <file>)"
            )
        reproducer, outcome = replay_file(args.arg)
        saved = reproducer.violation
        print(
            f"replaying {reproducer.target}: {reproducer.plan.count} fault "
            f"event(s), expecting [{saved.guarantee}/{saved.kind}]"
        )
        for violation in outcome.violations:
            print(f"  observed: {violation}")
        reproduced = any(
            v.guarantee == saved.guarantee for v in outcome.violations
        )
        print("REPRODUCED" if reproduced else "NOT REPRODUCED")
        return 0 if reproduced else 1
    if action != "run":
        parser.error(f"unknown chaos action {action!r} (use: run | replay)")

    overrides: dict = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            overrides = CampaignConfig.from_json(_json.load(fh)).to_json()
        overrides.pop("version", None)
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.engines is not None:
        overrides["targets"] = tuple(
            t.strip() for t in args.engines.split(",") if t.strip()
        )
    if args.detectable is not None:
        overrides["detectable"] = args.detectable
    if args.undetectable is not None:
        overrides["undetectable"] = args.undetectable
    if args.byzantine:
        # The flag doubles as the net verb's PID:WHEN spec; a campaign
        # takes a bare per-run count.
        if len(args.byzantine) != 1 or ":" in args.byzantine[0]:
            parser.error(
                "chaos run takes --byzantine as a bare count "
                "(PID:WHEN specs are for 'net run')"
            )
        try:
            overrides["byzantine"] = int(args.byzantine[0])
        except ValueError:
            parser.error(f"bad --byzantine count {args.byzantine[0]!r}")
    if args.permanent is not None:
        overrides["permanent"] = args.permanent
    if args.seed:
        overrides["seed"] = args.seed
    if args.no_shrink:
        overrides["shrink"] = False
    config = CampaignConfig.from_json(overrides) if overrides else CampaignConfig()

    executor = None
    if (
        args.jobs != 1
        or args.cache_dir is not None
        or args.timeout is not None
        or args.retries
    ):
        executor = _executor_from(args)
    report = run_campaign(config, executor=executor, progress=print)
    print(report.render())
    if args.out is not None:
        for path in report.save(args.out):
            print(f"wrote {path}")
    return 0 if report.ok else 1


def _parse_partition(spec: str):
    """``START:STOP:G1|G2[|...]`` -> :class:`PartitionWindow`."""
    from repro.chaos.plan import PartitionWindow

    try:
        start_s, stop_s, groups_s = spec.split(":", 2)
        groups = tuple(
            tuple(int(pid) for pid in group.split(","))
            for group in groups_s.split("|")
        )
        return PartitionWindow(
            start=float(start_s), stop=float(stop_s), groups=groups
        )
    except (ValueError, IndexError) as exc:
        raise ValueError(
            f"bad partition spec {spec!r} "
            "(expected START:STOP:G1|G2, e.g. 0.5:1.5:0,1,2|3,4)"
        ) from exc


def _net_plan(args: argparse.Namespace):
    """The FaultPlan a ``net run`` invocation asked for (None = clean)."""
    import json as _json

    from repro.chaos.plan import FaultEvent, FaultPlan, LinkPlan

    if args.plan is not None:
        with open(args.plan, encoding="utf-8") as fh:
            return FaultPlan.from_json(_json.load(fh))
    link = None
    if (
        args.drop
        or args.dup
        or args.delay
        or args.reorder
        or args.corrupt
        or args.forge
    ):
        link = LinkPlan(
            loss=args.drop,
            duplication=args.dup,
            delay=args.delay,
            reorder=args.reorder,
            corruption=args.corrupt,
            forge=args.forge,
        )
    partitions = tuple(_parse_partition(s) for s in (args.partition or ()))

    def pid_when(spec: str, flag: str) -> tuple[int, float]:
        pid_s, sep, when_s = spec.partition(":")
        if not sep:
            raise ValueError(f"bad {flag} spec {spec!r} (expected PID:WHEN)")
        return int(pid_s), float(when_s)

    events = []
    for spec in args.crash or ():
        pid, when = pid_when(spec, "--crash")
        events.append(FaultEvent(pid=pid, when=when))
    for spec in args.fail_stop or ():
        pid, when = pid_when(spec, "--fail-stop")
        events.append(FaultEvent(pid=pid, when=when, kind="crash"))
    for spec in args.byzantine or ():
        pid, when = pid_when(spec, "--byzantine")
        events.append(
            FaultEvent(pid=pid, when=when, detectable=False, kind="byzantine")
        )
    if link is None and not partitions and not events:
        return None
    return FaultPlan(
        nprocs=args.nodes,
        events=tuple(events),
        seed=args.seed,
        link=link,
        partitions=partitions,
    )


def net_cmd(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The asyncio runtime: ``net run``.

    Runs the chosen protocol across ``--nodes`` asyncio tasks over the
    chosen transport, injecting the requested faults at the transport,
    and exits non-zero unless the run completed with zero guarantee
    violations.  The printed digest is the replay identity: for the
    tree protocol, the same seed and plan reproduce it exactly.
    """
    action = args.path or "run"
    if action != "run":
        parser.error(f"unknown net action {action!r} (use: run)")
    from dataclasses import replace

    from repro.errors import ObsPortInUseError
    from repro.net.node import Timing
    from repro.net.runtime import NetConfig, run_sync

    try:
        plan = _net_plan(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    timing_kw: dict = {}
    if args.work:
        timing_kw["work"] = args.work
    if args.resend is not None:
        # Scale the dependent timers with the resend interval so one
        # flag tunes a consistent profile (see EXPERIMENTS.md).
        timing_kw["resend"] = args.resend
        timing_kw["resend_max"] = 4 * args.resend
        timing_kw["finish_timeout"] = max(2.0, 10 * args.resend)
    if args.hb_interval is not None:
        timing_kw["hb_interval"] = args.hb_interval
    timing = Timing(**timing_kw)
    try:
        config = NetConfig(
            nodes=args.nodes,
            barriers=args.barriers,
            protocol=args.protocol,
            transport=args.transport,
            arity=args.arity,
            seed=args.seed,
            plan=plan,
            timing=timing,
            timeout_s=args.timeout if args.timeout is not None else 60.0,
            trace_dir=args.trace_dir,
            obs_port=args.obs_port,
            live=args.live,
            ring_capacity=args.ring,
            shards=args.shards,
            shard_transport=args.shard_transport,
            defense=not args.no_defense,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.obs_port is not None:
        # The URL is announced at bind time (not guessed up front), so
        # --obs-port 0 reports the ephemeral port the kernel picked.
        config = replace(
            config,
            obs_announce=lambda url: print(
                f"serving live telemetry on {url} "
                "(/metrics /health /spans/recent)",
                flush=True,
            ),
        )
    try:
        result = run_sync(config)
    except ObsPortInUseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    for path in result.trace_paths:
        print(f"wrote {path}")
    return 0 if result.ok else 1


def _tail_events(source: str):
    """Events for an offline ``obs tail``: a snapshot file, a JSONL
    trace, or a trace directory (merged.jsonl preferred, else per-node
    streams re-merged)."""
    from pathlib import Path

    from repro.net.trace import merge_traces
    from repro.obs.jsonl import read_jsonl
    from repro.obs.recorder import read_snapshot

    path = Path(source)
    if path.is_dir():
        merged = path / "merged.jsonl"
        if merged.exists():
            return read_jsonl(merged)
        streams = {}
        for child in sorted(path.glob("trace-*.jsonl")):
            pid = int(child.stem.split("-")[1])
            streams[pid] = read_jsonl(child)
        for child in sorted(path.glob("flight-*.snapshot.jsonl")):
            header, events = read_snapshot(child)
            streams[int(header["pid"])] = events
        if not streams:
            raise FileNotFoundError(f"no trace files under {source}")
        return merge_traces(streams)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if '"flight-recorder-snapshot"' in first:
        header, events = read_snapshot(path)
        print(
            f"flight recorder pid={header['pid']}: "
            f"{header['retained']} retained of {header['appended']} "
            f"({header['dropped']} dropped, capacity {header['capacity']})"
        )
        return events
    return read_jsonl(path)


def _tail_replay(source: str) -> int:
    """Replay a recorded trace as a scrolling span feed + histogram."""
    from repro.obs.spans import BARRIER, SpanFolder
    from repro.viz.chart import ascii_histogram_of

    durations: list[float] = []

    def sink(span) -> None:
        print(span.render())
        if span.kind == BARRIER and span.duration is not None:
            durations.append(span.duration)

    events = _tail_events(source)
    folder = SpanFolder(sink=sink)
    folder.feed_all(events)
    folder.finish(events[-1].time if events else 0.0)
    counts_by_kind = " ".join(
        f"{kind}={count}" for kind, count in sorted(folder.finished.items())
    )
    print(f"spans: {counts_by_kind}")
    if durations:
        print("barrier durations (virtual time):")
        print(ascii_histogram_of(durations))
    return 0


def _tail_live(url: str, interval: float, timeout: float | None) -> int:
    """Attach to a running net job's endpoint and stream its spans."""
    import json as _json
    import urllib.error
    import urllib.request

    base = url.rstrip("/")

    def fetch(route: str):
        with urllib.request.urlopen(base + route, timeout=5.0) as resp:
            return _json.loads(resp.read().decode("utf-8"))

    seen_spans: set[int] = set()
    seen_violations = 0
    deadline = None if timeout is None else time.monotonic() + timeout
    attached = False
    failures = 0
    while True:
        try:
            health = fetch("/health")
            payload = fetch("/spans/recent")
            failures = 0
        except (urllib.error.URLError, ConnectionError, OSError):
            failures += 1
            # Tolerate a slow start; once attached, a dead endpoint
            # means the run is over.
            if attached or failures > max(3, int(5.0 / max(interval, 0.1))):
                break
            time.sleep(interval)
            continue
        if not attached:
            print(f"attached to {base} ({health['nodes']} nodes)")
            attached = True
        for span in payload["recent"]:
            if span["span_id"] not in seen_spans:
                seen_spans.add(span["span_id"])
                dur = span["duration"]
                dur_s = "" if dur is None else f" dur={dur:g}"
                pid = span["pid"]
                pid_s = "" if pid is None else f" pid={pid}"
                print(
                    f"[{span['start']:>10g}] {span['kind']:<13} "
                    f"{span['name']:<14} {span['status']}{pid_s}{dur_s}"
                )
        fresh = payload["violations"][seen_violations:]
        seen_violations += len(fresh)
        for violation in fresh:
            where = violation.get("span") or {}
            print(
                f"VIOLATION [{violation['guarantee']}/{violation['kind']}] "
                f"t={violation['time']:g}: {violation['message']}"
                + (f" (span {where.get('name')})" if where else "")
            )
        if health["status"] == "finished":
            print("run finished")
            break
        if deadline is not None and time.monotonic() >= deadline:
            print("tail timeout reached")
            break
        time.sleep(interval)
    if not attached:
        print(f"could not attach to {base}")
        return 1
    print(
        f"tailed {len(seen_spans)} span(s), "
        f"{seen_violations} violation(s)"
    )
    return 0 if seen_violations == 0 else 1


def obs_cmd(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The telemetry plane: ``obs tail <url-or-trace>``.

    With an ``http://`` argument, attaches to a live run's endpoint and
    streams spans/violations until the run finishes; with a file or
    directory, replays the recorded trace as the same feed.
    """
    action = args.path or "tail"
    if action != "tail":
        parser.error(f"unknown obs action {action!r} (use: tail)")
    if args.arg is None:
        parser.error(
            "obs tail requires a live URL or a trace file/dir "
            f"(usage: {parser.prog} obs tail http://127.0.0.1:9309)"
        )
    if args.arg.startswith(("http://", "https://")):
        return _tail_live(args.arg, args.interval, args.timeout)
    try:
        return _tail_replay(args.arg)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed our stdout; the Unix convention
        # is a quiet exit, not a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "chaos":
        return chaos_cmd(args, parser)
    if args.experiment == "net":
        return net_cmd(args, parser)
    if args.experiment == "obs":
        return obs_cmd(args, parser)
    if args.experiment in REPORT_COMMANDS:
        if args.path is None:
            # A proper argparse error (usage + message, exit status 2)
            # instead of the old unhelpful path-less crash.
            parser.error(
                f"{args.experiment} requires a JSONL trace path "
                f"(usage: {parser.prog} {args.experiment} <trace.jsonl>)"
            )
        if args.experiment == "trace-report":
            return trace_report(args.path)
        if args.experiment == "metrics-report":
            return metrics_report(args.path, args.format)
        return causal_report_cmd(args.path, args.format)
    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        start = time.perf_counter()
        result = run_experiment(exp_id, **_kwargs_for(exp_id, args))
        elapsed = time.perf_counter() - start
        print(result.render())
        if args.chart and exp_id not in ("table1", "sensitivity"):
            print()
            print(chart_of(result))
        print(f"[{exp_id} regenerated in {elapsed:.1f}s]\n")
    return 0


def chart_of(result) -> str:
    """ASCII chart of an experiment's numeric series (first column is
    the x axis; the remaining numeric columns are the series)."""
    from repro.viz.chart import ascii_chart

    x = [float(v) for v in result.column(result.columns[0])]
    series = {
        name: [float(v) for v in result.column(name)]
        for name in result.columns[1:]
        if all(isinstance(v, (int, float)) for v in result.column(name))
    }
    return ascii_chart(x, series, title=result.title)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
