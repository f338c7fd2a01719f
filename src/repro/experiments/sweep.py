"""Parallel, cached execution of experiment parameter sweeps.

Every figure in the evaluation is a grid of independent simulation
points -- ``(h, c, f, phases, seed)`` tuples mapped through a pure
function.  :class:`SweepExecutor` runs such grids:

* **fan-out** -- points are dispatched to a ``multiprocessing`` pool
  (``jobs`` workers) in chunks; results always come back in input
  order, so the merged output is bit-identical to the serial run;
* **content-addressed caching** -- with a ``cache_dir``, each point's
  result is stored as JSON under the SHA-256 of its canonical
  ``(function, kwargs)`` encoding.  Re-running any sweep that shares
  points (same seed/grid) loads them instead of simulating;
* **determinism** -- points carry explicit seeds and reference their
  function by ``"module:function"`` name, so a point's digest -- and
  therefore its cached value -- is independent of process, interpreter
  session, and worker assignment.

* **containment** -- with ``timeout_s`` and/or ``retries`` set, each
  point runs in its *own* worker process with a wall-clock deadline:
  a point that hangs is terminated, one whose worker crashes (segfault,
  ``os._exit``) is detected through the exit code, and either is
  retried with exponential backoff before being given up.  Given-up
  points land in :attr:`SweepExecutor.failed` (details in
  :attr:`~SweepExecutor.failures`) with ``None`` in the result slot;
  every completed point's result is still returned -- a chaos campaign
  or figure sweep survives its own infrastructure.

Values are normalized through a JSON round-trip *in both the compute
and the cache-hit path*, which is what makes "parallel + cache" runs
bit-identical to serial ones: every result the caller sees has passed
through the same representation, whether it was computed here, in a
worker, or read back from disk.  Point functions must therefore return
JSON-serializable values (numbers, strings, lists, dicts).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

logger = logging.getLogger(__name__)

#: The ``reason`` of a set-aside cache entry or point, and of its warning.
REASONS = ("corrupt-cache", "timeout", "crash", "error")


def _warn(message: str, record: dict[str, Any]) -> None:
    """One warning per set-aside: ``message`` ends with the reason, and
    ``record`` rides as the log record's ``sweep`` attribute."""
    logger.warning("%s [%s]", message, record["reason"], extra={"sweep": record})


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a function reference plus JSON-able kwargs.

    ``fn`` is a ``"module:function"`` string (resolved lazily inside the
    worker, which keeps points picklable and avoids import cycles);
    ``kwargs`` is stored as a sorted tuple of items so equal points
    compare and hash equal.
    """

    fn: str
    kwargs: tuple[tuple[str, Any], ...]

    @classmethod
    def make(cls, fn: str, **kwargs: Any) -> "SweepPoint":
        if ":" not in fn:
            raise ValueError(f"fn must be 'module:function', got {fn!r}")
        return cls(fn, tuple(sorted(kwargs.items())))

    def digest(self) -> str:
        """Content address: SHA-256 of the canonical JSON encoding."""
        payload = json.dumps(
            {"fn": self.fn, "kwargs": dict(self.kwargs)},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def point(fn: str, **kwargs: Any) -> SweepPoint:
    """Shorthand for :meth:`SweepPoint.make`."""
    return SweepPoint.make(fn, **kwargs)


def _resolve(ref: str) -> Callable[..., Any]:
    mod_name, _, fn_name = ref.partition(":")
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if fn is None:
        raise AttributeError(f"no function {fn_name!r} in module {mod_name!r}")
    return fn


def _normalize(value: Any) -> Any:
    """Canonical JSON round-trip (see module docstring)."""
    return json.loads(json.dumps(value))


def _run_point(spec: tuple[str, tuple[tuple[str, Any], ...]]) -> Any:
    """Worker entry: compute one point (module-level for pickling)."""
    ref, items = spec
    return _normalize(_resolve(ref)(**dict(items)))


def _contained_point(
    conn: Any, ref: str, items: tuple[tuple[str, Any], ...]
) -> None:
    """Hardened-path worker: one point per process, result over a pipe.

    A clean exception travels back as ``("err", message)``; a worker
    that dies without sending anything (crash, kill, timeout-terminate)
    is detected by the parent through EOF + exit code.
    """
    try:
        value = _normalize(_resolve(ref)(**dict(items)))
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ok", value))
    conn.close()


class SweepExecutor:
    """Run sweep points, optionally in parallel and/or cached.

    ``jobs=1`` (the default) computes in-process; ``jobs>1`` uses a
    ``multiprocessing`` pool with chunked dispatch (``chunk_size``
    points per task, default ``ceil(npoints / (4 * jobs))``, clamped to
    at least 1).  ``cache_dir`` enables the content-addressed cache;
    misses are computed and written back atomically, so concurrent
    sweeps sharing a cache directory are safe (last write wins with
    identical content).

    Setting ``timeout_s`` (per-point wall-clock deadline) or
    ``retries`` (attempts beyond the first per point) switches misses to
    the hardened process-per-point path: a hang is terminated at the
    deadline, a dead worker is detected via its exit code, and the
    point is retried up to ``retries`` times with exponential backoff
    (``backoff_s * 2**attempt`` between attempts).  Points still failing
    after the last attempt are reported in :attr:`failed` /
    :attr:`failures` and leave ``None`` in their result slot; everything
    that completed is salvaged.  The hardened path applies with
    ``jobs=1`` too -- crash containment requires the process boundary.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        chunk_size: int | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.1,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self.jobs = jobs
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.chunk_size = chunk_size
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        #: Points the last :meth:`run` gave up on (after all retries).
        self.failed: list[SweepPoint] = []
        #: Failure detail per given-up point: ``{"index", "point",
        #: "error", "attempts"}`` in input order.
        self.failures: list[dict[str, Any]] = []
        #: Statistics of the most recent :meth:`run` call.
        self.last_stats: dict[str, int] = {"points": 0, "hits": 0, "computed": 0}

    @property
    def hardened(self) -> bool:
        """Whether misses run in contained per-point workers."""
        return self.timeout_s is not None or self.retries > 0

    # -- cache ---------------------------------------------------------
    def _cache_path(self, pt: SweepPoint) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, pt.digest() + ".json")

    def _cache_load(self, pt: SweepPoint) -> tuple[bool, Any]:
        path = self._cache_path(pt)
        if path is None:
            return False, None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            return False, None
        except ValueError as exc:
            problem = f"not JSON ({exc})"
        else:
            problem = "" if isinstance(entry, dict) else "not a JSON object"
        if problem:
            # Corrupt or truncated cache entry (killed writer, disk
            # trouble): a miss -- recompute, and the fresh store
            # overwrites the bad file.
            _warn(
                f"discarding corrupt sweep cache entry {path}: {problem}",
                {"reason": "corrupt-cache", "path": path, "error": problem},
            )
            return False, None
        if entry.get("fn") != pt.fn or entry.get("kwargs") != _normalize(
            dict(pt.kwargs)
        ):
            # Digest collision or foreign file: treat as a miss.
            return False, None
        return True, entry["value"]

    def _cache_store(self, pt: SweepPoint, value: Any) -> None:
        path = self._cache_path(pt)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        entry = {"fn": pt.fn, "kwargs": _normalize(dict(pt.kwargs)), "value": value}
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)

    # -- execution -----------------------------------------------------
    def run(self, points: Sequence[SweepPoint] | Iterable[SweepPoint]) -> list[Any]:
        """Evaluate ``points``; the result list matches input order.

        On the hardened path, a point that exhausted its retries leaves
        ``None`` at its index (and appears in :attr:`failed`); the plain
        path lets exceptions propagate unchanged.
        """
        pts = list(points)
        results: list[Any] = [None] * len(pts)
        self.failed = []
        self.failures = []
        misses: list[int] = []
        hits = 0
        for i, pt in enumerate(pts):
            found, value = self._cache_load(pt)
            if found:
                results[i] = value
                hits += 1
            else:
                misses.append(i)
        retried = 0
        if misses:
            if self.hardened:
                retried = self._run_contained(pts, misses, results)
            else:
                specs = [(pts[i].fn, pts[i].kwargs) for i in misses]
                if self.jobs > 1 and len(misses) > 1:
                    computed = self._run_pool(specs)
                else:
                    computed = [_run_point(spec) for spec in specs]
                for i, value in zip(misses, computed):
                    results[i] = value
                    self._cache_store(pts[i], value)
        self.last_stats = {
            "points": len(pts),
            "hits": hits,
            "computed": len(misses) - len(self.failed),
            "failed": len(self.failed),
            "retried": retried,
        }
        return results

    def _run_pool(self, specs: list[tuple]) -> list[Any]:
        import multiprocessing as mp

        chunk = self.chunk_size
        if chunk is None:
            chunk = max(1, -(-len(specs) // (4 * self.jobs)))
        ctx = mp.get_context()
        with ctx.Pool(processes=min(self.jobs, len(specs))) as pool:
            return list(pool.imap(_run_point, specs, chunksize=chunk))

    # -- hardened path -------------------------------------------------
    def _run_contained(
        self, pts: list[SweepPoint], misses: list[int], results: list[Any]
    ) -> int:
        """Process-per-point execution with deadlines and retries.

        Up to ``jobs`` workers run at once.  Each attempt is a fresh
        process (a crashed worker is never reused); the parent collects
        results over pipes, enforces ``timeout_s`` per attempt, and
        reschedules failures with backoff.  Returns the retry count.
        """
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        ctx = mp.get_context()
        #: (point index, attempt, earliest start time)
        pending: list[tuple[int, int, float]] = [
            (i, 0, 0.0) for i in misses
        ]
        #: conn -> (point index, attempt, deadline or None, process)
        active: dict[Any, tuple[int, int, float | None, Any]] = {}
        #: (point index, failure record) -- sorted into input order last.
        given_up: list[tuple[int, dict[str, Any]]] = []
        retried = 0

        def launch(index: int, attempt: int) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_contained_point,
                args=(child_conn, pts[index].fn, pts[index].kwargs),
            )
            proc.start()
            child_conn.close()
            deadline = (
                time.monotonic() + self.timeout_s
                if self.timeout_s is not None
                else None
            )
            active[parent_conn] = (index, attempt, deadline, proc)

        def settle(index: int, attempt: int, reason: str, error: str) -> None:
            nonlocal retried
            if attempt < self.retries:
                retried += 1
                delay = self.backoff_s * (2**attempt)
                pending.append((index, attempt + 1, time.monotonic() + delay))
            else:
                record = {
                    "index": index,
                    "point": {"fn": pts[index].fn, "kwargs": dict(pts[index].kwargs)},
                    "reason": reason,
                    "error": error,
                    "attempts": attempt + 1,
                }
                given_up.append((index, record))
                _warn(
                    f"sweep point {index} ({pts[index].fn}) gave up after "
                    f"{attempt + 1} attempt(s): {error}",
                    record,
                )

        while pending or active:
            now = time.monotonic()
            # Fill free slots with whatever is eligible to (re)start.
            launchable = [p for p in pending if p[2] <= now]
            while launchable and len(active) < self.jobs:
                entry = launchable.pop(0)
                pending.remove(entry)
                launch(entry[0], entry[1])
            if not active:
                # Everything left is backing off: sleep to the earliest.
                wake = min(p[2] for p in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            # Wake on the first message, nearest deadline, or the next
            # backoff expiry -- whichever comes first.
            horizon: list[float] = [
                d for (_i, _a, d, _p) in active.values() if d is not None
            ]
            horizon.extend(p[2] for p in pending)
            timeout = None
            if horizon:
                timeout = max(0.0, min(horizon) - time.monotonic())
            ready = conn_wait(list(active), timeout=timeout)
            for conn in ready:
                index, attempt, _deadline, proc = active.pop(conn)
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = (
                        "crash",
                        f"worker died (exit code {proc.exitcode})",
                    )
                conn.close()
                proc.join()
                if status == "ok":
                    results[index] = payload
                    self._cache_store(pts[index], payload)
                elif status == "crash":
                    # EOF races the exit code; re-read it after join.
                    settle(
                        index,
                        attempt,
                        "crash",
                        f"worker died (exit code {proc.exitcode})",
                    )
                else:
                    settle(index, attempt, "error", payload)
            now = time.monotonic()
            expired = [
                conn
                for conn, (_i, _a, deadline, _p) in active.items()
                if deadline is not None and deadline <= now
            ]
            for conn in expired:
                index, attempt, _deadline, proc = active.pop(conn)
                proc.terminate()
                proc.join()
                conn.close()
                settle(index, attempt, "timeout", f"timeout after {self.timeout_s}s")
        given_up.sort(key=lambda item: item[0])
        self.failed = [pts[index] for index, _record in given_up]
        self.failures = [record for _index, record in given_up]
        return retried


def run_grid(
    fn: str,
    grid: Sequence[dict[str, Any]],
    executor: SweepExecutor | None = None,
) -> list[Any]:
    """Map ``fn`` over a list of kwargs dicts via an executor.

    The helper the figure modules use: ``executor=None`` means a plain
    serial, uncached executor, so callers can thread an optional
    executor through without branching.
    """
    ex = executor if executor is not None else SweepExecutor()
    return ex.run([SweepPoint.make(fn, **kw) for kw in grid])
