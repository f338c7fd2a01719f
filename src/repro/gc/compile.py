"""Compiled guarded-command backend.

The interpreter walks dict-of-list states through Python closures for
every guard and statement, every step.  This module specializes each
:class:`~repro.gc.actions.Action` against a *flat array mirror* of the
state -- one int per ``(variable, pid)`` cell, values interned as their
domain indices (:class:`StateCodec`) -- and caches both layers of work
the interpreter redoes constantly:

* **guard/effect memo tables** -- each action's guard (and statement) is
  a pure function of the cells it reads, so its result is memoized under
  the tuple of interned values of those cells.  Declared read-sets
  (:attr:`Action.reads`) are trusted directly; undeclared guards and all
  statements *learn* their read-sets by evaluating under a
  :class:`~repro.gc.incremental.RecordingStateView` on every miss and
  growing the keyed cell union (clearing the memo when it grows, so every
  stored entry's key covers its own read path).  Memoized effect entries
  precompute the write-through triples, the mirror writes, and the dirty
  slots, so a hit applies in a handful of C-level operations.
* **enabled flags with slot-granular dirty tracking** -- inherited:
  :class:`CompiledProgram` *is* an
  :class:`~repro.gc.incremental.EnabledIndex` whose guard evaluators go
  through the memo and whose watcher table also covers learned
  (undeclared) guards.

**Fallback rules** -- specialization is per-action and bails out to live
interpretation whenever memoization would be unsound:

* a guard or statement that draws from the RNG (detected by counting
  draws through a forwarding proxy on every miss) is never memoized and
  is re-evaluated every step, exactly as the interpreter treats
  undeclared actions -- so the RNG stream, and hence the trace, stays
  bit-identical;
* an action reading or writing a variable whose domain cannot be
  interned (unenumerable or unhashable values) is evaluated live;
* writes made behind the backend's back (fault injectors, tests poking
  ``State.set``) are caught by the inherited :attr:`State.version` rule;
  the rebind additionally re-encodes the mirror.

Every evaluation that does run is the *same* closure the interpreter
would call, against the *same* :class:`State`, with the same RNG in the
same order; writes go through to the real ``State`` (batched via
:meth:`State.write_cells`).  Trace events, state digests and RNG streams
are therefore bit-identical to the interpreter -- the conformance suite
and ``tests/test_compile_differential.py`` enforce this differentially,
including under seeded fault injection.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from operator import itemgetter
from typing import Any, Callable

from repro.gc.incremental import EnabledIndex, RecordingStateView
from repro.gc.program import Program
from repro.gc.state import State

__all__ = ["StateCodec", "CompiledProgram"]

_MISS = object()

#: Domains larger than this are not interned (the table would dwarf the
#: mirror's benefit); actions touching them fall back to live evaluation.
MAX_DOMAIN_SIZE = 65_536

#: Entry cap for the round-level memo; reached only by workloads whose
#: reachable set is that large, where the memo is wiped and rebuilt.
ROUND_MEMO_MAX = 65_536


class _CountingRng:
    """Forwarding RNG proxy that counts draws.

    Used on memo misses to detect nondeterministic guards/statements:
    any entry whose evaluation touched the RNG is never memoized (a
    cached result would skip the draw and shift the stream).  Attribute
    access other than ``integers`` is counted conservatively -- the
    engine's views only ever call ``integers`` (of the three draws
    :class:`repro._pcg64.Rng` names), so anything else is user code
    doing who-knows-what with the generator.
    """

    __slots__ = ("rng", "draws")

    def __init__(self, rng: Any) -> None:
        self.rng = rng
        self.draws = 0

    def integers(self, *args: Any, **kwargs: Any) -> Any:
        self.draws += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        self.draws += 1
        return getattr(self.rng, name)


class _RoundEntry:
    """One memoized maximal-parallel round.

    Stored only for rounds that were a pure function of the mirror: every
    domain interned, no live guard, every effect memoized, every
    per-process choice a singleton (so no selection draw either way).
    ``fires`` carries ``(action index, updates)`` for trace replay.
    ``next`` chains an entry to its (unique, deterministic) successor
    round once both have been observed, so steady-state cycles replay
    without even hashing the mirror.
    """

    __slots__ = ("triples", "mirror", "dirty", "fires", "next")

    def __init__(
        self,
        triples: tuple[tuple[str, int, Any], ...],
        mirror: tuple[tuple[int, int], ...],
        dirty: tuple[int, ...],
        fires: tuple[tuple[int, tuple[tuple[str, Any], ...]], ...],
    ) -> None:
        self.triples = triples
        self.mirror = mirror
        self.dirty = dirty
        self.fires = fires
        self.next: "_RoundEntry | None" = None


class _EffectEntry:
    """One memoized statement result plus its precomputed application."""

    __slots__ = ("updates", "triples", "mirror", "dirty")

    def __init__(
        self,
        updates: tuple[tuple[str, Any], ...],
        triples: tuple[tuple[str, int, Any], ...],
        mirror: tuple[tuple[int, int], ...],
        dirty: tuple[int, ...],
    ) -> None:
        self.updates = updates
        self.triples = triples
        self.mirror = mirror
        self.dirty = dirty


class StateCodec:
    """Interning tables between :class:`State` cells and flat int slots.

    Variables are laid out in sorted-name order (matching
    :meth:`State.key` and the explorer's ``KeyCodec``); the slot of cell
    ``(var, pid)`` is ``var_index[var] * nprocs + pid``.  A variable
    whose domain cannot be enumerated into a hash table (or exceeds
    :data:`MAX_DOMAIN_SIZE`) gets no table -- its cells mirror as ``0``
    and every action touching it falls back to live evaluation.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.nprocs = program.nprocs
        self.names: tuple[str, ...] = tuple(
            sorted(d.name for d in program.declarations)
        )
        self.var_index: dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        self.ncells = len(self.names) * self.nprocs
        by_name = {d.name: d for d in program.declarations}
        self.tables: list[dict[Any, int] | None] = []
        for name in self.names:
            table: dict[Any, int] | None
            try:
                values = by_name[name].domain.values()
                # Size first: an oversized domain is never iterated.
                if not hasattr(values, "__len__"):
                    values = tuple(values)
                table = (
                    None
                    if len(values) > MAX_DOMAIN_SIZE
                    else {v: i for i, v in enumerate(values)}
                )
            except TypeError:
                table = None
            self.tables.append(table)

    def slot(self, var: str, pid: int) -> int:
        """Flat mirror index of cell ``(var, pid)``."""
        return self.var_index[var] * self.nprocs + pid

    def cell(self, slot: int) -> tuple[str, int]:
        """Inverse of :meth:`slot`."""
        return self.names[slot // self.nprocs], slot % self.nprocs

    def internable(self, var: str) -> bool:
        return self.tables[self.var_index[var]] is not None

    def encode_into(self, state: State, cells: list[int]) -> None:
        """Re-intern every cell of ``state`` into the mirror array."""
        n = self.nprocs
        base = 0
        for name, table in zip(self.names, self.tables):
            vec = state.vector(name)
            if table is not None:
                for i in range(n):
                    cells[base + i] = table[vec[i]]
            base += n

    def new_cells(self) -> list[int]:
        return [0] * self.ncells


class CompiledProgram(EnabledIndex):
    """The step engine with memoized guards and effects over an array
    mirror of the state.

    Everything about flags, dirty slots, selection and the
    :attr:`State.version` rebind rule is :class:`EnabledIndex`'s; this
    class overrides only what memoization changes: guard evaluation
    (:meth:`_guard`, through the evaluator table), the apply path
    (:meth:`execute` = :meth:`updates_for` + :meth:`apply`, through
    effect entries, with dirty slots derived from the updates applied --
    declared ``writes`` steer the live engine only), :meth:`step_round`
    (the round memo, and statements evaluated against the live pre-apply
    state instead of a snapshot copy), the mirror re-encode on rebind,
    and :meth:`successors`.  :meth:`run_rounds` batches rounds without
    a daemon around them.

    One instance per (daemon, program) -- memo tables persist across
    runs and across explorer root states, which is where the speedup
    comes from.
    """

    __slots__ = (
        "codec", "stats", "_g_slots", "_g_get", "_g_memo", "_g_fixed",
        "_e_slots", "_e_get", "_e_memo", "_round_capable", "_round_bytes",
        "_round_memo", "_prev_round", "_pending_prev", "_cells",
    )  # fmt: skip

    #: Memoized guards beat the plain scan even at ~1 evaluation a step.
    eager = True

    def __init__(self, program: Program, codec: StateCodec | None = None) -> None:
        super().__init__(program)
        self.codec = codec or StateCodec(program)
        n = len(self.actions)
        self.stats = {
            "guard_hits": 0,
            "guard_misses": 0,
            "guard_live": 0,
            "effect_hits": 0,
            "effect_misses": 0,
            "effect_live": 0,
            "rebinds": 0,
            "round_hits": 0,
            "round_misses": 0,
        }
        # Guard specialization state.  slots None => live (never cached,
        # always stale); fixed => declared read-set (trusted, no
        # recording on miss); otherwise the union is learned.
        self._g_slots: list[tuple[int, ...] | None] = []
        self._g_get: list[Callable[[list[int]], Any] | None] = []
        self._g_memo: list[dict[Any, bool]] = []
        self._g_fixed: list[bool] = []
        for action in self.actions:
            slots: tuple[int, ...] | None
            if action.reads is None:
                slots, fixed = (), False
            else:
                slots, fixed = self._slots_for_cells(action.reads), True
            self._g_slots.append(slots)
            self._g_get.append(self._getter(slots))
            self._g_memo.append({})
            self._g_fixed.append(fixed)
        self._eval = [partial(self._guard, idx) for idx in range(n)]
        # Effect specialization state: always learned.
        self._e_slots: list[tuple[int, ...] | None] = [()] * n
        self._e_get: list[Callable[[list[int]], Any] | None] = [None] * n
        self._e_memo: list[dict[Any, _EffectEntry]] = [{} for _ in range(n)]
        # What is live and who watches what follows the specialization,
        # not the declarations: an undeclared guard is learned (watched
        # through its learned slots), a guard over uninternable cells is
        # live even when declared.
        self._live = sorted(
            idx for idx, s in enumerate(self._g_slots) if s is None
        )
        self._watchers = {}
        for idx, slots in enumerate(self._g_slots):
            if slots:
                for slot in slots:
                    self._watchers.setdefault(slot, []).append(idx)
        # Round-level memo (maximal-parallel semantics): when every
        # domain is interned the mirror determines the state uniquely,
        # and a draw-free round is a pure function of it -- steady-state
        # cycling replays whole rounds off one dict lookup.
        tables = self.codec.tables
        self._round_capable = all(t is not None for t in tables)
        self._round_bytes = all(
            t is not None and len(t) < 256 for t in tables
        )
        self._round_memo: dict[Any, _RoundEntry] = {}
        #: The entry applied last round (chain head), and the chain-valid
        #: predecessor of a round being evaluated (linked on store).
        self._prev_round: _RoundEntry | None = None
        self._pending_prev: _RoundEntry | None = None
        self._cells: list[int] = self.codec.new_cells()

    # ------------------------------------------------------------------
    # Specialization plumbing
    # ------------------------------------------------------------------
    def _slots_for_cells(self, cells: Any) -> tuple[int, ...] | None:
        """Sorted mirror slots for a cell set; None if any is uninternable."""
        codec = self.codec
        out = []
        for var, pid in cells:
            if var not in codec.var_index or not codec.internable(var):
                return None
            out.append(codec.slot(var, pid))
        return tuple(sorted(out))

    @staticmethod
    def _getter(
        slots: tuple[int, ...] | None,
    ) -> Callable[[list[int]], Any] | None:
        if not slots:
            return None
        return itemgetter(*slots)

    def _demote_guard(self, idx: int) -> None:
        self._g_slots[idx] = None
        self._g_get[idx] = None
        self._g_memo[idx].clear()
        if idx not in self._live:
            insort(self._live, idx)
        self._stale[idx] = 1

    def _grow_guard(self, idx: int, observed: Any) -> bool:
        """Extend a learned guard union; False demotes the guard."""
        merged = self._slots_for_cells(observed)
        if merged is None:
            self._demote_guard(idx)
            return False
        current = self._g_slots[idx]
        assert current is not None
        union = tuple(sorted(set(current) | set(merged)))
        if union != current:
            self._g_slots[idx] = union
            self._g_get[idx] = self._getter(union)
            self._g_memo[idx].clear()
            for slot in set(union) - set(current):
                self._watchers.setdefault(slot, []).append(idx)
        return True

    # ------------------------------------------------------------------
    # Guard evaluation
    # ------------------------------------------------------------------
    def _guard(self, idx: int, state: State, rng: Any = None) -> bool:
        """Action ``idx``'s guard through its memo; what the inherited
        flag protocol calls (via the evaluator table) in place of
        ``Action.enabled``."""
        slots = self._g_slots[idx]
        if slots is None:
            self.stats["guard_live"] += 1
            return self.actions[idx].enabled(state, rng)
        getter = self._g_get[idx]
        key = getter(self._cells) if getter is not None else ()
        memo = self._g_memo[idx]
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            self.stats["guard_hits"] += 1
            return hit  # type: ignore[return-value]
        self.stats["guard_misses"] += 1
        action = self.actions[idx]
        if self._g_fixed[idx]:
            # Declared read-set: the purity contract says no RNG draws
            # and no reads outside the declaration -- evaluate plainly.
            result = action.enabled(state, rng)
            memo[key] = result
            return result
        proxy = _CountingRng(rng) if rng is not None else None
        view = RecordingStateView(state, action.pid, proxy)
        result = bool(action.guard(view))
        if proxy is not None and proxy.draws:
            self._demote_guard(idx)
            return result
        if not self._grow_guard(idx, view.observed):
            return result
        getter = self._g_get[idx]
        key = getter(self._cells) if getter is not None else ()
        self._g_memo[idx][key] = result
        return result

    def _rebind(self, state: State) -> None:
        """Re-encode the mirror: it is what every memo key reads."""
        self.stats["rebinds"] += 1
        self.codec.encode_into(state, self._cells)
        self._state = state

    # ------------------------------------------------------------------
    # Effect evaluation and application
    # ------------------------------------------------------------------
    def updates_for(
        self, idx: int, state: State, rng: Any = None
    ) -> tuple[list[tuple[str, Any]], _EffectEntry | None]:
        """Evaluate action ``idx``'s statement against the current
        (pre-apply) state; returns ``(updates, entry)`` where ``entry``
        is the precomputed application payload on a memo hit/store."""
        slots = self._e_slots[idx]
        if slots is None:
            self.stats["effect_live"] += 1
            return self.actions[idx].updates(state, rng), None
        getter = self._e_get[idx]
        key = getter(self._cells) if getter is not None else ()
        entry = self._e_memo[idx].get(key)
        if entry is not None:
            self.stats["effect_hits"] += 1
            return list(entry.updates), entry
        return self._effect_miss(idx, state, rng, key)

    def _effect_miss(
        self, idx: int, state: State, rng: Any, key: Any
    ) -> tuple[list[tuple[str, Any]], _EffectEntry | None]:
        self.stats["effect_misses"] += 1
        action = self.actions[idx]
        proxy = _CountingRng(rng) if rng is not None else None
        view = RecordingStateView(state, action.pid, proxy)
        result = action.statement(view)
        ups = list(result) if result is not None else []
        if proxy is not None and proxy.draws:
            # Nondeterministic statement: never memoize, always re-draw.
            self._e_slots[idx] = None
            self._e_memo[idx].clear()
            return ups, None
        merged = self._slots_for_cells(view.observed)
        if merged is None:
            self._e_slots[idx] = None
            self._e_memo[idx].clear()
            return ups, None
        current = self._e_slots[idx]
        assert current is not None
        union = tuple(sorted(set(current) | set(merged)))
        if union != current:
            self._e_slots[idx] = union
            self._e_get[idx] = self._getter(union)
            self._e_memo[idx].clear()
            getter = self._e_get[idx]
            key = getter(self._cells) if getter is not None else ()
        entry = self._build_entry(idx, ups)
        if entry is None:
            return ups, None
        self._e_memo[idx][key] = entry
        return ups, entry

    def _build_entry(
        self, idx: int, ups: list[tuple[str, Any]]
    ) -> _EffectEntry | None:
        codec = self.codec
        pid = self.pid_of[idx]
        n = codec.nprocs
        triples = []
        mirror = []
        dirty = []
        for var, value in ups:
            vi = codec.var_index.get(var)
            if vi is None:
                return None  # unknown variable: let the live path raise
            triples.append((var, pid, value))
            slot = vi * n + pid
            dirty.append(slot)
            table = codec.tables[vi]
            if table is not None:
                iv = table.get(value)
                if iv is None:
                    return None  # out-of-table value: stay live
                mirror.append((slot, iv))
        return _EffectEntry(
            tuple(ups), tuple(triples), tuple(mirror), tuple(dirty)
        )

    def apply(
        self,
        idx: int,
        state: State,
        ups: list[tuple[str, Any]],
        entry: _EffectEntry | None,
    ) -> None:
        """Write-through one action's updates: real state (batched),
        mirror cells, dirty slots."""
        if entry is not None:
            if entry.triples:
                state.write_cells(entry.triples)
                cells = self._cells
                for slot, iv in entry.mirror:
                    cells[slot] = iv
                self._dirty.update(entry.dirty)
        elif ups:
            codec = self.codec
            pid = self.pid_of[idx]
            n = codec.nprocs
            cells = self._cells
            dirty = self._dirty
            state.write_cells((var, pid, value) for var, value in ups)
            for var, value in ups:
                vi = codec.var_index[var]
                slot = vi * n + pid
                dirty.add(slot)
                table = codec.tables[vi]
                if table is not None:
                    iv = table.get(value)
                    if iv is not None:
                        cells[slot] = iv
                    else:
                        # Keep soundness: a value we cannot intern makes
                        # every key over this slot unreliable.
                        self._poison_slot(slot)
        self._expected_version = state.version

    def _poison_slot(self, slot: int) -> None:
        """Demote every specialized guard/effect keyed on ``slot``."""
        for idx, slots in enumerate(self._g_slots):
            if slots and slot in slots:
                self._demote_guard(idx)
        for idx, slots in enumerate(self._e_slots):
            if slots and slot in slots:
                self._e_slots[idx] = None
                self._e_memo[idx].clear()
        # The mirror no longer determines the state at this slot.
        self._round_capable = False
        self._round_memo.clear()
        self._prev_round = None
        self._pending_prev = None

    def execute(
        self, idx: int, state: State, rng: Any = None
    ) -> list[tuple[str, Any]]:
        """Interleaving-semantics helper: evaluate and apply in one step."""
        ups, entry = self.updates_for(idx, state, rng)
        self.apply(idx, state, ups, entry)
        return ups

    # ------------------------------------------------------------------
    # Batched maximal-parallel rounds
    # ------------------------------------------------------------------
    def _round_key(self) -> Any:
        cells = self._cells
        return bytes(cells) if self._round_bytes else tuple(cells)

    def _round_fast(
        self, state: State
    ) -> tuple[_RoundEntry | None, Any]:
        """Round-memo fast path: chain pointer first, then keyed lookup;
        a hit is applied in place.  Returns ``(entry, key)``:  ``entry``
        non-None means the round already ran; otherwise ``key`` is what
        :meth:`store_round` should file this round under (``None`` when
        the mirror is not known-current, i.e. unbound or live guards).

        Hits are valid only when the mirror is bound to ``state``
        (version match), every domain is interned, and no guard is live
        -- the conditions under which flags, selection and effects are a
        pure function of the cells.  The successor of a chained round is
        unique, so ``prev.next`` needs no key comparison at all.
        """
        if not (
            self._round_capable
            and not self._live
            and state is self._state
            and state.version == self._expected_version
        ):
            self._prev_round = None
            self._pending_prev = None
            return None, None
        prev = self._prev_round
        entry = prev.next if prev is not None else None
        if entry is None:
            key = self._round_key()
            entry = self._round_memo.get(key)
            if entry is None:
                self.stats["round_misses"] += 1
                self._prev_round = None
                self._pending_prev = prev
                return None, key
            if prev is not None:
                prev.next = entry
        self.stats["round_hits"] += 1
        if entry.triples:
            state.write_cells(entry.triples)
            cells = self._cells
            for slot, iv in entry.mirror:
                cells[slot] = iv
            self._dirty.update(entry.dirty)
            self._expected_version = state.version
        # Flags were not maintained; recompute the enabled list from the
        # (dirty-covered) flag cache on the next miss round.
        self._enabled = None
        self._prev_round = entry
        return entry, None

    def store_round(
        self,
        key: Any,
        evaluated: list[tuple[int, tuple[list[tuple[str, Any]], Any]]],
        singles: bool,
    ) -> None:
        """Memoize a completed round if it was provably draw-free: the
        selection was all singletons, no guard went live during the
        round, and every effect produced a memo entry."""
        prev, self._pending_prev = self._pending_prev, None
        if (
            key is None
            or not singles
            or not self._round_capable
            or self._live
        ):
            return
        triples: list[tuple[str, int, Any]] = []
        mirror: list[tuple[int, int]] = []
        dirty: list[int] = []
        fires: list[tuple[int, tuple[tuple[str, Any], ...]]] = []
        for i, (ups, entry) in evaluated:
            if entry is None:
                return
            triples.extend(entry.triples)
            mirror.extend(entry.mirror)
            dirty.extend(entry.dirty)
            fires.append((i, tuple(ups)))
        memo = self._round_memo
        if len(memo) >= ROUND_MEMO_MAX:
            memo.clear()
        stored = _RoundEntry(
            tuple(triples), tuple(mirror), tuple(dirty), tuple(fires)
        )
        memo[key] = stored
        if prev is not None:
            prev.next = stored
        self._prev_round = stored

    def step_round(
        self, state: State, rng: Any = None, random_choice: bool = False
    ) -> list[tuple[int, list[tuple[str, Any]]]]:
        """One maximal-parallel round in place, through the round memo;
        returns ``(action index, updates)`` pairs in firing order.
        Selection, evaluation order and RNG usage match the live engine
        exactly; every chosen statement is evaluated against the
        pre-apply state before any update is applied."""
        entry, key = self._round_fast(state)
        if entry is not None:
            return [(i, list(ups)) for i, ups in entry.fires]
        self.refresh(state, rng)
        if key is None and self._round_capable and not self._live:
            # The rebind made the mirror current; memoize this round too
            # (first round, and rounds after external writes).
            key = self._round_key()
        chosen = self.select_round(rng, random_choice)
        if not chosen:
            self._pending_prev = None
            return []
        # One choice per enabled action means every process had a single
        # candidate: the selection drew nothing either way.
        singles = len(chosen) == len(self.enabled_slots())
        evaluated = [(i, self.updates_for(i, state, rng)) for i in chosen]
        for i, (ups, eff) in evaluated:
            self.apply(i, state, ups, eff)
        self.store_round(key, evaluated, singles)
        return [(i, ups) for i, (ups, _eff) in evaluated]

    def run_rounds(
        self,
        state: State,
        rounds: int,
        rng: Any = None,
        random_choice: bool = False,
    ) -> int:
        """Run up to ``rounds`` maximal-parallel rounds in place, without
        per-step daemon/tracer overhead; returns actions fired.  Stops
        early when the program goes silent."""
        fired = 0
        for _ in range(rounds):
            fires = self.step_round(state, rng, random_choice)
            if not fires:  # stored rounds always fire something
                break
            fired += len(fires)
        return fired

    # ------------------------------------------------------------------
    # Explorer interface
    # ------------------------------------------------------------------
    def successors(self, state: State) -> list[State]:
        """Same states, in the same action order, as the live engine's,
        through the guard and effect memos.  Not stateless: it re-encodes
        the shared mirror, so calls must be serialized."""
        self.codec.encode_into(state, self._cells)
        # Drop any daemon-style binding (the mirror no longer matches
        # it): the next refresh/mark_stale rebinds and rebuilds.
        self._state = None
        out = []
        for idx in range(len(self.actions)):
            if self._guard(idx, state, None):
                ups, _entry = self.updates_for(idx, state, None)
                succ = state.snapshot()
                if ups:
                    pid = self.pid_of[idx]
                    succ.write_cells(
                        (var, pid, value) for var, value in ups
                    )
                out.append(succ)
        return out
