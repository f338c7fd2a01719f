"""Explicit-state model checking for small program instances.

The paper proves its lemmas by hand; we additionally verify them
exhaustively on small instances (2-4 processes, 2-3 phases) by building
the full transition graph under the nondeterministic interleaving daemon
and checking:

* **invariants** over all reachable states;
* **closure** -- no transition leaves the legitimate set;
* **convergence** in three strengths:

  - ``all_paths_converge``: no cycle and no deadlock within the
    illegitimate states (every execution, fair or not, converges);
  - ``some_path_converges``: from every state some path reaches a
    legitimate state (CTL ``EF legit`` -- a necessary condition);
  - fairness-dependent convergence is sampled via
    :func:`repro.gc.properties.stabilization_profile` since weak fairness
    cannot be decided from the plain transition graph.

States are interned as :class:`KeyCodec` byte keys -- one byte per
``(variable, pid)`` cell holding the value's index in its domain.  They
hash and compare faster than nested ``State.key()`` tuples and occupy
about half the memory, which matters once graphs reach the
10^5..10^6 range; ``state_of`` decodes a key back into a
:class:`State`.

``Explorer`` caches each expanded key's successor keys, so repeated
explorations over overlapping regions (convergence checks from many
fault-perturbed roots) skip re-expansion.  The memo is bounded by
``max_states`` entries and cleared with :meth:`Explorer.clear_cache`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable

from repro.gc.incremental import EnabledIndex
from repro.gc.program import Program
from repro.gc.scheduler import _select_engine
from repro.gc.state import State

StatePredicate = Callable[[State], bool]

#: A state key: the :class:`KeyCodec` encoding of a state.
Key = bytes


class KeyCodec:
    """Bijective encoding of program states as compact byte strings.

    Each ``(variable, pid)`` cell stores the *index* of its value within
    the variable's declared domain, one byte per cell (two bytes for
    domains larger than 256 values), variables in sorted-name order to
    match :meth:`State.key`.  Encoding requires every variable's domain
    to be enumerable and every reachable value to be in it -- which holds
    for all programs built by this package, since domains validate
    writes.  A domain wider than :data:`MAX_DOMAIN` values has no
    two-byte index and is refused with a ``ValueError``.
    """

    #: The widest domain a two-byte cell can index.
    MAX_DOMAIN = 1 << 16

    def __init__(self, program: Program) -> None:
        self.program = program
        self.nprocs = program.nprocs
        self._names: list[str] = sorted(
            decl.name for decl in program.declarations
        )
        by_name = {decl.name: decl for decl in program.declarations}
        self._tables: list[dict] = []
        self._values: list[tuple] = []
        self.wide = False
        for name in self._names:
            values = tuple(by_name[name].domain.values())
            if len(values) > self.MAX_DOMAIN:
                raise ValueError(
                    f"variable {name!r} has {len(values)} domain values; "
                    f"KeyCodec indexes at most {self.MAX_DOMAIN}"
                )
            if len(values) > 256:
                self.wide = True
            self._values.append(values)
            self._tables.append({v: i for i, v in enumerate(values)})

    def encode(self, state: State) -> bytes:
        """Compact key of ``state`` (inverse of :meth:`decode`)."""
        out = bytearray()
        for name, table in zip(self._names, self._tables):
            if self.wide:
                for v in state.vector(name):
                    out += table[v].to_bytes(2, "big")
            else:
                out += bytes(table[v] for v in state.vector(name))
        return bytes(out)

    def decode(self, key: bytes) -> State:
        """Rebuild the :class:`State` a compact key encodes."""
        n = self.nprocs
        width = 2 if self.wide else 1
        vectors: dict[str, list] = {}
        offset = 0
        for name, values in zip(self._names, self._values):
            cells = []
            for _ in range(n):
                idx = int.from_bytes(key[offset : offset + width], "big")
                cells.append(values[idx])
                offset += width
            vectors[name] = cells
        return State(vectors, n)


@dataclass
class ExplorationResult:
    """The transition graph over reachable states.

    Semantics (identical whether or not the search was truncated):

    * ``transitions`` has exactly one entry per key in :attr:`states`,
      and that entry is the state's *complete* successor set -- an empty
      set always means a genuinely silent state.
    * Under truncation, successor sets may mention keys that are *not*
      in :attr:`states`: states discovered after the ``max_states``
      budget was exhausted.  Those dropped keys are collected in
      :attr:`unexpanded` (empty iff not :attr:`truncated`); they are
      decodable via :meth:`state_of` but have no successor information.
      Closure checks therefore remain exact on truncated graphs, while
      algorithms needing full reachability must refuse them (the
      convergence checks below do).
    """

    program: Program
    #: The codec the keys were encoded with (:meth:`state_of` decodes).
    codec: KeyCodec
    states: set[Key]
    transitions: dict[Key, set[Key]]
    truncated: bool = False
    initial: set[Key] = field(default_factory=set)
    #: Keys discovered but dropped by the budget (empty unless
    #: ``truncated``); never overlaps ``states``.
    unexpanded: set[Key] = field(default_factory=set)

    def state_of(self, key: Key) -> State:
        return self.codec.decode(key)

    def __len__(self) -> int:
        return len(self.states)


class Explorer:
    """Breadth-first exploration of a program's state space, keyed by
    :class:`KeyCodec` byte strings (see module docstring)."""

    def __init__(
        self,
        program: Program,
        max_states: int = 200_000,
        backend: str = "interpreter",
    ) -> None:
        self.program = program
        self.max_states = max_states
        self.backend = backend
        # One engine expands every state.  The live engine's
        # ``successors`` is stateless, so a program the daemons would
        # run plain (nothing declared: no engine) still goes through it.
        self._engine = _select_engine(program, backend) or EnabledIndex(program)
        self.codec = KeyCodec(program)
        #: key -> its successor keys (states are rebuilt on demand, so
        #: the memo never holds the whole graph's states).
        self._succ_memo: dict[Key, tuple[Key, ...]] = {}

    def clear_cache(self) -> None:
        """Drop the successor memo (after mutating the program, say)."""
        self._succ_memo.clear()

    # ------------------------------------------------------------------
    def successors(self, state: State) -> list[State]:
        """All one-step successors under nondeterministic interleaving.

        The paper's ``any k`` / arbitrary-value choices are expanded by
        re-evaluating each enabled action deterministically; for full
        nondeterminism of witnesses the programs expose deterministic
        witness selection (first match), which is sound for invariant
        checking because witness choice never affects the *set* of
        control-position transitions, only which equal phase value is
        copied.  Actions whose statements are genuinely nondeterministic
        should express the choice through distinct actions.
        """
        return self._engine.successors(state)

    def _expand(
        self, state: State, key: Key
    ) -> tuple[tuple[Key, State | None], ...]:
        """Successors of ``key`` as (key, state) pairs, memoized.

        On a memo hit the states are rebuilt from their keys only when
        the caller actually needs them (i.e. when the key is new), which
        the BFS below exploits.
        """
        cached = self._succ_memo.get(key)
        if cached is not None:
            return tuple((sk, None) for sk in cached)
        encode = self.codec.encode
        pairs = tuple((encode(s), s) for s in self.successors(state))
        if len(self._succ_memo) < self.max_states:
            self._succ_memo[key] = tuple(sk for sk, _ in pairs)
        return pairs

    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[State]) -> ExplorationResult:
        """Breadth-first search from ``roots``.

        States are expanded strictly in BFS layer order (all roots, then
        all depth-1 states in discovery order, ...), so ``max_states``
        truncation keeps a distance-bounded ball around the roots rather
        than a depth-first sliver.
        """
        frontier: deque[tuple[Key, State]] = deque()
        initial: set[Key] = set()
        for s in roots:
            snap = s.snapshot()
            k = self.codec.encode(snap)
            if k not in initial:
                initial.add(k)
                frontier.append((k, snap))
        seen: set[Key] = set(initial)
        transitions: dict[Key, set[Key]] = {}
        truncated = False
        while frontier:
            key, state = frontier.popleft()
            succs = set()
            for skey, sstate in self._expand(state, key):
                succs.add(skey)
                if skey in seen:
                    continue
                if len(seen) >= self.max_states:
                    truncated = True
                    continue
                seen.add(skey)
                if sstate is None:  # memo hit: rebuild lazily
                    sstate = self.state_of(skey)
                frontier.append((skey, sstate))
            transitions[key] = succs
        for key in seen:
            transitions.setdefault(key, set())
        unexpanded: set[Key] = set()
        if truncated:
            for succs in transitions.values():
                unexpanded.update(succs - seen)
        return ExplorationResult(
            self.program,
            self.codec,
            seen,
            transitions,
            truncated,
            initial,
            unexpanded,
        )

    def state_of(self, key: Key) -> State:
        """Decode a key produced by this explorer."""
        return self.codec.decode(key)

    def full_state_space(self) -> list[State]:
        """Every syntactically possible state (product of domains).

        Only usable for very small instances; raises if the space exceeds
        ``max_states``.
        """
        domains = [
            (decl.name, tuple(decl.domain.values()))
            for decl in self.program.declarations
        ]
        n = self.program.nprocs
        total = 1
        for _, vals in domains:
            total *= len(vals) ** n
        if total > self.max_states:
            raise ValueError(
                f"state space of size {total} exceeds max_states="
                f"{self.max_states}"
            )
        states = []
        per_var_assignments = [
            list(product(vals, repeat=n)) for _, vals in domains
        ]
        names = [name for name, _ in domains]
        for combo in product(*per_var_assignments):
            vectors = {name: list(vec) for name, vec in zip(names, combo)}
            states.append(State(vectors, n))
        return states

    # ------------------------------------------------------------------
    def check_invariant(
        self, result: ExplorationResult, invariant: StatePredicate
    ) -> list[Key]:
        """Return all reachable states violating ``invariant``."""
        return [
            key
            for key in result.states
            if not invariant(result.state_of(key))
        ]

    def check_closure(
        self, result: ExplorationResult, legitimate: StatePredicate
    ) -> list[tuple[Key, Key]]:
        """Return transitions that exit the legitimate set."""
        bad = []
        for key, succs in result.transitions.items():
            if not legitimate(result.state_of(key)):
                continue
            for skey in succs:
                if not legitimate(result.state_of(skey)):
                    bad.append((key, skey))
        return bad

    def all_paths_converge(
        self, result: ExplorationResult, legitimate: StatePredicate
    ) -> bool:
        """No illegitimate cycle, no illegitimate deadlock.

        Sound and complete for convergence of *all* (not just fair)
        executions within the explored graph.
        """
        if result.truncated:
            raise ValueError("cannot decide convergence on a truncated graph")
        legit = {
            key for key in result.states if legitimate(result.state_of(key))
        }
        # Deadlocks (silent states) outside the legitimate set fail.
        for key in result.states - legit:
            if not result.transitions[key]:
                return False
        # Cycle detection restricted to illegitimate states.
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[Key, int] = {k: WHITE for k in result.states - legit}
        for start in list(color):
            if color[start] != WHITE:
                continue
            stack: list[tuple[Key, Iterable[Key]]] = [
                (start, iter(result.transitions[start]))
            ]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ in legit:
                        continue
                    c = color.get(succ, WHITE)
                    if c == GRAY:
                        return False  # illegitimate cycle
                    if c == WHITE:
                        color[succ] = GRAY
                        stack.append((succ, iter(result.transitions[succ])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return True

    def some_path_converges(
        self, result: ExplorationResult, legitimate: StatePredicate
    ) -> bool:
        """CTL ``EF legitimate`` from every explored state (backwards
        reachability from the legitimate set)."""
        if result.truncated:
            raise ValueError("cannot decide convergence on a truncated graph")
        predecessors: dict[Key, set[Key]] = {k: set() for k in result.states}
        for key, succs in result.transitions.items():
            for skey in succs:
                predecessors.setdefault(skey, set()).add(key)
        legit = [
            key for key in result.states if legitimate(result.state_of(key))
        ]
        can_reach = set(legit)
        frontier = list(legit)
        while frontier:
            node = frontier.pop()
            for pred in predecessors.get(node, ()):
                if pred not in can_reach:
                    can_reach.add(pred)
                    frontier.append(pred)
        return can_reach >= result.states
