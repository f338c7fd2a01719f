"""Guarded-command program kernel (the SIEFAST substitute).

The paper's programs are written in Dijkstra-style guarded-command
notation: each process has a finite set of variables and a finite set of
actions ``name :: guard -> statement``.  A computation is a fair
interleaving of enabled actions; the performance study additionally uses
*maximal parallel* semantics where every process with an enabled action
executes one action per step.

This subpackage provides everything needed to express and execute those
programs:

* :mod:`repro.gc.domains` -- variable domains, including the special
  sequence-number values ``BOT`` and ``TOP`` from the token-ring program;
* :mod:`repro.gc.state` -- global program states (snapshot, restore,
  hashable keys for model checking);
* :mod:`repro.gc.actions` -- guarded actions whose effects are *pure*
  (they return an update set instead of mutating), which is what makes
  synchronous/maximal-parallel execution well defined;
* :mod:`repro.gc.program` -- processes and programs, plus superposition;
* :mod:`repro.gc.scheduler` -- daemons: round-robin, random-fair and
  maximal-parallel, each a plain evaluate-every-guard body plus one
  body over the step engine;
* :mod:`repro.gc.incremental` -- the step engine: cached guard
  enabledness with dirty-slot invalidation, and the ``execute`` /
  ``step_round`` / ``successors`` operations daemons and explorer step
  through;
* :mod:`repro.gc.simulator` -- run loops with stop predicates and traces;
* :mod:`repro.gc.timed` -- timed maximal-parallel execution with
  per-action durations (the paper's real-time values);
* :mod:`repro.gc.faults` -- fault environments (detectable/undetectable
  fault actions fired by schedules);
* :mod:`repro.gc.trace` -- event traces;
* :mod:`repro.gc.properties` -- closure/convergence and safety checkers;
* :mod:`repro.gc.explore` -- an explicit-state model checker for small
  instances (used to verify the paper's lemmas exhaustively);
* :mod:`repro.gc.compile` -- the compiled backend, a subclass of the
  step engine: guards and effects specialized into memo tables over an
  array-backed state mirror, with per-action fallback to live
  interpretation (``backend="compiled"`` on the daemons and the
  explorer).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.gc.domains import (
        BOT,
        TOP,
        Domain,
        EnumDomain,
        IntRange,
        SequenceNumberDomain,
    )
    from repro.gc.state import State
    from repro.gc.actions import Action, Update
    from repro.gc.program import Process, Program, VariableDecl
    from repro.gc.scheduler import (
        Daemon,
        MaximalParallelDaemon,
        RandomFairDaemon,
        RoundRobinDaemon,
    )
    from repro.gc.simulator import RunResult, Simulator
    from repro.gc.timed import TimedResult, TimedSimulator
    from repro.gc.faults import (
        BernoulliSchedule,
        ExponentialSchedule,
        FaultInjector,
        FaultSpec,
        OneShotSchedule,
    )
    from repro.gc.trace import Trace, TraceEvent, trace_digest
    from repro.gc.properties import (
        check_closure,
        converges,
        convergence_steps,
        holds_throughout,
    )
    from repro.gc.compile import CompiledProgram, StateCodec
    from repro.gc.explore import ExplorationResult, Explorer
    from repro.gc.notation import NotationError, compile_program, parse
    from repro.gc.temporal import (
        Verdict,
        always,
        atom,
        eventually,
        eventually_always,
        leads_to,
        record_run,
        until,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "domains": (
            "BOT", "TOP", "Domain", "EnumDomain", "IntRange", "SequenceNumberDomain",
        ),
        "state": ("State",),
        "actions": ("Action", "Update"),
        "program": ("Process", "Program", "VariableDecl"),
        "scheduler": (
            "Daemon", "MaximalParallelDaemon", "RandomFairDaemon", "RoundRobinDaemon",
        ),
        "simulator": ("RunResult", "Simulator"),
        "timed": ("TimedResult", "TimedSimulator"),
        "faults": (
            "BernoulliSchedule", "ExponentialSchedule", "FaultInjector", "FaultSpec",
            "OneShotSchedule",
        ),
        "trace": ("Trace", "TraceEvent", "trace_digest"),
        "properties": (
            "check_closure", "converges", "convergence_steps", "holds_throughout",
        ),
        "compile": ("CompiledProgram", "StateCodec"),
        "explore": ("ExplorationResult", "Explorer"),
        "notation": ("NotationError", "compile_program", "parse"),
        "temporal": (
            "Verdict", "always", "atom", "eventually", "eventually_always", "leads_to",
            "record_run", "until",
        ),
    },
)

__all__ = [
    "BOT",
    "TOP",
    "Domain",
    "EnumDomain",
    "IntRange",
    "SequenceNumberDomain",
    "State",
    "Action",
    "Update",
    "Process",
    "Program",
    "VariableDecl",
    "Daemon",
    "MaximalParallelDaemon",
    "RandomFairDaemon",
    "RoundRobinDaemon",
    "RunResult",
    "Simulator",
    "TimedResult",
    "TimedSimulator",
    "BernoulliSchedule",
    "ExponentialSchedule",
    "FaultInjector",
    "FaultSpec",
    "OneShotSchedule",
    "Trace",
    "TraceEvent",
    "trace_digest",
    "check_closure",
    "converges",
    "convergence_steps",
    "holds_throughout",
    "CompiledProgram",
    "StateCodec",
    "ExplorationResult",
    "Explorer",
    "NotationError",
    "compile_program",
    "parse",
    "Verdict",
    "always",
    "atom",
    "eventually",
    "eventually_always",
    "leads_to",
    "record_run",
    "until",
]
