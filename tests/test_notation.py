"""The guarded-command notation: lexer, parser, compiler, and the
equivalence of the textual paper programs with the hand-built ones."""

import pytest

from repro.barrier.cb import cb_detectable_fault, make_cb
from repro.barrier.control import CP
from repro.barrier.sources import compile_cb, compile_token_ring
from repro.barrier.spec import BarrierSpecChecker
from repro.barrier.tokenring import make_token_ring
from repro.gc.domains import BOT, TOP
from repro.gc.explore import Explorer
from repro.gc.faults import BernoulliSchedule, FaultInjector
from repro.gc.notation import NotationError, compile_program, parse, tokenize
from repro.gc.scheduler import RandomFairDaemon, RoundRobinDaemon
from repro.gc.simulator import Simulator
from repro.gc.state import State


class TestLexer:
    def test_tokens(self):
        toks = tokenize("x.j := (y.k + 1) % n  # comment")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert ("op", ":=") in kinds
        assert ("op", "%") in kinds
        assert kinds[-1] == ("name", "n")

    def test_bad_character(self):
        with pytest.raises(NotationError, match="unexpected character"):
            tokenize("x @ y")


class TestParser:
    def test_minimal_program(self):
        pdef = parse(
            """
            program P
            var x : int[0, 3] = 0
            action A :: x.j < 3 -> x.j := x.j + 1
            """
        )
        assert pdef.name == "P"
        assert pdef.variables[0].name == "x"
        assert pdef.actions[0].name == "A"

    def test_site_clause(self):
        pdef = parse(
            """
            program P
            var x : int[0, 1] = 0
            action A [j = 0] :: true -> x.j := 1
            action B [j != N] :: true -> x.j := 0
            """
        )
        assert pdef.actions[0].site == ("=", "0")
        assert pdef.actions[1].site == ("!=", "N")

    def test_if_elif_else(self):
        pdef = parse(
            """
            program P
            var x : int[0, 5] = 0
            action A :: true ->
                if x.j = 0 then x.j := 1
                elif x.j = 1 then x.j := 2
                else x.j := 0
                fi
            """
        )
        branches = pdef.actions[0].statements[0].branches
        assert len(branches) == 3
        assert branches[2][0] is None

    @pytest.mark.parametrize(
        "bad,msg",
        [
            ("program P", "at least one var"),
            ("program P\nvar x : int[0,1] = 0\naction A :: true -> 5 := 1", ""),
            ("program P\nvar x : blob = 0\naction A :: true -> x.j := 0", "unknown domain"),
            ("program P\nvar x : int[0,1] = 0\naction A [k = 0] :: true -> x.j := 0", ""),
        ],
    )
    def test_errors(self, bad, msg):
        with pytest.raises(NotationError):
            parse(bad)


class TestCompiler:
    def test_counter_program_runs(self):
        prog = compile_program(
            """
            program Counters
            param cap
            var x : int[0, cap] = 0
            action INC :: x.j < cap -> x.j := x.j + 1
            """,
            nprocs=3,
            params={"cap": 4},
        )
        result = Simulator(prog, RoundRobinDaemon()).run(max_steps=100)
        assert result.state.vector("x") == (4, 4, 4)
        assert result.stopped_by == "silent"

    def test_missing_param(self):
        with pytest.raises(NotationError, match="missing parameter"):
            compile_program(
                """
                program P
                param cap
                var x : int[0, cap] = 0
                action A :: true -> x.j := 0
                """,
                nprocs=2,
            )

    def test_neighbour_reference(self):
        prog = compile_program(
            """
            program Copy
            var x : int[0, 9] = 0
            action SEED [j = 0] :: x.j = 0 -> x.j := 5
            action COPY [j != 0] :: x.(j - 1) > x.j -> x.j := x.(j - 1)
            """,
            nprocs=4,
        )
        result = Simulator(prog, RoundRobinDaemon()).run(max_steps=100)
        assert result.state.vector("x") == (5, 5, 5, 5)

    def test_own_writes_only(self):
        prog = compile_program(
            """
            program Bad
            var x : int[0, 1] = 0
            action A :: true -> x.(j + 1) := 1
            """,
            nprocs=2,
        )
        with pytest.raises(NotationError, match="own variables"):
            prog.processes[0].actions[0].execute(prog.initial_state())

    def test_any_default(self):
        prog = compile_program(
            """
            program AnyDemo
            var x : int[0, 9] = 3
            var y : int[0, 9] = 0
            action A :: y.j = 0 -> y.j := any k : x.k = 7 : x.k default 9
            """,
            nprocs=2,
        )
        state = prog.initial_state()
        prog.processes[0].actions[0].execute(state)
        assert state.get("y", 0) == 9  # no witness -> default

    def test_quantifiers(self):
        prog = compile_program(
            """
            program Q
            var x : int[0, 1] = 0
            action A :: (forall k : x.k = 0) and not (exists k : x.k = 1) ->
                x.j := 1
            """,
            nprocs=3,
        )
        state = prog.initial_state()
        a0 = prog.processes[0].actions[0]
        assert a0.enabled(state)
        a0.execute(state)
        assert not prog.processes[1].actions[0].enabled(state)


class TestUnparse:
    @pytest.mark.parametrize(
        "source_name",
        ["CB_SOURCE", "TOKEN_RING_SOURCE", "RB_SOURCE", "MB_SOURCE"],
    )
    def test_roundtrip_all_paper_programs(self, source_name):
        """parse(unparse(parse(src))) is structurally identical for all
        four paper programs."""
        import repro.barrier.sources as sources
        from repro.gc.notation import unparse

        pdef = parse(getattr(sources, source_name))
        again = parse(unparse(pdef))
        assert again == pdef

    def test_unparse_readable(self):
        from repro.barrier.sources import CB_SOURCE
        from repro.gc.notation import unparse

        text = unparse(parse(CB_SOURCE))
        assert "program CB" in text
        assert "action CB3" in text
        assert ":=" in text and "fi" in text

    def test_roundtrip_compiles_identically(self):
        from repro.barrier.sources import CP_LITERALS, CB_SOURCE
        from repro.gc.notation import unparse

        a = compile_program(
            CB_SOURCE, nprocs=2, params={"n": 2}, literal_values=CP_LITERALS
        )
        b = compile_program(
            unparse(parse(CB_SOURCE)),
            nprocs=2,
            params={"n": 2},
            literal_values=CP_LITERALS,
        )
        ex = Explorer(a)
        roots = ex.full_state_space()
        assert transition_graph(a, roots) == transition_graph(b, roots)


def transition_graph(program, roots):
    """The graph with keys decoded to ``State.key()`` tuples: byte keys
    compare only under one codec, and the programs compared here are
    different programs with codecs of their own."""
    explorer = Explorer(program)
    result = explorer.reachable(roots)

    def norm(key):
        return result.state_of(key).key()

    return {norm(k) for k in result.states}, {
        norm(k): frozenset(norm(s) for s in v)
        for k, v in result.transitions.items()
    }


class TestPaperSourceEquivalence:
    """The compiled paper texts are transition-equivalent to the
    hand-built programs -- checked exhaustively on small instances."""

    def test_cb_equivalent(self):
        hand = make_cb(2, 2)
        compiled = compile_cb(2, 2)
        ex = Explorer(hand)
        roots = ex.full_state_space()  # from EVERY state, not just initial
        assert transition_graph(hand, roots) == transition_graph(
            compiled, roots
        )

    def test_cb_equivalent_three_procs(self):
        hand = make_cb(3, 2)
        compiled = compile_cb(3, 2)
        roots = [hand.initial_state()]
        assert transition_graph(hand, roots) == transition_graph(
            compiled, roots
        )

    def test_token_ring_equivalent(self):
        hand = make_token_ring(3)
        compiled = compile_token_ring(3)
        ex = Explorer(hand)
        roots = ex.full_state_space()
        assert transition_graph(hand, roots) == transition_graph(
            compiled, roots
        )

    def test_compiled_cb_is_masking(self):
        """The compiled text inherits the tolerance properties."""
        prog = compile_cb(4, 3)
        injector = FaultInjector(
            prog, cb_detectable_fault(), BernoulliSchedule(0.02), seed=0
        )
        sim = Simulator(prog, RandomFairDaemon(seed=0), injector=injector)
        result = sim.run(max_steps=10_000)
        report = BarrierSpecChecker(4, 3).check(result.trace, prog.initial_state())
        assert injector.count > 0
        assert report.safety_ok
        assert report.phases_completed > 30

    def test_compiled_token_ring_runs(self):
        prog = compile_token_ring(5)
        result = Simulator(prog, RoundRobinDaemon()).run(max_steps=50)
        assert result.trace.count("T1") == 10

    def test_compiled_ring_flush(self):
        prog = compile_token_ring(4)
        state = State({"sn": [BOT] * 4}, 4)
        result = Simulator(prog, RoundRobinDaemon()).run(state, max_steps=200)
        values = result.state.vector("sn")
        assert all(v is not BOT and v is not TOP for v in values)

    def test_rb_equivalent(self):
        from repro.barrier.rb import make_rb
        from repro.barrier.sources import compile_rb

        hand = make_rb(3, nphases=2)
        compiled = compile_rb(3, nphases=2)
        # From the fault-free initial state AND from a batch of random
        # perturbations (the interesting recovery transitions).
        import numpy as np

        rng = np.random.default_rng(5)
        roots = [hand.initial_state()] + [
            hand.arbitrary_state(rng) for _ in range(12)
        ]
        assert transition_graph(hand, roots) == transition_graph(
            compiled, roots
        )

    def test_mb_equivalent(self):
        from repro.barrier.mb import make_mb
        from repro.barrier.sources import compile_mb

        hand = make_mb(2, nphases=2)
        compiled = compile_mb(2, nphases=2)
        import numpy as np

        rng = np.random.default_rng(9)
        roots = [hand.initial_state()] + [
            hand.arbitrary_state(rng) for _ in range(12)
        ]
        assert transition_graph(hand, roots) == transition_graph(
            compiled, roots
        )

    @pytest.mark.parametrize(
        "source_name,hand_fault,params",
        [
            ("CB_SOURCE", "cb_detectable_fault", {"n": 2}),
            ("RB_SOURCE", "rb_detectable_fault", {"n": 2, "K": 4}),
            ("MB_SOURCE", "mb_detectable_fault", {"n": 2, "L": 6}),
        ],
    )
    def test_fault_declarations_match_hand_specs(
        self, source_name, hand_fault, params
    ):
        import repro.barrier.cb as cbm
        import repro.barrier.mb as mbm
        import repro.barrier.rb as rbm
        import repro.barrier.sources as sources
        from repro.gc.notation import compile_fault_specs

        specs = compile_fault_specs(
            getattr(sources, source_name),
            nprocs=3,
            params=params,
            literal_values=sources.CP_LITERALS,
        )
        assert set(specs) == {"detectable", "undetectable"}
        hand = getattr(
            {"cb": cbm, "rb": rbm, "mb": mbm}[source_name[:2].lower()],
            hand_fault,
        )()
        compiled = specs["detectable"]
        assert dict(compiled.resets) == dict(hand.resets)
        assert set(compiled.randomized) == set(hand.randomized)
        assert compiled.detectable
        assert not specs["undetectable"].detectable
        assert not specs["undetectable"].resets

    def test_fault_spec_is_usable(self):
        """The compiled fault spec drives the injector like the hand
        one: masking still holds."""
        from repro.barrier.sources import CP_LITERALS, CB_SOURCE, compile_cb
        from repro.gc.notation import compile_fault_specs

        prog = compile_cb(4, 3)
        spec = compile_fault_specs(
            CB_SOURCE, nprocs=4, params={"n": 3}, literal_values=CP_LITERALS
        )["detectable"]
        injector = FaultInjector(prog, spec, BernoulliSchedule(0.02), seed=1)
        sim = Simulator(prog, RandomFairDaemon(seed=1), injector=injector)
        result = sim.run(max_steps=8000)
        report = BarrierSpecChecker(4, 3).check(result.trace, prog.initial_state())
        assert injector.count > 0
        assert report.safety_ok

    def test_fault_parse_errors(self):
        with pytest.raises(NotationError, match="own variables"):
            parse(
                """
                program P
                var x : int[0,1] = 0
                action A :: true -> x.j := 0
                fault F :: x.(j + 1) := ?
                """
            )
        from repro.gc.notation import compile_fault_specs

        with pytest.raises(NotationError, match="unknown variable"):
            compile_fault_specs(
                """
                program P
                var x : int[0,1] = 0
                action A :: true -> x.j := 0
                fault F :: y.j := ?
                """,
            )

    def test_compiled_rb_progresses(self):
        from repro.barrier.sources import compile_rb

        prog = compile_rb(4, nphases=3)
        result = Simulator(prog, RoundRobinDaemon()).run(max_steps=240)
        report = BarrierSpecChecker(4, 3).check(result.trace, prog.initial_state())
        assert report.safety_ok and report.phases_completed == 20
