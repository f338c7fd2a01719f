"""Explorer fast path: byte keys, BFS order, memo, truncation."""

from __future__ import annotations

import pytest

from repro.barrier.cb import make_cb
from repro.barrier.mb import make_mb
from repro.barrier.rb import make_rb
from repro.barrier.tokenring import make_token_ring
from repro.barrier.trees import make_rb_tree
from repro.gc.domains import IntRange
from repro.gc.explore import Explorer, KeyCodec
from repro.gc.program import Process, Program, VariableDecl


def _graph_as_tuples(result):
    """The graph with every key decoded to its ``State.key()`` tuple."""
    def norm(k):
        return result.state_of(k).key()

    states = {norm(k) for k in result.states}
    transitions = {
        norm(k): {norm(s) for s in succs}
        for k, succs in result.transitions.items()
    }
    return states, transitions


def _reference_graph(program):
    """Breadth-first search over ``State.key()`` tuples through the
    program's plain successor relation: no codec, no memo, no engine."""
    explorer = Explorer(program)
    root = program.initial_state()
    seen = {root.key(): root}
    transitions = {}
    frontier = [root]
    while frontier:
        layer, frontier = frontier, []
        for state in layer:
            succs = explorer.successors(state)
            transitions[state.key()] = {s.key() for s in succs}
            for succ in succs:
                if succ.key() not in seen:
                    seen[succ.key()] = succ
                    frontier.append(succ)
    return set(seen), transitions


@pytest.mark.parametrize(
    "make_prog", [lambda: make_cb(3), lambda: make_token_ring(4)]
)
# The ids are the names the suite's floor list knows these cases by.
@pytest.mark.parametrize("compiled", [False, True], ids=["None-False", "None-True"])
def test_all_modes_build_the_same_graph(make_prog, compiled):
    """Byte-key exploration under either backend, memo cold and warm,
    decodes to the graph a tuple-key search builds independently."""
    program = make_prog()
    backend = "compiled" if compiled else "interpreter"
    explorer = Explorer(program, backend=backend)
    cold = explorer.reachable([program.initial_state()])
    warm = explorer.reachable([program.initial_state()])
    reference = _reference_graph(program)
    assert _graph_as_tuples(cold) == reference
    assert _graph_as_tuples(warm) == reference
    assert explorer.codec.encode(program.initial_state()) in cold.states


def test_key_codec_roundtrip():
    program = make_cb(3)
    codec = KeyCodec(program)
    for state in Explorer(program).full_state_space():
        assert codec.decode(codec.encode(state)).key() == state.key()


#: Every program family the suite explores, at small n.
FAMILIES = {
    "cb": lambda: make_cb(4),
    "rb-ring": lambda: make_rb(2, nphases=2, k=3),
    "rb-tree": lambda: make_rb_tree(3, arity=2),
    "mb": lambda: make_mb(2),
    "token-ring": lambda: make_token_ring(4),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_key_codec_round_trips_every_family(family):
    """Byte keys are the explorer's only state representation, so the
    codec must be a bijection on every state a check can meet: the full
    product of domains where it fits ``max_states``, else everything
    reachable from the initial state."""
    program = FAMILIES[family]()
    explorer = Explorer(program, max_states=5_000)
    codec = explorer.codec
    try:
        states = explorer.full_state_space()
    except ValueError:
        result = explorer.reachable([program.initial_state()])
        assert not result.truncated
        states = [result.state_of(k) for k in result.states]
        for key in result.states:
            assert codec.encode(codec.decode(key)) == key
    keys = set()
    for state in states:
        key = codec.encode(state)
        assert codec.decode(key).key() == state.key()
        keys.add(key)
    assert len(keys) == len(states)


def _one_variable(domain):
    decl = VariableDecl("x", domain, domain.values()[-1])
    return Program("wide", [decl], [Process(0, ())])


def test_key_codec_refuses_a_domain_it_cannot_index():
    """A domain wider than two bytes can index fails at construction,
    with a message naming the variable, not later in ``encode``."""
    too_wide = _one_variable(IntRange(0, KeyCodec.MAX_DOMAIN))
    with pytest.raises(ValueError, match="'x'"):
        KeyCodec(too_wide)
    with pytest.raises(ValueError, match="'x'"):
        Explorer(too_wide)
    # The widest domain it can index still round-trips, two bytes a cell.
    widest = _one_variable(IntRange(1, KeyCodec.MAX_DOMAIN))
    codec = KeyCodec(widest)
    state = widest.initial_state()
    assert len(codec.encode(state)) == 2
    assert codec.decode(codec.encode(state)) == state


def test_codec_keys_are_compact():
    program = make_cb(3)
    codec = KeyCodec(program)
    key = codec.encode(program.initial_state())
    # One byte per (variable, pid) cell: 2 variables x 3 processes.
    assert isinstance(key, bytes) and len(key) == 6


def test_successor_memo_reused_across_calls():
    program = make_cb(3)
    explorer = Explorer(program)
    first = explorer.reachable([program.initial_state()])
    assert explorer._succ_memo  # populated
    calls = {"n": 0}
    original = explorer.successors

    def counting(state):
        calls["n"] += 1
        return original(state)

    explorer.successors = counting
    second = explorer.reachable([program.initial_state()])
    assert calls["n"] == 0  # every expansion was a memo hit
    assert _graph_as_tuples(second) == _graph_as_tuples(first)
    explorer.clear_cache()
    explorer.reachable([program.initial_state()])
    assert calls["n"] == len(first.states)


def test_bfs_layer_order():
    """reachable() must expand in breadth-first layers: truncation keeps
    the states *nearest* the roots (a DFS sliver would not)."""
    program = make_token_ring(5)
    full = Explorer(program).reachable([program.initial_state()])

    # BFS distances from the initial state.
    (root,) = full.initial
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for key in frontier:
            for succ in full.transitions[key]:
                if succ not in dist:
                    dist[succ] = dist[key] + 1
                    nxt.append(succ)
        frontier = nxt

    budget = 12
    capped = Explorer(program, max_states=budget).reachable(
        [program.initial_state()]
    )
    kept = sorted(dist[k] for k in capped.states)
    all_sorted = sorted(dist.values())
    # The retained set must be the distance-smallest states possible.
    assert kept == all_sorted[:budget]


def test_truncation_semantics():
    program = make_cb(4)
    full = Explorer(program).reachable([program.initial_state()])
    capped = Explorer(
        program, max_states=len(full.states) - 7
    ).reachable([program.initial_state()])
    assert capped.truncated
    assert not capped.unexpanded & capped.states
    assert set(capped.transitions) == capped.states
    # Edges of retained states are complete, so every dropped key is a
    # genuine reachable state (states beyond the one-step horizon of
    # the retained set stay unknown, hence subset).
    assert capped.unexpanded
    assert capped.states | capped.unexpanded <= full.states
    # Dropped keys are still decodable.
    for key in capped.unexpanded:
        capped.state_of(key)


def test_untruncated_results_have_no_unexpanded():
    program = make_cb(3)
    result = Explorer(program).reachable([program.initial_state()])
    assert not result.truncated and result.unexpanded == set()
