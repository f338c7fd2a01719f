"""Explorer fast path: BFS order, compact keys, memo, truncation."""

from __future__ import annotations

import pytest

from repro.barrier.cb import make_cb
from repro.barrier.tokenring import make_token_ring
from repro.gc.explore import Explorer, KeyCodec


def _graph_as_tuples(result):
    """Normalize any key representation to State.key() tuples."""
    def norm(k):
        return result.state_of(k).key()

    states = {norm(k) for k in result.states}
    transitions = {
        norm(k): {norm(s) for s in succs}
        for k, succs in result.transitions.items()
    }
    return states, transitions


@pytest.mark.parametrize(
    "make_prog", [lambda: make_cb(3), lambda: make_token_ring(4)]
)
# The ids are the names the suite's floor list knows these cases by.
@pytest.mark.parametrize("compact", [False, True], ids=["None-False", "None-True"])
def test_all_modes_build_the_same_graph(make_prog, compact):
    program = make_prog()
    reference = Explorer(program).reachable([program.initial_state()])
    result = Explorer(program, compact_keys=compact).reachable(
        [program.initial_state()]
    )
    assert _graph_as_tuples(result) == _graph_as_tuples(reference)
    if not compact:
        # Default keys stay State.key()-compatible (callers index by it).
        assert program.initial_state().key() in result.states


def test_key_codec_roundtrip():
    program = make_cb(3)
    codec = KeyCodec(program)
    for state in Explorer(program).full_state_space():
        assert codec.decode(codec.encode(state)).key() == state.key()


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
    root = program.initial_state().key()
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
