"""The late-binding gate: closures made in a loop bind by value.

A ``lambda``/``def`` created inside a ``for``/``while`` body that reads
a name the loop assigns sees the *latest* value when it runs, not the
value at creation.  In ``repro.net`` that was the resend storm: every
finished round's ``send_until`` predicate tested the current round and
kept re-announcing its own.  The rule for ``src/repro/net`` and
``src/repro/serve``: such a closure takes the name as a default
argument (or is a method partial-applied to the value); append
``# late-binding-ok: <reason>`` to the closure's first line to claim a
deliberate exception.  Scanner and tree scan live together here, in the
style of conftest's seed-pinning gate.

A second rule for the net runtime's frame path (``PER_FRAME`` below):
``asyncio.wait_for`` wraps what it waits on in a fresh Task, so a timed
wait there goes through ``repro.net.transport.Signal`` (a future and a
timer handle).  A run-level timeout -- one per run, not per frame or
round -- may claim ``# wait-for-ok: <reason>``.
"""

from __future__ import annotations

import ast
from pathlib import Path

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_CLOSURES = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _CLOSURES + (ast.ClassDef,)
ESCAPE = "late-binding-ok:"

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GATED = ("net", "serve")


def _walk(roots, into_scopes: bool):
    """``roots`` and their descendants; with ``into_scopes`` off, nested
    function/class scopes are yielded but not entered."""
    todo = list(roots)
    while todo:
        node = todo.pop()
        yield node
        if into_scopes or not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _per_iteration(loop: ast.AST) -> list[ast.AST]:
    """What runs once per iteration: not a ``for``'s iterable (evaluated
    once, before) nor the ``else`` suite (once, after)."""
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    return [loop.target, *loop.body]


def _reads(closure: ast.AST) -> set[str]:
    """Names the closure's body looks up in an enclosing scope.

    Defaults and decorators are evaluated at definition time -- that is
    the by-value binding -- so only the body counts.
    """
    body = closure.body if isinstance(closure.body, list) else [closure.body]
    own = {a.arg for a in ast.walk(closure.args) if isinstance(a, ast.arg)}
    loads: set[str] = set()
    for n in _walk(body, into_scopes=True):
        if isinstance(n, ast.Name):
            (loads if isinstance(n.ctx, ast.Load) else own).add(n.id)
        elif isinstance(n, ast.arg):
            own.add(n.arg)
    return loads - own


def late_bound_closures(source: str) -> list[tuple[int, str]]:
    """``(lineno, name)`` for every loop-assigned name that a closure
    created in that loop reads late."""
    lines = source.splitlines()
    found: set[tuple[int, str]] = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, _LOOPS):
            continue
        parts = _per_iteration(loop)
        assigned = {
            n.id
            for n in _walk(parts, into_scopes=False)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for node in _walk(parts, into_scopes=True):
            if isinstance(node, _CLOSURES) and ESCAPE not in lines[node.lineno - 1]:
                found.update((node.lineno, name) for name in _reads(node) & assigned)
    return sorted(found)


WAIT_ESCAPE = "wait-for-ok:"
PER_FRAME = ("node", "transport", "mbnode", "tree")


def task_per_wait_calls(source: str) -> list[int]:
    """Line numbers of ``asyncio.wait_for(...)`` / bare ``wait_for(...)``
    calls (a method called ``wait_for`` is somebody else's)."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        hit = (isinstance(f, ast.Name) and f.id == "wait_for") or (
            isinstance(f, ast.Attribute)
            and f.attr == "wait_for"
            and isinstance(f.value, ast.Name)
            and f.value.id == "asyncio"
        )
        if hit and WAIT_ESCAPE not in lines[node.lineno - 1]:
            found.append(node.lineno)
    return sorted(found)


def test_frame_path_waits_cost_no_task():
    findings = [
        f"src/repro/net/{name}.py:{lineno}"
        for name in PER_FRAME
        for lineno in task_per_wait_calls((SRC / "net" / f"{name}.py").read_text())
    ]
    assert not findings, (
        "asyncio.wait_for on the net frame path creates a Task per wait (use "
        f"Signal.wait, or mark a run-level timeout '# {WAIT_ESCAPE} <reason>'):\n  "
        + "\n  ".join(findings)
    )


def test_wait_scanner():
    src = (
        "async def f(self):\n"
        "    await asyncio.wait_for(q.get(), 1)\n"
        "    await wait_for(\n"
        "        ev.wait(), 1)\n"
        "    await self.wait_for(cond)\n"
        f"    await asyncio.wait_for(run(), 60)  # {WAIT_ESCAPE} once per run\n"
    )
    assert task_per_wait_calls(src) == [2, 3]


def test_gated_packages_bind_loop_state_by_value():
    findings = []
    for pkg in GATED:
        for path in sorted((SRC / pkg).rglob("*.py")):
            for lineno, name in late_bound_closures(path.read_text()):
                findings.append(f"{path.relative_to(SRC.parent)}:{lineno}: {name}")
    assert not findings, (
        "closure created in a loop reads loop state late (bind it as a "
        f"default argument or functools.partial, or mark '# {ESCAPE} "
        "<reason>'):\n  " + "\n  ".join(findings)
    )


class TestScannerFlags:
    def test_the_resend_storm_shape(self):
        # net/tree.py before the fix: both send_until predicates.
        src = (
            "while self.round < n:\n"
            "    r = self.round\n"
            "    spawn(send_until(p, 'arrive', lambda: self.rel >= r))\n"
            "    for child in kids:\n"
            "        spawn(send_until(child, 'release',\n"
            "            lambda child=child: acked[child] >= r))\n"
        )
        assert late_bound_closures(src) == [(3, "r"), (6, "r")]

    def test_for_target_and_nested_def(self):
        src = (
            "for i in range(3):\n"
            "    def f():\n"
            "        return i\n"
            "    async def g():\n"
            "        return [lambda: i]\n"
        )
        assert late_bound_closures(src) == [(2, "i"), (4, "i"), (5, "i")]

    def test_with_and_walrus_targets(self):
        src = (
            "while (line := read()):\n"
            "    with open(line) as fh:\n"
            "        cbs.append(lambda: (line, fh))\n"
        )
        assert late_bound_closures(src) == [(3, "fh"), (3, "line")]


class TestScannerAccepts:
    def test_default_argument_and_partial(self):
        src = (
            "for r in rounds:\n"
            "    a = lambda r=r: done(r)\n"
            "    b = partial(self._settled, r)\n"
            "    def c(x, r=r):\n"
            "        return x + r\n"
        )
        assert late_bound_closures(src) == []

    def test_names_bound_outside_the_loop(self):
        src = (
            "inc = self.incarnation\n"
            "for peer in peers:\n"
            "    spawn(lambda peer=peer: peer in synced or self.inc != inc)\n"
        )
        assert late_bound_closures(src) == []

    def test_closure_locals_shadow_the_loop_name(self):
        src = (
            "for x in xs:\n"
            "    def f(items):\n"
            "        for x in items:\n"
            "            yield x\n"
            "    g = lambda x: x + 1\n"
        )
        assert late_bound_closures(src) == []

    def test_loop_inside_a_closure_is_not_the_closures_loop(self):
        src = (
            "def outer():\n"
            "    for x in xs:\n"
            "        use(x)\n"
            "    return lambda: x\n"
        )
        assert late_bound_closures(src) == []

    def test_escape_comment(self):
        src = (
            "for x in xs:\n"
            f"    ys.sort(key=lambda y: y - x)  # {ESCAPE} called in-iteration\n"
        )
        assert late_bound_closures(src) == []
