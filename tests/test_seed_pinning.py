"""The seed-pinning gate itself (the scanner lives in conftest.py).

The session-start hook already proves the tree is clean by letting the
suite run at all; these tests pin the scanner's verdicts on synthetic
snippets so a future edit cannot quietly blind it.
"""

import importlib.util
from pathlib import Path


def _load_scanner():
    # The conftest module's import name depends on how pytest was
    # invoked; load it by path so both `pytest` at the repo root and
    # `pytest tests/test_seed_pinning.py` work.
    try:
        from conftest import unseeded_rng_calls
    except ModuleNotFoundError:
        spec = importlib.util.spec_from_file_location(
            "_seed_pinning_conftest", Path(__file__).with_name("conftest.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        unseeded_rng_calls = mod.unseeded_rng_calls
    return unseeded_rng_calls


unseeded_rng_calls = _load_scanner()


class TestScannerFlags:
    def test_unseeded_factories(self):
        src = (
            "import numpy as np, random\n"
            "a = np.random.default_rng()\n"
            "b = random.Random()\n"
            "c = np.random.default_rng(None)\n"
        )
        assert [n for _l, n in unseeded_rng_calls(src)] == [
            "default_rng",
            "Random",
            "default_rng",
        ]

    def test_unseeded_core_generator(self):
        src = (
            "from repro._pcg64 import default_rng, make_rng\n"
            "a = default_rng()\n"
            "b = _pcg64.default_rng(None)\n"
            "c = make_rng(None)\n"
            "d = make_rng(7)\n"
        )
        assert unseeded_rng_calls(src) == [
            (2, "default_rng"),
            (3, "default_rng"),
            (4, "make_rng"),
        ]

    def test_unseeded_daemons_and_injectors(self):
        src = (
            "d = MaximalParallelDaemon()\n"
            "e = RandomFairDaemon(incremental=False)\n"
            "f = ScriptedInjector(prog, spec, schedule)\n"
        )
        assert [n for _l, n in unseeded_rng_calls(src)] == [
            "MaximalParallelDaemon",
            "RandomFairDaemon",
            "ScriptedInjector",
        ]


class TestScannerAccepts:
    def test_seeded_forms(self):
        src = (
            "a = np.random.default_rng(42)\n"
            "b = random.Random(7)\n"
            "c = MaximalParallelDaemon(seed=0)\n"
            "d = RandomFairDaemon(3)\n"
            "e = ScriptedInjector(prog, spec, schedule, seed=1)\n"
            "f = ScriptedInjector(prog, spec, schedule, 9)\n"
        )
        assert unseeded_rng_calls(src) == []

    def test_seed_threaded_through_a_variable(self):
        assert unseeded_rng_calls("rng = np.random.default_rng(seed)\n") == []

    def test_escape_comment(self):
        src = "d = MaximalParallelDaemon()  # unseeded-ok\n"
        assert unseeded_rng_calls(src) == []

    def test_unrelated_calls_ignored(self):
        assert unseeded_rng_calls("x = make_cb(4, 3)\nprint(x)\n") == []
