"""The lazy-export contract of every package ``__init__``.

Package exports are declared through :func:`repro._lazy.lazy_exports`
(see DESIGN.md, "Import layering"); the public import surface must be
indistinguishable from the eager ``from .sub import name`` form.
"""

from __future__ import annotations

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(p.parent.name for p in ROOT.glob("*/__init__.py"))


def _declarations(package: str) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """``(TYPE_CHECKING imports, lazy table)`` of a package ``__init__``,
    both as submodule -> sorted names."""
    tree = ast.parse((ROOT / package / "__init__.py").read_text())
    typed: dict[str, list[str]] = {}
    table: dict[str, list[str]] = {}
    prefix = f"repro.{package}."
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom) and stmt.module.startswith(prefix)
                names = typed.setdefault(stmt.module[len(prefix):], [])
                names.extend(alias.name for alias in stmt.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if ast.unparse(node.value.func) == "lazy_exports":
                assert ast.unparse(node.value.args[0]) == "__name__"
                table = {k: list(v) for k, v in ast.literal_eval(node.value.args[1]).items()}
    return (
        {sub: sorted(names) for sub, names in typed.items()},
        {sub: sorted(names) for sub, names in table.items()},
    )


def test_every_package_is_covered():
    assert PACKAGES == sorted(
        "analysis barrier chaos des experiments extensions gc net obs perf "
        "protosim serve simmpi topology viz".split()
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_type_checking_imports_match_the_lazy_table(package):
    typed, table = _declarations(package)
    assert table, "package __init__ must declare its exports via lazy_exports"
    assert typed == table
    names = [name for names in table.values() for name in names]
    assert len(names) == len(set(names)), "a name is exported from two submodules"
    # An exported name shadowing a submodule would make the submodule
    # unreachable as an attribute once either is cached.
    submodules = {p.stem for p in (ROOT / package).glob("*.py")}
    assert not set(names) & submodules
    pkg = importlib.import_module(f"repro.{package}")
    assert sorted(pkg.__all__) == sorted(names)


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_to_the_submodule_objects(package):
    pkg = importlib.import_module(f"repro.{package}")
    _, table = _declarations(package)
    for sub, names in table.items():
        module = importlib.import_module(f"repro.{package}.{sub}")
        assert getattr(pkg, sub) is module
        for name in names:
            assert getattr(pkg, name) is getattr(module, name), name
    assert set(dir(pkg)) >= set(pkg.__all__)
    namespace: dict[str, object] = {}
    exec(f"from repro.{package} import *", namespace)
    assert set(namespace) >= set(pkg.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_names_module_and_attribute(package):
    pkg = importlib.import_module(f"repro.{package}")
    with pytest.raises(AttributeError) as err:
        pkg.no_such_name
    assert f"repro.{package}" in str(err.value) and "no_such_name" in str(err.value)
    assert not hasattr(pkg, "__wrapped__")


def test_broken_submodule_import_is_not_masked_as_attribute_error(monkeypatch):
    # A missing *dependency* of a submodule must surface as the import
    # error it is, not as "module has no attribute".
    import repro.viz as viz

    monkeypatch.delitem(vars(viz), "ascii_chart", raising=False)
    monkeypatch.delitem(vars(viz), "chart", raising=False)
    monkeypatch.delitem(sys.modules, "repro.viz.chart", raising=False)
    monkeypatch.setitem(sys.modules, "repro.viz.chart", None)
    with pytest.raises(ImportError):
        viz.ascii_chart


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    code = (
        "import sys, repro.net\n"
        "assert 'repro.net.shard' not in sys.modules\n"
        "assert callable(repro.net.shard.run_sharded)\n"
        "from repro.net import frames\n"
        "assert frames is sys.modules['repro.net.frames']\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_shard_worker_entry_pickles_by_reference():
    # What a worker's bootstrap does: import the entry point by name,
    # unpickle the config off the control channel.
    import repro.net.shard

    entry = repro.net.shard._worker_main
    assert pickle.loads(pickle.dumps(entry)) is entry
    from repro.net import NetConfig

    config = NetConfig(nodes=4, barriers=2, shards=2)
    assert pickle.loads(pickle.dumps(config)) == config
