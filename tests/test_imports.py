"""Every name a package module imports or keeps private is used in it,
the package exports exactly what its ``__init__.py`` imports, and
importing it loads nothing beyond the standard library and numpy, nor
the process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphmetric"
INIT = PACKAGE / "__init__.py"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else refers to.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    A name counts as used wherever it is loaded, including in annotations
    and as the base of an attribute chain.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field, replace\n"
              "x: np.ndarray = replace(os.sep)\n")
    assert unused_imports(source) == ["line 4: dataclass", "line 4: field"]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` definitions that nothing in ``source`` loads.

    Functions, classes and assignment targets count; a private name is
    used wherever it is loaded, including from inside another definition.
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__")
            and name not in loaded]


def test_detects_unused_private_names():
    source = ("_USED = 1\n_UNUSED, public = 2, 3\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    pass\n"
              "class _Gone:\n    pass\n"
              "def run():\n    _local = 4\n    return _helper()\n")
    assert unused_private_names(source) == [
        "line 7: _Gone", "line 2: _UNUSED", "line 5: _dead"]


def export_mismatches(source: str) -> list[str]:
    """Differences between ``__all__`` and the names ``source`` imports.

    ``__all__`` must list every imported name plus ``__version__``, and
    nothing else, so a deleted or renamed import cannot linger as a stale
    export.
    """
    tree = ast.parse(source)
    imported = {"__version__"}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return ([f"stale export: {name}" for name in sorted(exported - imported)]
            + [f"not exported: {name}"
               for name in sorted(imported - exported)])


def test_detects_export_mismatches():
    source = ("from __future__ import annotations\n"
              "from .a import kept, dropped\nfrom .b import extra as alias\n"
              "__version__ = '1'\n"
              "__all__ = ['kept', 'gone', '__version__']\n")
    assert export_mismatches(source) == [
        "stale export: gone", "not exported: alias", "not exported: dropped"]


def test_all_matches_init_imports():
    assert export_mismatches(INIT.read_text()) == []


def test_objective_internals_stay_in_their_modules():
    import graphmetric
    from graphmetric import objective, optimizer
    internals = (objective.PairDistances, objective.pair_distances,
                 objective.glr_value, objective.glr_grad_diag,
                 objective.glr_grad_offdiag_col, optimizer.init_metric)
    assert not {f.__name__ for f in internals} & set(dir(graphmetric))


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"optimizer.py", "experiment.py",
                                         "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


# run in a fresh interpreter: prints the modules that the statement on
# stdin loads, except __main__'s aliases (multiprocessing adds __mp_main__)
_PROBE = """
import sys
before = set(sys.modules)
exec(sys.stdin.read())
main = sys.modules["__main__"]
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name not in before and module is not main)))
"""


def loaded_modules(statement: str) -> set[str]:
    """Modules that ``statement`` loads in a fresh interpreter with this
    checkout's package on the path.  Modules the interpreter loaded before
    the statement ran do not count.
    """
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", _PROBE], input=statement,
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return set(out.split())


def foreign_modules(statement: str) -> list[str]:
    """Top-level non-stdlib modules other than numpy and the package that
    ``statement`` loads (see ``loaded_modules``)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "graphmetric"}
    return sorted({name.partition(".")[0]
                   for name in loaded_modules(statement)} - allowed)


def test_detects_foreign_modules():
    found = foreign_modules("import json, graphmetric.core, scipy.linalg")
    assert "scipy" in found
    assert not {"json", "numpy", "graphmetric"} & set(found)


def test_package_runs_on_numpy_alone():
    assert foreign_modules("import graphmetric, graphmetric.cli") == []


def test_detects_process_pool():
    statement = "import concurrent.futures as cf; cf.ProcessPoolExecutor"
    assert "concurrent.futures.process" in loaded_modules(statement)


def test_process_pool_loads_only_for_parallel_experiments():
    # it pulls in multiprocessing, socket and selectors; run_experiment
    # imports it when n_jobs > 1
    loaded = loaded_modules("import graphmetric, graphmetric.cli")
    assert "concurrent.futures.process" not in loaded
