"""The package depends on numpy and the standard library alone, only the
model reader's modules know the model file's field types, only the symbolic
module builds lens words and binnings, only the lens search plans
cross-validation folds, only the worker rule and the CLI read the core
count, only ``ensemble`` starts a process pool and only ``forest`` a thread
pool, only the config declares the lens grid, and
``import coeye`` loads a public name's home module only when the name is
first used."""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import coeye

PACKAGE = Path(coeye.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
CHINATOWN_TRAIN = Path(__file__).parent / "data" / "ucr" / "Chinatown_TRAIN.tsv"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coeye"}
# the modules that know the model file's fields: ``ensemble.py`` maps records to the file and back through
# ``errors.file_fields`` and ``errors.model_record``, and every record checks its fields through ``errors.check_record``
MODEL_READERS = {"ensemble.py", "errors.py"}


def top_level_imports(path):
    """Top-level module names a source file imports; relative imports count as coeye."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("coeye" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_stdlib_and_numpy_only(path):
    assert sorted(top_level_imports(path) - ALLOWED) == []


def referenced_names(path):
    """Every name a source file imports, reads, defines or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_model_reader_reads_model_fields(path):
    used = referenced_names(path) & {"model_array", "model_record", "file_fields"}
    assert not used or path.name in MODEL_READERS


# the steps of the one lens pipeline: every other module fits and symbolizes lenses through
# ``symbolic.fit_lenses`` and ``symbolic.symbolize``, so no second fitting path can return
PIPELINE_STEPS = {"lens_words", "digitize", "equal_depth_breakpoints", "fit_sax_binning"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_symbolic_module_runs_the_pipeline_steps(path):
    used = referenced_names(path) & PIPELINE_STEPS
    assert not used or path.name == "symbolic.py"


# the cross-validation protocol: one fold plan per lens search, built and scored in ``lenses``, so a change
# to the protocol edits its builder alone
FOLD_PROTOCOL = {"fold_plan"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_lens_search_plans_folds(path):
    used = referenced_names(path) & FOLD_PROTOCOL
    assert not used or path.name == "lenses.py"


# the core count: ``forest._pool_workers`` caps every thread and process pool at it and ``cli`` makes it the
# ``--threads`` default, so no second worker rule can size a pool past the cores
CORE_COUNT_READERS = {"forest.py", "cli.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_worker_rule_reads_the_core_count(path):
    assert "cpu_count" not in referenced_names(path) or path.name in CORE_COUNT_READERS


# the pool sites: ``ensemble.train`` opens the one process pool of a train and ``forest`` the thread pool that grows
# a forest's trees, so no second site can start workers of its own
POOL_SITES = {"ProcessPoolExecutor": "ensemble.py", "ThreadPoolExecutor": "forest.py"}


def called_names(path):
    """The name of every function or class a source file calls, by name or as an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_pool_starts_at_one_site(path):
    assert all(POOL_SITES[kind] == path.name for kind in called_names(path) & set(POOL_SITES))


# the lens grid's fields: ``config.LensGrid`` declares them once and ``CoEyeConfig`` inherits them, so no
# second grid record can copy them
GRID_FIELDS = {"sax_alphas", "sax_word_lengths", "sfa_alphas", "sfa_word_lengths", "folds"}


def declared_fields(path):
    """Every name a class body of a source file annotates."""
    return {stmt.target.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_config_declares_the_grid(path):
    declared = declared_fields(path) & GRID_FIELDS
    assert not declared or path.name == "config.py"


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_reading_a_data_file_loads_only_the_parser():
    # the forest engine, the lens search and their process pool load with
    # ``coeye.train``, not with the package
    code = ("import sys, coeye; coeye.load_ucr(sys.argv[1]); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('coeye', 'multiprocessing')"
            " or m == 'concurrent.futures.process'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code, str(CHINATOWN_TRAIN)], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["coeye", "coeye.data", "coeye.errors"]


class TestNamespace:
    @pytest.mark.parametrize("name", [n for n in coeye.__all__ if n != "__version__"])
    def test_public_name_is_its_home_modules_object(self, name):
        value = getattr(coeye, name)
        assert value is getattr(import_module(value.__module__), name)

    def test_dir_lists_every_public_name(self):
        assert set(coeye.__all__) <= set(dir(coeye))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            coeye.no_such_name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from coeye import *", namespace)
        assert set(coeye.__all__) <= set(namespace)
