"""The package depends on numpy and the standard library alone, and only the
model reader's modules know the model file's field types."""

import ast
import re
import sys
from pathlib import Path

import pytest

import coeye

PACKAGE = Path(coeye.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coeye"}
# the modules that read the model file; ``forest.py`` reads the node arrays in bulk
MODEL_READERS = {"ensemble.py", "errors.py", "forest.py"}


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
    used = referenced_names(path) & {"model_field", "model_array"}
    assert not used or path.name in MODEL_READERS


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]
