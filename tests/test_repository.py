"""Repository hygiene: no file that .gitignore excludes is tracked, the
package exports only names it defines, and the oracles stand apart from the
engine they judge."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracediagrams

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or \
            git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git work tree")
    out = git("ls-files", "-ci", "--exclude-standard")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", "tracked but ignored:\n" + out.stdout


def test_every_exported_name_resolves():
    missing = [name for name in tracediagrams.__all__
               if not hasattr(tracediagrams, name)]
    assert missing == []


def test_linalg_imports_nothing_from_the_package():
    source = Path(tracediagrams.__file__).with_name("linalg.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[0] == "tracediagrams"
                       for name in names), ast.unparse(node)


def test_evaluators_take_nothing_from_the_oracles_but_rat():
    """evaluate.py computes its minors itself: of linalg, which holds the
    oracles the checks compare against, it imports the Rat type alone and
    names no linalg attribute."""
    source = Path(tracediagrams.__file__).with_name("evaluate.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "linalg":
            assert [alias.name for alias in node.names] == ["Rat"], \
                ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            assert "linalg" not in [alias.name for alias in node.names], \
                ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("linalg")
                           for alias in node.names), ast.unparse(node)
        elif isinstance(node, ast.Attribute):
            assert not (isinstance(node.value, ast.Name)
                        and node.value.id == "linalg"), ast.unparse(node)


def _registered(node):
    """Whether a definition carries a registering decorator, a call of
    _register, which names it in a registry."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "_register" for dec in node.decorator_list)


def test_every_private_helper_is_named_outside_its_definition():
    """A module-level _-prefixed function or class that nothing in the
    package names, outside its own definition, is dead code.  Only
    registered ones are exempt: the decorator names them.  A helper under
    any other decorator, such as functools.cache, is checked as if it
    had none."""
    package = Path(tracediagrams.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    helpers = [(module, node) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not _registered(node)]
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append(node)
    unused = []
    for module, helper in helpers:
        own = set(map(id, ast.walk(helper)))
        if all(id(use) in own for use in uses.get(helper.name, ())):
            unused.append(f"{module}: {helper.name}")
    assert unused == []


_MEMOS = """
import importlib, json, pkgutil, random, sys
import tracediagrams
from tracediagrams.evaluate import eval_checked
from tracediagrams.fuzz import random_bindings, random_layered_diagram
from test_acceptance import _builder_catalog

for info in pkgutil.iter_modules(tracediagrams.__path__):
    if info.name != "__main__":
        importlib.import_module("tracediagrams." + info.name)
modules = {name: module for name, module in sys.modules.items()
           if name.split(".")[0] == "tracediagrams"}
dicts = {(name, attr): set(value) for name, module in modules.items()
         for attr, value in vars(module).items()
         if isinstance(value, dict) and not attr.startswith("__")}
for n in (2, 3, 4):
    for d, bindings in _builder_catalog(n):
        eval_checked(d, bindings)
rng = random.Random(29)
for _ in range(100):
    d = random_layered_diagram(rng.choice((2, 3, 4, 5)), rng, max_width=4)
    eval_checked(d, random_bindings(d, rng))
grown = sorted(name + "." + attr for (name, attr), keys in dicts.items()
               if set(vars(modules[name])[attr]) - keys)
cached = sorted(name + "." + attr for name, module in modules.items()
                for attr, value in vars(module).items()
                if callable(getattr(value, "cache_clear", None))
                and value.cache_info().currsize)
print(json.dumps([grown, cached]))
"""


def test_evaluation_memoizes_by_cached_builders_only():
    """Every table evaluation builds once per shape is memoized by
    functools.cache on a module-level builder, never in a module-level
    dict, so that perfbench's clear_caches, which calls each module
    attribute's cache_clear, empties it before every pass, and a pass
    pays for what it builds.  In a fresh process, after the builder
    catalog at n = 2..4 and a seeded fuzz corpus at n = 2..5, both
    evaluators each, no module-level dict holds a key it did not hold on
    import, and the builders of the vertex tables, the ε sign tables, the
    join plans and the minors' plans hold entries."""
    out = subprocess.run(
        [sys.executable, "-c", _MEMOS], cwd=ROOT,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")])})
    assert out.returncode == 0, out.stderr
    grown, cached = json.loads(out.stdout)
    assert grown == []
    assert {"tracediagrams.evaluate._vertex_table",
            "tracediagrams.evaluate._parity_table",
            "tracediagrams.evaluate._minor_plan",
            "tracediagrams.kernels._join_plan",
            "tracediagrams.kernels.sign_table"} <= set(cached)
