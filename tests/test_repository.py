"""Repository hygiene: no file that .gitignore excludes is tracked, the
package exports only names it defines, and the oracles stand apart from the
engine they judge."""

import ast
import shutil
import subprocess
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


def test_every_private_helper_is_named_outside_its_definition():
    """A module-level _-prefixed function or class that nothing in the
    package names, outside its own definition, is dead code.  Decorated
    ones are exempt: the decorator registers them."""
    package = Path(tracediagrams.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    helpers = [(module, node) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.decorator_list]
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
