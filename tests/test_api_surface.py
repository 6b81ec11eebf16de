"""Every public function, method and class of ``klbp`` has a caller outside
its own definition and outside the tests: in the package itself or in the
benchmark harness.  A name whose only caller is its own test is dead API.
Likewise every keyword-only option of a public function is set by some
caller; an option nobody sets is a constant.

A function or class is used if its name appears as a word; a method only if
it is referenced as an attribute, ``.name``, so that a method named like a
common word (``factor``, ``labels``) is not kept alive by the word alone.
An option is used if ``name=`` appears.  Comments and docstrings do not
count: each source is read back from its syntax tree without them.

The package root re-exports nothing, so importing it, or one submodule,
loads no module the caller did not ask for."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = sorted((SRC / "klbp").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

WORD = r"\w+"
ATTRIBUTE = r"\.(\w+)"
OPTION = r"(\w+)=(?!=)"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _strip_docstrings(tree: ast.Module) -> ast.Module:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    node.body = node.body[1:] or [ast.Pass()]
    return tree


# ast.unparse drops comments; the per-definition texts below come from the
# same stripped trees, so a name is counted the same way in both
TREES = {path: _strip_docstrings(ast.parse(path.read_text())) for path in PACKAGE + HARNESS}
CODE = "\n".join(ast.unparse(tree) for tree in TREES.values())


def _public_definitions(path: Path):
    """(definition, is_method) for every public def and class of a module."""
    tree = TREES[path]
    methods = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, DEFINITIONS)
    }
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node, id(node) in methods


def test_every_public_name_has_a_caller():
    uses = {WORD: Counter(re.findall(WORD, CODE)), ATTRIBUTE: Counter(re.findall(ATTRIBUTE, CODE))}
    unused = []
    for path in PACKAGE:
        for node, is_method in _public_definitions(path):
            pattern = ATTRIBUTE if is_method else WORD
            own = re.findall(pattern, ast.unparse(node)).count(node.name)
            if uses[pattern][node.name] == own:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_keyword_only_option_is_set_by_a_caller():
    uses = Counter(re.findall(OPTION, CODE))
    unset = []
    for path in PACKAGE:
        for node, _ in _public_definitions(path):
            if isinstance(node, ast.ClassDef):
                continue
            own = re.findall(OPTION, ast.unparse(node))
            for arg in node.args.kwonlyargs:
                if uses[arg.arg] == own.count(arg.arg):
                    unset.append(f"{path.name}:{node.lineno} {node.name}({arg.arg}=)")
    assert unset == []


def _loaded_after(statement: str) -> set:
    """The klbp submodules a fresh interpreter holds after ``statement``."""
    probe = f"{statement}; import sys; print(sorted(m for m in sys.modules if m.startswith('klbp.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    return set(ast.literal_eval(out))


def _imported_by(module: str) -> set:
    """``klbp.<module>`` and the klbp modules its top level imports, transitively."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.parse((SRC / "klbp" / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
    return {f"klbp.{name}" for name in seen}


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import klbp") == set()


def test_importing_a_submodule_loads_only_what_it_imports():
    assert _loaded_after("import klbp.spn") == _imported_by("spn")
