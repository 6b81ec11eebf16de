"""Every public function, method and class of ``klbp`` has a caller outside
its own definition and outside the tests: in the package itself or in the
benchmark harness.  A name whose only caller is its own test is dead API.

A function or class is used if its name appears as a word; a method only if
it is referenced as an attribute, ``.name``, so that a method named like a
common word (``factor``, ``labels``) is not kept alive by the word alone.
A mention in a comment also counts; the check catches names nothing refers
to at all."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "klbp").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = {path: path.read_text() for path in PACKAGE + HARNESS}

WORD = r"\w+"
ATTRIBUTE = r"\.(\w+)"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_public_name_has_a_caller():
    text = "\n".join(SOURCES.values())
    uses = {WORD: Counter(re.findall(WORD, text)), ATTRIBUTE: Counter(re.findall(ATTRIBUTE, text))}
    unused = []
    for path in PACKAGE:
        lines = SOURCES[path].splitlines(keepends=True)
        tree = ast.parse(SOURCES[path])
        methods = {
            id(item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, DEFINITIONS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            pattern = ATTRIBUTE if id(node) in methods else WORD
            own = "".join(lines[node.lineno - 1 : node.end_lineno])
            if uses[pattern][node.name] == re.findall(pattern, own).count(node.name):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
