"""Every public function, method and class of ``klbp`` has a caller outside
its own definition and outside the tests: in the package itself or in the
benchmark harness.  A name whose only caller is its own test is dead API.

A use is any occurrence of the name as a word, so a mention in a comment
also counts; the check catches names nothing refers to at all."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "klbp").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = {path: path.read_text() for path in PACKAGE + HARNESS}


def test_every_public_name_has_a_caller():
    words = Counter(re.findall(r"\w+", "\n".join(SOURCES.values())))
    unused = []
    for path in PACKAGE:
        lines = SOURCES[path].splitlines(keepends=True)
        for node in ast.walk(ast.parse(SOURCES[path])):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = "".join(lines[node.lineno - 1 : node.end_lineno])
            if words[node.name] == re.findall(r"\w+", own).count(node.name):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
