"""Every public function, method and class of ``klbp`` has a caller outside
its own definition and outside the tests: in the package itself or in the
benchmark harness.  A name whose only caller is its own test is dead API.
Likewise every keyword-only option of a public function is set by some
caller; an option nobody sets is a constant.

A function or class is used if its name appears as a word; a method only if
it is referenced as an attribute, ``.name``, so that a method named like a
common word (``factor``, ``labels``) is not kept alive by the word alone.
An option is used if ``name=`` appears.  Comments and string literals do not
count: each source is read back from its syntax tree without comments and
with every string constant, f-string text included, emptied.

The package root re-exports nothing, so importing it, or one submodule,
loads no module the caller did not ask for.  The command line imports an
engine module only when a subcommand runs it, so each subcommand loads just
the modules it needs."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = sorted((SRC / "klbp").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

WORD = r"\w+"
ATTRIBUTE = r"\.(\w+)"
OPTION = r"(\w+)=(?!=)"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _blank_strings(tree: ast.Module) -> ast.Module:
    """Empty every string constant: docstrings, messages, help texts and the
    literal parts of f-strings, so that no word in a string counts as a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node.value = ""
    return tree


# ast.unparse drops comments; the per-definition texts below come from the
# same blanked trees, so a name is counted the same way in both
TREES = {path: _blank_strings(ast.parse(path.read_text())) for path in PACKAGE + HARNESS}
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


def test_importing_the_cli_loads_no_engine_module():
    assert _loaded_after("import klbp.cli") == {"klbp.cli", "klbp.errors"}


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """Fields for the command templates below: the prefixes of the seed-1
    instances ``klbp gen`` writes, and the points the dag and posterior
    commands take."""
    from klbp import cli

    root = tmp_path_factory.mktemp("fanout")
    for kind, prefix, *extra in (
        ("spn", "s"), ("fg", "t"), ("fg", "c", "--fg-kind", "cycle"), ("dag", "d"),
        ("posterior", "m"),
    ):
        assert cli.main(["gen", kind, "--seed", "1", "--out", str(root / prefix), *extra]) == 0
    at = json.loads((root / "d.at.json").read_text())["inputs"]
    theta = json.loads((root / "m.theta.json").read_text())["theta"]
    m = len(json.loads((root / "m.model.json").read_text())["variables"])
    return {
        **{prefix: root / prefix for prefix in "stcdm"},
        "at": ",".join(f"{name}={float(value)!r}" for name, value in sorted(at.items())),
        "var": sorted(at)[0],
        "theta": ",".join(repr(float(t)) for t in theta),
        "zeros": ",".join("0" * m),
        "out": root / "report.json",
    }


SPN = "--circuit {s}.circuit.json --evidence {s}.evidence.json"
DAG = "--graph {d}.dag.json --at={at}"
MODEL = "--model {m}.model.json --theta={theta}"
FANOUT = [
    pytest.param("spn validate --circuit {s}.circuit.json", ["spn"], id="spn validate"),
    pytest.param("spn eval " + SPN, ["spn"], id="spn eval"),
    pytest.param("spn gates " + SPN, ["spn"], id="spn gates"),
    pytest.param("spn kkt " + SPN, ["spn"], id="spn kkt"),
    pytest.param("spn marginals " + SPN, ["spn", "oracle"], id="spn marginals"),
    pytest.param("spn region " + SPN, ["spn_reduce", "simplex"], id="spn region"),
    pytest.param(
        "spn lipschitz --circuit {s}.circuit.json --samples 20", ["spn_reduce"], id="spn lipschitz"
    ),
    pytest.param("fg bp --graph {c}.fg.json", ["factorgraph"], id="fg bp cycle"),
    pytest.param("fg bp --graph {t}.fg.json", ["factorgraph", "oracle"], id="fg bp tree"),
    pytest.param("fg wr --graph {c}.fg.json", ["lift"], id="fg wr cycle"),
    pytest.param("fg wr --graph {t}.fg.json", ["lift", "oracle"], id="fg wr tree"),
    pytest.param("dag eval " + DAG, ["compgraph"], id="dag eval"),
    pytest.param(
        "dag gauge " + DAG + " --factor exp:2.0 --var {var}", ["compgraph"], id="dag gauge"
    ),
    pytest.param(
        "dag adjoints " + DAG + " --factor exp:2.0", ["compgraph", "oracle"], id="dag adjoints"
    ),
    pytest.param("posterior dirac " + MODEL + " --at={zeros}", ["posterior"], id="posterior dirac"),
    pytest.param("posterior grad " + MODEL, ["posterior", "oracle"], id="posterior grad"),
    pytest.param(
        "oracle compare --count 1", ["generators", "spn", "oracle", "posterior"], id="oracle compare"
    ),
]


@pytest.mark.parametrize("template, modules", FANOUT)
def test_each_subcommand_loads_only_the_modules_it_runs(instances, template, modules):
    argv = template.format(**instances).split() + ["--out", str(instances["out"])]
    loaded = _loaded_after(f"import klbp.cli; assert klbp.cli.main({argv!r}) == 0")
    assert loaded == _imported_by("cli").union(*map(_imported_by, modules))
