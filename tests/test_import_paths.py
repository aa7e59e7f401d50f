"""One import path per name: every name is imported from its defining module.

The sub-packages of ``repro`` re-export nothing.  Their ``__init__.py`` files
hold a docstring only; ``repro.verify`` also defines ``verify_cluster`` and
``dump_incident``, its own code.  The top-level ``repro`` package is the one
curated surface (see README.md) and is not checked here.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
SUBPACKAGES = sorted(path.parent.name for path in PACKAGE.glob("*/__init__.py"))
#: The one sub-package whose ``__init__.py`` holds code of its own.
WITH_CODE = "verify"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined_names(tree):
    """Names a module binds itself at top level, also inside an ``if``,
    ``try``, ``with`` or ``for`` block there (imports are not definitions)."""
    names = set()
    blocks = [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if isinstance(node, (ast.If, ast.Try, ast.With, ast.For)):
                blocks.extend(getattr(node, part, []) for part in ("body", "orelse", "finalbody"))
                blocks.extend(handler.body for handler in getattr(node, "handlers", []))
    return names


def importable_names(package):
    """What ``from repro.<package> import X`` may name: submodules and own code."""
    directory = PACKAGE / package
    submodules = {path.stem for path in directory.glob("*.py") if path.stem != "__init__"}
    return submodules | defined_names(parse(directory / "__init__.py"))


def test_there_are_subpackages_to_check():
    assert {"core", "policy", WITH_CODE} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", [name for name in SUBPACKAGES if name != WITH_CODE])
def test_a_subpackage_init_is_its_docstring_only(package):
    body = parse(PACKAGE / package / "__init__.py").body
    assert len(body) == 1, f"repro.{package}/__init__.py holds more than its docstring"
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def test_no_name_is_imported_through_a_subpackage():
    allowed = {package: importable_names(package) for package in SUBPACKAGES}
    offenders = []
    for top in ("src", "tests", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                    continue
                parts = node.module.split(".")
                if len(parts) != 2 or parts[0] != "repro" or parts[1] not in allowed:
                    continue
                for alias in node.names:
                    if alias.name not in allowed[parts[1]]:
                        where = path.relative_to(REPO_ROOT)
                        offenders.append(f"{where}:{node.lineno}: {node.module}.{alias.name}")
    assert offenders == []


#: ``from <module> import <name>`` lines that take a name from a module that
#: only imports it, kept because the benchmark harness, which changes only
#: with the benchmark, still reads them that way.
PASSED_THROUGH_ALLOWED = {
    ("benchmarks/perf/workloads.py", "repro.chaos.fuzz", "CONSISTENCY_LEVELS"),
    ("benchmarks/perf/workloads.py", "repro.chaos.fuzz", "PAPER_APPROACHES"),
}


def test_no_name_is_imported_through_a_module_that_only_imports_it():
    modules = {
        "repro." + ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path
        for path in PACKAGE.glob("*/*.py")
        if path.stem != "__init__"
    }
    defined = {}
    offenders = []
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            where = path.relative_to(REPO_ROOT).as_posix()
            for node in ast.walk(parse(path)):
                if not isinstance(node, ast.ImportFrom) or node.module not in modules:
                    continue
                if node.module not in defined:
                    defined[node.module] = defined_names(parse(modules[node.module]))
                for alias in node.names:
                    if alias.name in defined[node.module]:
                        continue
                    if (where, node.module, alias.name) not in PASSED_THROUGH_ALLOWED:
                        offenders.append(f"{where}:{node.lineno}: {node.module}.{alias.name}")
    assert offenders == []


def test_the_approach_table_is_complete_on_import():
    """Importing the module that defines ``APPROACHES`` is enough: no other
    import has to run first for the paper's four approaches to be in it."""
    script = (
        "import json\n"
        "from repro.core import approaches\n"
        "print(json.dumps([list(approaches.APPROACHES), list(approaches.PAPER_APPROACHES)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=90,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    table, paper = json.loads(proc.stdout)
    assert table == paper == ["deferred", "punctual", "incremental", "continuous"]
