"""Determinism linter: AST rules that keep simulated runs reproducible.

The whole evaluation pipeline depends on seeded, replayable simulations —
a wall-clock read, an unseeded RNG, or iteration over a hash-randomized
set anywhere on a traced path silently breaks run-to-run reproducibility
(PYTHONHASHSEED randomizes string hashes per interpreter).  This module
enforces the repo's rules statically:

``DET001``  no wall-clock reads (``time.time``/``datetime.now``/…) inside
            simulated subsystems — simulated code must use ``env.now``.
``DET002``  no module-level ``random.*`` calls (the shared global RNG is
            unseeded and cross-contaminates streams).
``DET003``  no iteration over syntactic sets (set displays, ``set()``/
            ``frozenset()`` calls, set comprehensions, or attributes
            annotated as sets in the same module) in order-sensitive
            positions — wrap in ``sorted(...)`` or use an ordered type.
``DET004``  message/record dataclasses (``*Message``/``*Record``/``*Msg``)
            must be ``frozen=True`` so traced values cannot mutate after
            recording.
``DET005``  ``random.Random(...)`` must not be constructed outside
            ``repro.sim.rng`` in simulated subsystems — route randomness
            through named ``RandomStreams``.
``DET008``  no blocking/synchronous host I/O (``open``/``print``/
            ``input``, ``time.sleep``, ``socket``/``subprocess``/
            ``requests``/``urllib``, ``sys.stdout.write``, …) inside
            ``repro.core`` protocol logic — the enforcement pre-gate for
            the sans-io refactor (ROADMAP item 4): protocol code must
            stay pure state-machine.

Suppression: append ``# verify: ignore[CODE] -- reason`` (or a bare
``# verify: ignore`` for all codes) to the offending line.

Run as ``python -m repro.verify.lint [paths...]``; exits 1 on unsuppressed
findings.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: rule code -> (summary, module prefixes it applies to; () = everywhere).
RULES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "DET001": (
        "wall-clock read in simulated code (use env.now)",
        (
            "repro.sim",
            "repro.cloud",
            "repro.transactions",
            "repro.core",
            "repro.db",
            "repro.policy",
            "repro.chaos",
        ),
    ),
    "DET002": (
        "module-level random.* call (unseeded global RNG)",
        ("repro",),
    ),
    "DET003": (
        "iteration over an unordered set in an order-sensitive position",
        (
            "repro.sim",
            "repro.cloud",
            "repro.transactions",
            "repro.core",
            "repro.db",
            "repro.workloads",
            "repro.chaos",
        ),
    ),
    "DET004": (
        "message/record dataclass must be frozen",
        ("repro",),
    ),
    "DET005": (
        "random.Random constructed outside repro.sim.rng (use RandomStreams)",
        (
            "repro.sim",
            "repro.cloud",
            "repro.transactions",
            "repro.workloads",
            "repro.analysis",
            "repro.chaos",
        ),
    ),
    "DET008": (
        "blocking/synchronous host I/O in protocol logic (sans-io: "
        "repro.core must stay a pure state machine)",
        ("repro.core",),
    ),
}

#: Modules exempt from specific rules (the rule's own implementation site).
EXEMPT_MODULES: Dict[str, Tuple[str, ...]] = {
    "DET005": ("repro.sim.rng",),
}

_WALL_CLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "localtime",
    "gmtime",
}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_RANDOM_MODULE_FUNCS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "uniform",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "getrandbits",
    "seed",
}
#: Wrapping one of these makes set iteration order-insensitive.
_ORDER_INSENSITIVE_CALLEES = {
    "sorted",
    "len",
    "sum",
    "any",
    "all",
    "min",
    "max",
    "set",
    "frozenset",
}
_ORDER_INSENSITIVE_METHODS = {
    "union",
    "update",
    "intersection",
    "intersection_update",
    "difference",
    "difference_update",
    "symmetric_difference",
    "issubset",
    "issuperset",
    "isdisjoint",
}
_FROZEN_CLASS_SUFFIXES = ("Message", "Record", "Msg")
#: Builtins that block on (or write to) host file descriptors (DET008).
_BLOCKING_BUILTINS = {"open", "input", "print", "breakpoint"}
#: Any call into these modules is host I/O from protocol code (DET008).
_BLOCKING_MODULES = {
    "socket",
    "subprocess",
    "requests",
    "urllib",
    "http",
    "ftplib",
    "smtplib",
    "selectors",
    "ssl",
}
#: ``os.*`` calls that block or spawn (DET008); plain ``os.path`` etc. is fine.
_BLOCKING_OS_CALLS = {
    "system",
    "popen",
    "fork",
    "forkpty",
    "wait",
    "waitpid",
    "read",
    "write",
    "open",
    "spawnl",
    "spawnv",
}

_SUPPRESS_RE = re.compile(r"#\s*verify:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class LintFinding:
    """One linter finding (suppressed ones are kept for ``--show-ignored``)."""

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False

    def format(self) -> str:
        marker = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{marker}"


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name, rooted at the ``repro`` package if present."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def rule_applies(code: str, module: str) -> bool:
    for exempt in EXEMPT_MODULES.get(code, ()):
        if module == exempt or module.startswith(exempt + "."):
            return False
    prefixes = RULES[code][1]
    if not prefixes:
        return True
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class _Visitor(ast.NodeVisitor):
    """Collects raw findings for one module."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.findings: List[LintFinding] = []
        self.parents: Dict[ast.AST, ast.AST] = {}
        #: Attribute names annotated as sets anywhere in this module.
        self.set_attrs: Set[str] = set()
        #: Names bound by ``from <module> import <name>``.
        self.from_imports: Dict[str, str] = {}

    # -- helpers -------------------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if rule_applies(code, self.module):
            self.findings.append(
                LintFinding(
                    self.path,
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0),
                    code,
                    message,
                )
            )

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def index(self, tree: ast.AST) -> None:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        # First pass: collect set-annotated attributes and from-imports.
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and self._is_set_annotation(node.annotation):
                target = node.target
                if isinstance(target, ast.Name):
                    self.set_attrs.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        """``Set[...]``, ``set[...]``, ``FrozenSet[...]``, or bare set names."""
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):  # typing.Set
            return node.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
        if isinstance(node, ast.Name):
            return node.id in ("Set", "FrozenSet", "AbstractSet", "MutableSet",
                               "set", "frozenset")
        return False

    # -- DET001: wall clocks --------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "time" and func.attr in _WALL_CLOCK_TIME_ATTRS:
                    self._emit(node, "DET001", f"call to time.{func.attr}()")
                elif owner.id == "datetime" and func.attr in _WALL_CLOCK_DATETIME_ATTRS:
                    self._emit(node, "DET001", f"call to datetime.{func.attr}()")
                elif owner.id == "random" and func.attr in _RANDOM_MODULE_FUNCS:
                    self._emit(node, "DET002", f"call to random.{func.attr}()")
                elif owner.id == "random" and func.attr == "Random":
                    self._emit(node, "DET005", "random.Random(...) constructed here")
            elif (
                isinstance(owner, ast.Attribute)
                and owner.attr == "datetime"
                and func.attr in _WALL_CLOCK_DATETIME_ATTRS
            ):
                self._emit(node, "DET001", f"call to datetime.datetime.{func.attr}()")
        elif isinstance(func, ast.Name):
            qualified = self.from_imports.get(func.id, "")
            if qualified.startswith("time."):
                attr = qualified.split(".", 1)[1]
                if attr in _WALL_CLOCK_TIME_ATTRS:
                    self._emit(node, "DET001", f"call to {qualified}()")
            elif qualified.startswith("datetime."):
                attr = qualified.split(".", 1)[1]
                if attr in _WALL_CLOCK_DATETIME_ATTRS:
                    self._emit(node, "DET001", f"call to {qualified}()")
            elif qualified.startswith("random."):
                attr = qualified.split(".", 1)[1]
                if attr in _RANDOM_MODULE_FUNCS:
                    self._emit(node, "DET002", f"call to {qualified}()")
                elif attr == "Random":
                    self._emit(node, "DET005", "random.Random(...) constructed here")
        self._check_det008(node)
        self.generic_visit(node)

    # -- DET008: blocking host I/O in protocol logic ----------------------------

    @staticmethod
    def _dotted_path(node: ast.AST) -> Optional[str]:
        """``sys.stdout.write`` for the matching attribute chain, else None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def _check_det008(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_BUILTINS:
                self._emit(node, "DET008", f"call to builtin {func.id}()")
                return
            qualified = self.from_imports.get(func.id, "")
            root = qualified.split(".", 1)[0]
            if qualified == "time.sleep" or root in _BLOCKING_MODULES:
                self._emit(node, "DET008", f"call to {qualified}()")
            return
        dotted = self._dotted_path(func)
        if dotted is None:
            return
        root, _, rest = dotted.partition(".")
        if not rest:
            return
        if dotted == "time.sleep":
            self._emit(node, "DET008", "call to time.sleep()")
        elif root in _BLOCKING_MODULES:
            self._emit(node, "DET008", f"call to {dotted}()")
        elif root == "os" and rest in _BLOCKING_OS_CALLS:
            self._emit(node, "DET008", f"call to {dotted}()")
        elif dotted.startswith(("sys.stdout.", "sys.stderr.", "sys.stdin.")):
            self._emit(node, "DET008", f"call to {dotted}()")

    # -- DET003: set iteration -------------------------------------------------

    def _is_setlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("union", "intersection", "difference",
                                       "symmetric_difference")
            ):
                return True
        if isinstance(node, ast.Attribute) and node.attr in self.set_attrs:
            return True
        if isinstance(node, ast.Name) and node.id in self.set_attrs:
            return True
        return False

    def _order_insensitive_sink(self, iterating_node: ast.AST) -> bool:
        """Is the iteration's result consumed order-insensitively?

        Covers ``sorted(x for x in s)``-style wrapping and set-typed sinks
        (a set comprehension's own result is unordered anyway).
        """
        node: Optional[ast.AST] = iterating_node
        while node is not None:
            parent = self._parent(node)
            if isinstance(node, ast.SetComp):
                return True
            if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and isinstance(
                parent, ast.Call
            ):
                callee = parent.func
                if isinstance(callee, ast.Name) and callee.id in _ORDER_INSENSITIVE_CALLEES:
                    return True
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in _ORDER_INSENSITIVE_METHODS
                ):
                    return True
                return False
            if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.DictComp)):
                return False
            node = parent if isinstance(parent, (ast.GeneratorExp, ast.ListComp)) else None
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._is_setlike(node.iter):
            self._emit(
                node.iter,
                "DET003",
                "for-loop over an unordered set (wrap in sorted(...))",
            )
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, generators: List[ast.comprehension]) -> None:
        for comp in generators:
            if self._is_setlike(comp.iter) and not self._order_insensitive_sink(node):
                self._emit(
                    comp.iter,
                    "DET003",
                    "comprehension over an unordered set reaches an "
                    "order-sensitive result (wrap in sorted(...))",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators)
        self.generic_visit(node)

    # -- DET004: frozen message/record dataclasses ------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(node.name.endswith(suffix) for suffix in _FROZEN_CLASS_SUFFIXES):
            decorated = False
            frozen = False
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", ""
                )
                if name == "dataclass":
                    decorated = True
                    if isinstance(decorator, ast.Call):
                        for keyword in decorator.keywords:
                            if keyword.arg == "frozen" and getattr(
                                keyword.value, "value", False
                            ):
                                frozen = True
            if decorated and not frozen:
                self._emit(
                    node,
                    "DET004",
                    f"dataclass {node.name} looks like a traced value type; "
                    "declare it @dataclass(frozen=True)",
                )
        self.generic_visit(node)


def _suppressions_for(source_lines: Sequence[str], line: int) -> Optional[Set[str]]:
    """Codes suppressed on ``line`` (empty set = all), or None."""
    if not 1 <= line <= len(source_lines):
        return None
    match = _SUPPRESS_RE.search(source_lines[line - 1])
    if match is None:
        return None
    if match.group(1) is None:
        return set()
    return {code.strip() for code in match.group(1).split(",") if code.strip()}


def lint_file(path: pathlib.Path) -> List[LintFinding]:
    """Lint one Python file; returns findings with suppression applied."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [
            LintFinding(str(path), error.lineno or 0, error.offset or 0,
                        "DET000", f"syntax error: {error.msg}")
        ]
    module = module_name_for(path)
    visitor = _Visitor(module, str(path))
    visitor.index(tree)
    visitor.visit(tree)
    lines = source.splitlines()
    resolved: List[LintFinding] = []
    for finding in visitor.findings:
        codes = _suppressions_for(lines, finding.line)
        suppressed = codes is not None and (not codes or finding.code in codes)
        resolved.append(
            LintFinding(
                finding.path, finding.line, finding.col, finding.code,
                finding.message, suppressed=suppressed,
            )
        )
    resolved.sort(key=lambda finding: (finding.path, finding.line, finding.code))
    return resolved


def iter_python_files(paths: Iterable[pathlib.Path]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[pathlib.Path]) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings


def default_root() -> pathlib.Path:
    """The ``repro`` package this module was loaded from."""
    return pathlib.Path(__file__).resolve().parents[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.lint",
        description="Determinism linter for the repro source tree.",
    )
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )
    parser.add_argument(
        "--show-ignored", action="store_true",
        help="also print suppressed findings",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            summary, prefixes = RULES[code]
            scope = ", ".join(prefixes) if prefixes else "everywhere"
            print(f"{code}: {summary}  [scope: {scope}]")
        return 0

    paths = args.paths or [default_root()]
    findings = lint_paths(paths)
    active = [finding for finding in findings if not finding.suppressed]
    shown = findings if args.show_ignored else active
    for finding in shown:
        print(finding.format())
    suppressed_count = sum(1 for finding in findings if finding.suppressed)
    print(
        f"repro.verify.lint: {len(active)} finding(s), "
        f"{suppressed_count} suppressed"
    )
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
