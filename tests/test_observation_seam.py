"""The observation seam stays shut: components record through ``Metrics`` only.

An ``ast`` walk (not a regex: comments, docstrings and string literals do not
count) over the protocol core, the cloud nodes, the database layer and the
network.  Which recorder hears which fact, with which fields, is decided in
``repro.metrics.counters.Metrics`` and nowhere else, so in these modules

* nothing is *called* on a tracer, the flight recorder or live telemetry
  (reading ``metrics.tracer.enabled`` is not a call and is fine; spans follow
  control flow, so ``metrics.spans.start/finish`` stay explicit);
* no function takes a recorder of its own (``tracer``, ``obs``, ``spans``,
  ``message_hook``, ``on_wait``);
* nobody needs the null-object recorder.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
PACKAGES = ("core", "cloud", "transactions", "db")
RECORDERS = {"tracer", "flight", "live"}
OWN_RECORDER_PARAMETERS = {"tracer", "obs", "spans", "message_hook", "on_wait"}


def seam_files(root: pathlib.Path) -> List[pathlib.Path]:
    files = [path for package in PACKAGES for path in sorted((root / package).rglob("*.py"))]
    return files + [root / "sim" / "network.py"]


def findings_in(tree: ast.AST, where: str) -> Iterator[str]:
    for node in ast.walk(tree):
        at = f"{where}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = (
                receiver.attr if isinstance(receiver, ast.Attribute)
                else receiver.id if isinstance(receiver, ast.Name)
                else None
            )
            if name in RECORDERS:
                yield f"{at}: call on a recorder: {name}.{node.func.attr}(...)"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                if arg.arg in OWN_RECORDER_PARAMETERS:
                    yield f"{at}: parameter {arg.arg!r} of {getattr(node, 'name', 'lambda')}"
        elif isinstance(node, ast.Name) and node.id == "NULL_RECORDER":
            yield f"{at}: NULL_RECORDER"
        elif isinstance(node, ast.alias) and node.name == "NULL_RECORDER":
            yield f"{at}: NULL_RECORDER imported"


def findings(root: pathlib.Path) -> List[str]:
    found: List[str] = []
    for path in seam_files(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(findings_in(tree, str(path.relative_to(root))))
    return found


def test_the_walk_covers_the_protocol_core():
    names = {str(path.relative_to(SRC)) for path in seam_files(SRC)}
    assert {
        "core/twopv.py", "core/twopvc.py", "cloud/server.py", "cloud/master.py",
        "transactions/manager.py", "transactions/effects.py", "db/locks.py", "sim/network.py",
    } <= names


def test_components_record_through_the_handle_only():
    assert findings(SRC) == []


def test_the_walk_sees_what_it_is_looking_for():
    """Each kind of finding, on the idioms the parent commit was full of."""
    parent_idioms = '''
from repro.obs.spans import NULL_RECORDER

class Server:
    def __init__(self, metrics, tracer=None, obs=None):
        self.obs = obs if obs is not None else NULL_RECORDER

    def evaluate(self):
        if self.metrics.live is not None:
            self.metrics.live.record_proof_eval(self.name, "commit", 1.0, 2.0)
        self.metrics.flight.record(self.name, 2.0, "proof.eval")
        if self.tracer.enabled:  # a read, not a call
            self.tracer.record(2.0, "proof.eval")
        hook = lambda waited, on_wait=None: tracer.record(waited, "lock.wait")
        self.metrics.spans.finish(None, 2.0)  # spans are explicit by design
'''
    found = findings_in(ast.parse(parent_idioms), "parent")
    assert sorted(line.split(": ", 1)[1] for line in found) == [
        "NULL_RECORDER",
        "NULL_RECORDER imported",
        "call on a recorder: flight.record(...)",
        "call on a recorder: live.record_proof_eval(...)",
        "call on a recorder: tracer.record(...)",
        "call on a recorder: tracer.record(...)",
        "parameter 'obs' of __init__",
        "parameter 'on_wait' of lambda",
        "parameter 'tracer' of __init__",
    ]
