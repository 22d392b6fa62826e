"""Components keep no per-instruction method that the run loops bypass.

The machine components hold state and rare-path methods; per-instruction
logic is written once, inline in the loop that runs it (DESIGN.md §2). A
component method that nothing in ``src/`` calls is a second copy of
that logic, which only its own unit tests exercise and which can drift
from the real code. This test scans the source: every public method or
property of the classes below must be referenced (as ``.name``) somewhere
in ``src/`` outside its own definition and outside other unreferenced
methods.

A reference counts only when its receiver can be an instance of that
class, so a same-named method elsewhere (a file handle's ``flush()``,
``dict.clear()``) hides nothing.
The receiver is typed by its last name (``self.rob`` and ``rob`` both by
``rob``): ``self`` inside the class itself, or a name that ``src/``
binds to a component, by construction (``self.rob = ReorderBuffer(...)``),
by a parameter annotation (``pools: PoolFile``), or by aliasing such a
name (``rob = be.rob``). Any other receiver is not a caller.
"""

import ast
import importlib
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

COMPONENTS = ("TwoPhaseRenamer", "PoolFile", "FillBuffer", "TraceBuilder",
              "ExecutionCache", "SyncFifo", "TickScheduler", "IssueWindow",
              "ReorderBuffer", "ExecBackend", "FrontEndFeed", "FuPool",
              "LoadStoreQueue", "DeadlockWatchdog", "MemoryHierarchy",
              "Cache")

#: Unreferenced on purpose, with the reason.
ALLOWED = {
    ("TickScheduler", "next_event"):
        "reference model: the drain_until tests step a scheduler tick by "
        "tick against the bulk skip the Flywheel loop uses",
    ("TickScheduler", "now_ps"):
        "reference model: the current time of that tick-by-tick scheduler",
}


def _name(expr):
    """The last name of ``a.b.c`` or ``c``; None for other expressions."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _walk(node, cls=None):
    """Every node below ``node``, with the name of its enclosing class."""
    for child in ast.iter_child_nodes(node):
        yield child, cls
        yield from _walk(child, child.name
                         if isinstance(child, ast.ClassDef) else cls)


def _receiver_types(trees):
    """Name -> component classes an object under that name can be."""
    types = {}
    aliases = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.annotation is not None:
                for sub in ast.walk(node.annotation):
                    if _name(sub) in COMPONENTS:
                        types.setdefault(node.arg, set()).add(_name(sub))
            elif (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and node.value is not None):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                made = (_name(value.func) if isinstance(value, ast.Call)
                        else None)
                for target in targets:
                    if made in COMPONENTS:
                        types.setdefault(_name(target), set()).add(made)
                    elif _name(value) is not None:
                        aliases.append((_name(target), _name(value)))
    changed = True
    while changed:
        changed = False
        for target, source in aliases:
            new = types.get(source, set()) - types.get(target, set())
            if new:
                types.setdefault(target, set()).update(new)
                changed = True
    return types


def _scan():
    """(classes found, definitions, typed references) over every module
    in src/."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}
    types = _receiver_types(trees.values())
    classes = set()
    defs = {}
    refs = {}
    for path, tree in trees.items():
        for node, cls in _walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in COMPONENTS:
                classes.add(node.name)
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        assert (node.name, item.name) not in defs
                        defs[node.name, item.name] = (
                            path, item.lineno, item.end_lineno)
            elif isinstance(node, ast.Attribute):
                receiver = _name(node.value)
                for owner in ({cls} if receiver == "self"
                              else types.get(receiver, ())):
                    refs.setdefault((owner, node.attr), []).append(
                        (path, node.lineno))
    return classes, defs, refs


def _outside(ref, span):
    path, line = ref
    return not (path == span[0] and span[1] <= line <= span[2])


@lru_cache(maxsize=None)
def _unreferenced():
    """Methods with no reference outside themselves and the methods
    already found unreferenced (iterated to a fixed point)."""
    classes, defs, refs = _scan()
    # A misspelt name would check nothing. (A class may have no public
    # method at all: IssueWindow holds only state.)
    assert classes == set(COMPONENTS)
    dead = set()
    while True:
        spans = [defs[key] for key in dead]
        now = {key for key, span in defs.items()
               if not any(_outside(ref, span)
                          and all(_outside(ref, s) for s in spans)
                          for ref in refs.get(key, ()))}
        if now == dead:
            return frozenset(dead)
        dead = now


def test_every_component_method_has_a_caller():
    dead = _unreferenced()
    unexplained = sorted(f"{cls}.{name}" for cls, name in dead - set(ALLOWED))
    assert not unexplained, (
        "no caller in src/: delete these or add them to ALLOWED with a "
        f"reason: {unexplained}")


def test_allowlist_is_current():
    stale = sorted(f"{cls}.{name}" for cls, name in set(ALLOWED)
                   - _unreferenced())
    assert not stale, f"now called from src/, drop from ALLOWED: {stale}"


def test_dual_clock_window_module_is_gone():
    # The Flywheel builds a plain IssueWindow; the run loop reads
    # FlywheelConfig.delay_network itself.
    with pytest.raises(ImportError):
        importlib.import_module("repro.issue.dual_clock")
