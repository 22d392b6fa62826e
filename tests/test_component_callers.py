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
binds to a component, by construction (``self.rob = ReorderBuffer(...)``,
``with Cls(...) as x``, a call of a function annotated ``-> Cls``), by
an annotation (``pools: PoolFile``), or by aliasing such a name
(``rob = be.rob``). A call that makes one (``Cls().name``) and the class
itself (``Cls.name``) are typed receivers too. Any other receiver is not
a caller. tests/test_public_callers.py types its receivers the same way.
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


def _made(expr, classes, returns):
    """The classes of ``classes`` that ``expr`` builds or returns: a call
    of the class itself, or of a function annotated to return it."""
    if not isinstance(expr, ast.Call):
        return set()
    name = _name(expr.func)
    return {name} if name in classes else returns.get(name, set())


def _annotated(annotation, classes):
    return {_name(sub) for sub in ast.walk(annotation)
            if _name(sub) in classes}


def _receiver_types(trees, classes):
    """Name -> the classes of ``classes`` an object under that name can
    be: bound by a parameter or variable annotation, by construction
    (``x = Cls(...)``, ``with Cls(...) as x``, or a call of a function
    annotated ``-> Cls``), or by aliasing such a name (also pairwise,
    ``a, b = x, y``)."""
    returns = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns is not None):
                made = _annotated(node.returns, classes)
                if made:
                    returns.setdefault(node.name, set()).update(made)
    types = {}
    aliases = []
    for tree in trees:
        for node in ast.walk(tree):
            bound = []                   # (target name, classes)
            if isinstance(node, ast.arg) and node.annotation is not None:
                bound.append((node.arg,
                              _annotated(node.annotation, classes)))
            elif isinstance(node, ast.withitem) and node.optional_vars:
                bound.append((_name(node.optional_vars),
                               _made(node.context_expr, classes, returns)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if isinstance(node, ast.AnnAssign):
                    bound.append((_name(node.target),
                                  _annotated(node.annotation, classes)))
                pairs = [(target, node.value) for target in targets
                         if node.value is not None]
                for target, value in pairs:
                    if (isinstance(target, ast.Tuple)
                            and isinstance(value, ast.Tuple)
                            and len(target.elts) == len(value.elts)):
                        # ``a, b = x.stats, y.stats``: pairwise
                        pairs.extend(zip(target.elts, value.elts))
                        continue
                    made = _made(value, classes, returns)
                    if made:
                        bound.append((_name(target), made))
                    elif _name(value) is not None:
                        aliases.append((_name(target), _name(value)))
            for target, made in bound:
                if made:
                    types.setdefault(target, set()).update(made)
    changed = True
    while changed:
        changed = False
        for target, source in aliases:
            new = types.get(source, set()) - types.get(target, set())
            if new:
                types.setdefault(target, set()).update(new)
                changed = True
    return types, returns


def typed_references(trees, classes):
    """``(class, attribute) -> [(path, line)]``: every attribute read in
    ``trees`` (path -> module) whose receiver can be an instance of one
    of ``classes``: ``self`` inside the class, the class itself, a
    typed name (:func:`_receiver_types`), or a call that makes one."""
    types, returns = _receiver_types(trees.values(), classes)
    refs = {}
    for path, tree in trees.items():
        for node, cls in _walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            receiver = node.value
            name = _name(receiver)
            if name == "self":
                owners = {cls} & set(classes)
            elif name in classes and isinstance(receiver, ast.Name):
                owners = {name}
            else:
                owners = (_made(receiver, classes, returns)
                          or types.get(name, ()))
            for owner in owners:
                refs.setdefault((owner, node.attr), []).append(
                    (path, node.lineno))
    return refs


def _scan():
    """(classes found, definitions, typed references) over every module
    in src/."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}
    classes = set()
    defs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in COMPONENTS:
                classes.add(node.name)
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        assert (node.name, item.name) not in defs
                        defs[node.name, item.name] = (
                            path, item.lineno, item.end_lineno)
    return classes, defs, typed_references(trees, COMPONENTS)


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
