"""Every definition in ``src/repro`` has a caller outside the tests.

A function, class or method that only its own unit tests reach is API
nothing uses: it costs reading and upkeep and can drift from the code
that runs. This test scans the source: every module-level function or
class, and every public method or property of a module-level class,
must be referenced somewhere in ``src/``, ``examples/``, ``benchmarks/``
or ``perfbench/`` outside its own definition. Tests are not callers.

A reference is a read, matched by spelling, not by type:

* an attribute read (``x.name``), or a string naming it, alone or as a
  part of a dotted string (perfbench names the layers it wraps as
  ``"RunSpec.cache_key"``; ``getattr`` takes a bare name);
* for a module-level function or class also a bare name read
  (``name(...)``, an annotation, an alias bound by ``import ... as``).
  A bare name cannot reach a method, so a local variable spelt like one
  is no caller of it.

An assignment (``self.name = ...``) reads nothing, so it is no caller
of a method spelt the same.

Spelling alone hides a dead method named like a common attribute: every
core has a ``.stream``, so a ``Session.stream`` nothing called passed.
So the methods and properties of the classes in ``TYPED`` count as
referenced only through a receiver that can be an instance of their
class, typed as tests/test_component_callers.py types its receivers
(``self`` in the class, a name bound by construction, annotation or
alias, ``Cls().name``, ``Cls.name``, and the ``"Cls.name"`` of a dotted
string).

The entries of ``__all__`` and ``_EXPORTS`` and the import statements
themselves are not references: they re-export a name, they do not use
it. Dunder methods are called by the language and are not checked.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

from test_component_callers import typed_references

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = ("src", "examples", "benchmarks", "perfbench")
#: Classes whose methods and properties need a typed receiver.
TYPED = ("Session", "SimStats", "CampaignReport", "InstructionStream")

#: Unreferenced on purpose, with the reason.
ALLOWED = {
    "TickScheduler.next_event":
        "reference model: the drain_until tests step a scheduler tick by "
        "tick against the bulk skip the Flywheel loop uses",
    "TickScheduler.now_ps":
        "reference model: the current time of that tick-by-tick scheduler",
    "ServeHandler.do_GET":
        "http.server dispatches a request to do_<METHOD> by name",
    "ServeHandler.do_POST":
        "http.server dispatches a request to do_<METHOD> by name",
    "ServeHandler.log_message":
        "http.server calls it for every request; the override silences it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
#: Names whose assigned value re-exports rather than references.
_EXPORT_TABLES = ("__all__", "_EXPORTS")


def _definitions():
    """``(qualified name, name, is_method, path, first line, last line)``
    for every checked definition in src/repro."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            out.append((node.name, node.name, False, path, node.lineno,
                        node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{item.name}", item.name, True, path,
                     item.lineno, item.end_lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not item.name.startswith("_"))
    return out


def _export_table_nodes(tree):
    """ids of every node inside an ``__all__``/``_EXPORTS`` value."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(t, ast.Name) and t.id in _EXPORT_TABLES
                for t in targets):
            skip.update(id(sub) for sub in ast.walk(node.value))
    return skip


def _trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in CALLERS
            for path in sorted((ROOT / folder).rglob("*.py"))}


def _references(trees):
    """``(by_attribute, by_name, typed)``: spelling -> [(path, line)],
    and ``(class, attribute) -> [(path, line)]`` for ``TYPED``."""
    attrs, names = {}, {}
    typed = typed_references(trees, TYPED)
    for path, tree in trees.items():
        skip = _export_table_nodes(tree)
        aliases = {alias.asname: alias.name.rpartition(".")[2]
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names if alias.asname}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            where = (path, getattr(node, "lineno", 0))
            if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                         ast.Load):
                for name in {node.id, aliases.get(node.id, node.id)}:
                    names.setdefault(name, []).append(where)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                attrs.setdefault(node.attr, []).append(where)
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _DOTTED.fullmatch(node.value)):
                parts = node.value.split(".")
                for part in parts:
                    attrs.setdefault(part, []).append(where)
                for owner, part in zip(parts, parts[1:]):
                    if owner in TYPED:
                        typed.setdefault((owner, part), []).append(where)
    return attrs, names, typed


@lru_cache(maxsize=None)
def _unreferenced():
    """Qualified names of the definitions with no reference outside
    their own span."""
    attrs, names, typed = _references(_trees())
    dead = set()
    for qualname, name, is_method, path, first, last in _definitions():
        owner = qualname.partition(".")[0]
        if is_method and owner in TYPED:
            refs = typed.get((owner, name), [])
        else:
            refs = attrs.get(name, []) + ([] if is_method
                                          else names.get(name, []))
        if all(ref_path == path and first <= line <= last
               for ref_path, line in refs):
            dead.add(qualname)
    return frozenset(dead)


def test_every_definition_has_a_caller():
    unexplained = sorted(_unreferenced() - set(ALLOWED))
    assert not unexplained, (
        "no caller in src/, examples/, benchmarks/ or perfbench/: delete "
        f"these or add them to ALLOWED with a reason: {unexplained}")


def test_allowlist_is_current():
    defined = {qualname for qualname, *_ in _definitions()}
    assert set(ALLOWED) <= defined, "ALLOWED names a missing definition"
    stale = sorted(set(ALLOWED) - _unreferenced())
    assert not stale, f"now referenced, drop from ALLOWED: {stale}"


def test_the_scan_sees_every_kind_of_reference():
    # A scan that missed a kind of reference would flag live code; pin
    # each kind on a name known to be reached only that way.
    attrs, names, typed = _references(_trees())
    assert "run_core" in names                # called by name in src/
    assert "cache_key" in attrs               # perfbench's dotted LAYERS
    # core/sim.py calls the generator as ``generate`` (import ... as).
    sim = SRC / "core" / "sim.py"
    call_line = next(i for i, line in enumerate(
        sim.read_text().splitlines(), 1) if " generate(" in line)
    assert (sim, call_line) in names["generate_program"]
    # Typed receivers: a session bound by ``with``, a result's stats
    # aliased pairwise, a report returned by an annotated function...
    assert ("Session", "map") in typed
    quickstart = ROOT / "examples" / "quickstart.py"
    assert quickstart in {path for path, _line
                          in typed["SimStats", "time_seconds"]}
    assert ("CampaignReport", "summary") in typed
    # ...and a spelling alone is none: every core has a ``.stream``.
    assert "stream" in attrs and ("Session", "stream") not in typed
