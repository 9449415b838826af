"""Every public name in covergap is read by the program or the benchmark.

A public module-level function or class, or a public method, property or
dataclass field of any class in src/covergap, must appear as a name or
attribute in the code of src/covergap or perfbench; docstrings and comments
do not count. Test oracles, which only tests read, are listed in ORACLES
with the reason they stay. Every name the benchmark's tracer wraps must
also still exist.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "covergap").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

ORACLES = {
    "evaluate": "the matrix of a word, which the Dehn-reduction and "
                "side-pairing tests compare with (AC8 reads letter_matrix)",
    "linearized_lower_bound": "goes once the benchmark stops wrapping "
                              "gap_lower_bound_coefficient (ROADMAP items 6 and 14)",
}


def _is_dataclass(node):
    return any(ast.unparse(d).split("(")[0] in ("dataclass", "dataclasses.dataclass")
               for d in node.decorator_list)


def _definitions(path):
    """(name, line, is_member) of the public module-level defs and classes
    and of the public methods, properties and dataclass fields of every
    class in one file."""
    tree = ast.parse(path.read_text())
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                      and isinstance(item.target, ast.Name)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield name, item.lineno, True


def _loaded_names():
    """The names and the attributes the readers load, in two sets: a member
    is read only as an attribute, so a local variable of the same name does
    not count for it."""
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def _unread():
    names, attrs = _loaded_names()
    for path in SOURCES:
        for name, line, is_member in _definitions(path):
            if name not in attrs and (is_member or name not in names):
                yield name, f"{path.name}:{line} {name}"


def test_every_public_name_is_read_or_an_oracle():
    unread = [where for name, where in _unread() if name not in ORACLES]
    assert not unread, "public names only tests read: " + ", ".join(unread)


def test_every_oracle_is_defined_and_unread():
    # an entry that the program reads, or that is no longer defined, is stale
    assert set(ORACLES) == {name for name, _ in _unread()}


def test_benchmark_tracer_wraps_and_restores(monkeypatch):
    # perfbench/child.py wraps covergap functions by name, so a refactor
    # that drops or renames one fails here as well as in the traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    child = importlib.import_module("child")
    tracer = child.Tracer()
    child._install(tracer, {"ops": {}})
    wrapped = list(tracer._undo)
    assert wrapped
    assert all(getattr(module, attr) is not original
               for module, attr, original in wrapped)
    tracer.restore()
    assert all(getattr(module, attr) is original
               for module, attr, original in wrapped)
