"""The package surface: every module-level function, class and namedtuple in
src/cgv, and every public method and property of those classes, has a caller
in src/cgv; every defaulted parameter, a namedtuple field with a default
included, is both passed and left at its default there; `import cgv` loads
the layers without the CLI, `dataclasses` or the standard library's other
number types; src/cgv imports only itself and the standard library, with
no import cycle among its modules and the printed source (`claims`) read by
geometry and the suites alone, has no floating point and no rational
type but its own, and turns every exception it catches as `Exception`
into an error check.  The value types are read-only, compare by value, and
the cubic family by identity."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cgv import geometry
from cgv.baselocus import Stratum
from cgv.claims import claim
from cgv.divisors import HYPERPLANE, DivisorClass
from cgv.geometry import SIGMA, build_cubics
from cgv.mpoly import MPoly
from cgv.reportlib import make_check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cgv"


def _tracer():
    spec = importlib.util.spec_from_file_location("_cgv_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_targets():
    """(module, name) of every function and class the benchmark tracer patches."""
    tracer = _tracer()
    return ({(mod.rsplit(".", 1)[1], fn) for _, mod, fn in tracer.FUNCTIONS}
            | {(mod.rsplit(".", 1)[1], cls) for _, mod, cls, _ in tracer.METHODS})


def _tracer_methods():
    """(class, method) of every method the benchmark tracer patches."""
    return {(cls, name) for _, _, cls, names in _tracer().METHODS for name in names}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


# entry points, called only from outside the package
ENTRY_POINTS = {("cli", "main"), ("geometry", "build_cubics")}


def _namedtuple(node):
    """The `namedtuple(...)` call that `node` assigns to one name, or None."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "namedtuple"):
        return node.value
    return None


def _unreferenced():
    """Module-level definitions in src/cgv that no code in src/cgv outside
    their own body names, as a Name or an attribute.  `Name = namedtuple(...)`
    is a definition of Name."""
    trees = _trees()
    references = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, set()).add(id(node))
    allowed = ENTRY_POINTS | _tracer_targets()
    out = []
    for mod, tree in trees.items():
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                name = d.name
            elif _namedtuple(d) is not None:
                name = d.targets[0].id
            else:
                continue
            if (mod, name) in allowed:
                continue
            own = {id(n) for n in ast.walk(d)}
            if not references.get(name, set()) - own:
                out.append(f"{mod}.{name}")
    return out


def test_every_module_level_definition_has_a_caller():
    assert _unreferenced() == []


def _unreferenced_methods():
    """Public methods and properties of classes in src/cgv that no code in
    src/cgv outside their own body reads as an attribute.  Dunders, which
    the language calls, and methods the benchmark tracer patches are exempt."""
    trees = _trees()
    attributes = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(id(node))
    exempt = _tracer_methods()
    out = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for d in cls.body:
                if (not isinstance(d, ast.FunctionDef) or d.name.startswith("_")
                        or (cls.name, d.name) in exempt):
                    continue
                own = {id(n) for n in ast.walk(d)}
                if not attributes.get(d.name, set()) - own:
                    out.append(f"{mod}.{cls.name}.{d.name}")
    return out


def test_every_public_method_has_a_caller():
    assert _unreferenced_methods() == []


def _defaulted(fn, bound):
    """(name, position) of each defaulted parameter of `fn`; the position
    counts the arguments a call writes, after `bound` implicit ones, and is
    None for a keyword-only parameter."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[bound:]
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _passes(call, name, position):
    """Does `call` pass the parameter?  A starred argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (position is not None and len(call.args) > position)


def _namedtuple_defaulted(call):
    """(name, position) of each field of `namedtuple(typename, fields,
    defaults=...)` that has a default: the last len(defaults) fields."""
    fields = call.args[1].value.replace(",", " ").split()
    defaults = next((k.value for k in call.keywords if k.arg == "defaults"), None)
    count = 0 if defaults is None else len(defaults.elts)
    return [(f, i) for i, f in enumerate(fields) if i >= len(fields) - count]


def _callables(trees):
    """(label, defaulted parameters as `_defaulted` gives them, where its calls
    are, the name they call it by) for each function, method and namedtuple
    in src/cgv.  A class call calls `__init__` or `__new__`, or builds the
    namedtuple; a nested function is called in its parent."""
    everywhere = list(trees.values())
    for mod, tree in trees.items():
        for d in tree.body:
            if isinstance(d, ast.FunctionDef):
                yield f"{mod}.{d.name}", _defaulted(d, 0), everywhere, d.name
            elif _namedtuple(d) is not None:
                name = d.targets[0].id
                yield f"{mod}.{name}", _namedtuple_defaulted(d.value), everywhere, name
            elif isinstance(d, ast.ClassDef):
                for m in d.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                                 for x in m.decorator_list)
                    if m.name in ("__init__", "__new__"):
                        yield f"{mod}.{d.name}.{m.name}", _defaulted(m, 1), everywhere, d.name
                    elif not m.name.startswith("__"):
                        yield (f"{mod}.{d.name}.{m.name}", _defaulted(m, int(not static)),
                               everywhere, m.name)
        for outer in ast.walk(tree):
            if isinstance(outer, ast.FunctionDef):
                for inner in outer.body:
                    if isinstance(inner, ast.FunctionDef):
                        yield f"{mod}.{outer.name}.{inner.name}", _defaulted(inner, 0), [outer], inner.name


def _single_use_defaults():
    """Defaulted parameters of functions called in src/cgv that every call
    there passes, or that no call there passes."""
    out = []
    for label, params, scope, name in _callables(_trees()):
        if not params or label == "cli.main":
            continue
        calls = [n for s in scope for n in ast.walk(s) if isinstance(n, ast.Call)
                 and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
        for param, position in params:
            passed = [_passes(c, param, position) for c in calls]
            if calls and (all(passed) or not any(passed)):
                out.append(f"{label}({param}): passed by {sum(passed)} of {len(calls)} calls")
    return out


def test_every_default_is_both_passed_and_left():
    # a default that every call overrides, or that no call overrides, is a
    # parameter with one value in use
    assert _single_use_defaults() == []


LAYERS = ["cgv", "cgv.baselocus", "cgv.claims", "cgv.divisors", "cgv.genus", "cgv.geometry",
          "cgv.linalg", "cgv.mpoly", "cgv.nf", "cgv.parsing", "cgv.reportlib", "cgv.suites",
          "cgv.tangent", "cgv.upoly"]


def test_import_loads_the_layers_without_the_cli():
    # the benchmark's setup time is `import cgv` plus build_cubics(): the import
    # must load every layer it has always loaded, no command-line parsing, and
    # not `dataclasses` (with `inspect`, `ast` and `dis` behind it), which
    # costs more than the rest of the import, nor `fractions`, `decimal` and
    # `numbers`, since Q(r) has one integer form; modules `site` loaded first
    # do not count
    code = ("import sys; before = set(sys.modules); import cgv; "
            "print(sorted(m for m in sys.modules if m == 'cgv' or m.startswith('cgv.'))); "
            "print('argparse' in sys.modules, callable(cgv.build_cubics)); "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', '_decimal', 'numbers'}"
            " & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.splitlines()
    assert ast.literal_eval(out[0]) == LAYERS
    assert out[1] == "False True"
    assert ast.literal_eval(out[2]) == []


def test_imports_are_intra_package_or_stdlib():
    foreign = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{mod}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"cgv"}]
    assert foreign == []


def _import_edges():
    """The modules of src/cgv that each one imports by `from .x import` or
    `from . import x`, imports inside functions included."""
    trees = _trees()
    edges = {mod: set() for mod in trees}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                edges[mod] |= {name.split(".")[0] for name in names} & set(trees)
    return edges


def _import_cycle():
    """A cycle in the graph of `_import_edges`, as a list of modules; []
    when there is none."""
    edges = _import_edges()
    done, path = set(), []

    def visit(mod):
        if mod in path:
            return path[path.index(mod):] + [mod]
        if mod in done:
            return []
        path.append(mod)
        for nxt in sorted(edges[mod]):
            if cycle := visit(nxt):
                return cycle
        path.pop()
        done.add(mod)
        return []

    return next((c for c in map(visit, sorted(edges)) if c), [])


def test_the_package_has_no_import_cycle():
    # a module that imports its importer, even inside a function, ties the
    # two layers into one; a lower layer hands its results up, not down
    assert _import_cycle() == []


def test_only_geometry_and_suites_read_the_printed_source():
    # the printed text is the package's one outside input: geometry builds
    # the family from the printed quadrics, and the suites alone compare
    # computed values with the rest
    readers = {mod for mod, imported in _import_edges().items() if "claims" in imported}
    assert readers == {"geometry", "suites"}


def test_no_floating_point():
    # nor a second rational type: a rational of Q(r) is an NFElem
    floats = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                floats.append(f"{mod}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                floats.append(f"{mod}:{node.lineno}: float(...)")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                floats += [f"{mod}:{node.lineno}: import {name}" for name in names
                           if name and name.split(".")[0] in ("fractions", "decimal", "_decimal")]
    assert floats == []


def _catches_exception(handler):
    """Does the except clause name Exception, alone or in a tuple?"""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "Exception" for t in types)


def test_every_except_exception_reports_an_error_check():
    # an exception caught broadly becomes an error report, never silence
    silent = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _catches_exception(node) and not any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "error_check"
                    for s in node.body for n in ast.walk(s)):
                silent.append(f"{mod}:{node.lineno}")
    assert silent == []


def test_value_types_are_read_only_and_keep_their_equality(monkeypatch):
    family = build_cubics()
    for value, name in [(Stratum((0,)), "taken"), (SIGMA, "images"), (HYPERPLANE, "e"),
                        (family, "cubics"), (family, "mixed_matrix"),
                        (claim("sigma-order"), "value"), (make_check("x", "1"), "computed")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # the lattice class normalises e to a tuple of ints, so equal classes hash equal
    lifted = DivisorClass(1, [0, 0, 0, 0])
    assert lifted == HYPERPLANE and hash(lifted) == hash(HYPERPLANE) and type(lifted.e) is tuple
    # a family is compared by identity, and from a cleared store M is read
    # off the quadrics once per process, by the construction check
    geometry._verified_family.cache_clear()
    calls = []
    support = MPoly.geom_support
    monkeypatch.setattr(MPoly, "geom_support", lambda self: calls.append(1) or support(self))
    other = build_cubics()
    assert other is not family and other != family
    assert other.mixed_matrix is other.mixed_matrix is build_cubics().mixed_matrix
    assert len(calls) == 4
