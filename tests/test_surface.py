"""The package surface: every module-level function and class in src/cgv has
a caller in src/cgv, and `import cgv` loads the layers without the CLI."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cgv"


def _tracer_targets():
    """(module, name) of every function and class the benchmark tracer patches."""
    spec = importlib.util.spec_from_file_location("_cgv_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return ({(mod.rsplit(".", 1)[1], fn) for _, mod, fn in tracer.FUNCTIONS}
            | {(mod.rsplit(".", 1)[1], cls) for _, mod, cls, _ in tracer.METHODS})


# entry points and the test oracle, called only from outside the package
ENTRY_POINTS = {("cli", "main"), ("geometry", "build_cubics"), ("nf", "nf_reduce")}


def _unreferenced():
    """Module-level definitions in src/cgv that no code in src/cgv outside
    their own body names, as a Name or an attribute."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
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
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or (mod, d.name) in allowed:
                continue
            own = {id(n) for n in ast.walk(d)}
            if not references.get(d.name, set()) - own:
                out.append(f"{mod}.{d.name}")
    return out


def test_every_module_level_definition_has_a_caller():
    assert _unreferenced() == []


LAYERS = ["cgv", "cgv.baselocus", "cgv.claims", "cgv.divisors", "cgv.genus", "cgv.geometry",
          "cgv.linalg", "cgv.mpoly", "cgv.nf", "cgv.parsing", "cgv.reportlib", "cgv.suites",
          "cgv.tangent", "cgv.upoly"]


def test_import_loads_the_layers_without_the_cli():
    # the benchmark's setup time is `import cgv` plus build_cubics(): the import
    # must load every layer it has always loaded, and no command-line parsing
    code = ("import sys, cgv; "
            "print(sorted(m for m in sys.modules if m == 'cgv' or m.startswith('cgv.'))); "
            "print('argparse' in sys.modules, callable(cgv.build_cubics))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.splitlines()
    assert ast.literal_eval(out[0]) == LAYERS
    assert out[1] == "False True"
