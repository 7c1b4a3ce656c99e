"""The library's public surface: every public name has a caller outside the
tests, the package re-exports nothing, and the counting layer does not load
the semifield layer."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "skewloop").glob("*.py"))
# bench/tests is the harness's own test suite, not a caller
CALLERS = SRC + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
# the isotopy and isomorphism machinery of ROADMAP items 5 and 8, which has
# no caller yet; `loop_from_table` is a test-only constructor
ALLOWED = {"loop_isomorphic", "loop_from_table"}


def public_definitions(path):
    """(name, first line, last line) of each public module-level function,
    class and assigned name of a module, and of each public method."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(n.name, n) for n in node.body if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, n.lineno, n.end_lineno) for name, n in out if not name.startswith("_")]


def references(path):
    """(name, line) of every name, attribute and import the file reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rpartition(".")[2], node.lineno))
    return out


def test_every_public_name_has_a_caller():
    # matched by name, so a method is kept alive by any use of its name:
    # a method named like a method of another class (`LoopCtx.mul` beside
    # `FieldCtx.mul` and `SemifieldCtx.mul`) passes with no caller of its own
    refs = {path: references(path) for path in CALLERS}
    unused = []
    for path in SRC:
        for name, first, last in public_definitions(path):
            if name in ALLOWED:
                continue
            if not any(ref == name and (other != path or not first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "public names with no caller in src/, bench/ or demos/: " + ", ".join(unused)


def test_package_reexports_nothing():
    tree = ast.parse((ROOT / "src" / "skewloop" / "__init__.py").read_text())
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
    assert not [n for n in public_definitions(ROOT / "src" / "skewloop" / "__init__.py")]


def test_census_does_not_load_semifield():
    # census counts over gf and skewpoly alone; similarity is by reduced norm
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, skewloop.census; print(sorted(m for m in sys.modules if 'skewloop' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert ast.literal_eval(out) == ["skewloop", "skewloop.census", "skewloop.gf",
                                     "skewloop.skewpoly"]
