"""ROADMAP goal 2, "code that nothing needs is deleted", as a test.

Every top-level function and class of src/rmlab, and every method that is
not a dunder, must be read somewhere outside its own definition: in src/,
scripts/, perfbench/ or the acceptance suite.  A read is a name, an
attribute, an imported name or a dotted part of a string constant (the
benchmark's tracer wraps functions by name).  The unit tests do not count,
except for the short list below, each entry with its reason.
"""

import ast
import os
from glob import glob

import rmlab

SRC = os.path.dirname(os.path.abspath(rmlab.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))

TEST_ONLY = {
    "lattice.gram_det":
        "the LLL tests check that reduction keeps the Gram determinant",
    "lattice.is_lll_reduced":
        "the LLL tests check the size-reduction and Lovasz conditions",
    "siegelmeasure.BallMeasure.value_at":
        "the measure tests check distribution and the primitivity guard "
        "one ball at a time",
    "quadfield.apply_sl2":
        "the form tests check reduction steps, automorphs and the Moebius "
        "action of SL2(Z) with it",
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def definitions():
    """(qualified name, node, path) per definition under the rule."""
    for path in sorted(glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node, path
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.endswith("__")):
                        yield f"{module}.{node.name}.{item.name}", item, path


def references():
    """name -> [(path, line)] of its reads in the readers."""
    readers = [*glob(os.path.join(SRC, "*.py")),
               *glob(os.path.join(ROOT, "scripts", "*.py")),
               *glob(os.path.join(ROOT, "perfbench", "*.py")),
               os.path.join(ROOT, "tests", "test_acceptance.py")]
    out = {}
    for path in readers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                out.setdefault(name, []).append((path, node.lineno))
    return out


def unreferenced():
    refs = references()
    return sorted(
        name for name, node, path in definitions()
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in refs.get(name.rsplit(".", 1)[1], [])))


def test_every_definition_is_read_outside_the_unit_tests():
    assert unreferenced() == sorted(TEST_ONLY)
