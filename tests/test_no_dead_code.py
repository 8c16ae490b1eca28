"""ROADMAP goal 2, "code that nothing needs is deleted", as a test.

Every top-level function and class of src/rmlab, and every method that is
not a dunder, must be read somewhere outside its own definition: in src/,
scripts/, perfbench/ or the acceptance suite.  A read of a function or
class is a name, an attribute, an imported name or a dotted part of a
string constant (the benchmark's tracer wraps functions by name).  A method
is read only through an attribute or a string constant that holds it as
"Class.method": a bare name or an import that matches it names a module, a
variable or a function, a lone part of a dotted string names a module or a
metric, and `args.x` reads the command-line flag --x.  The unit tests do
not count, except for the short list below, each entry with its reason.
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
    """(names, methods): name -> [(path, line)] of its reads in the
    readers, as a function or class and as a method ("method" for an
    attribute, "Class.method" for a string)."""
    readers = [*glob(os.path.join(SRC, "*.py")),
               *glob(os.path.join(ROOT, "scripts", "*.py")),
               *glob(os.path.join(ROOT, "perfbench", "*.py")),
               os.path.join(ROOT, "tests", "test_acceptance.py")]
    names, methods = {}, {}
    for path in readers:
        for node in ast.walk(_parse(path)):
            as_method = []
            if isinstance(node, ast.Name):
                as_name = [node.id]
            elif isinstance(node, ast.alias):
                as_name = [node.name]
            elif isinstance(node, ast.Attribute):
                as_name = [node.attr]
                if not (isinstance(node.value, ast.Name)
                        and node.value.id == "args"):
                    as_method = as_name
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                as_name = node.value.split(".")
                as_method = [".".join(pair)
                             for pair in zip(as_name, as_name[1:])]
            else:
                continue
            for out, found in ((names, as_name), (methods, as_method)):
                for name in found:
                    out.setdefault(name, []).append((path, node.lineno))
    return names, methods


def unreferenced():
    names, methods = references()
    out = []
    for name, node, path in definitions():
        _, *owner, attr = name.split(".")
        if owner:                        # a method of the class owner[0]
            refs = methods.get(f"{owner[0]}.{attr}", []) + \
                methods.get(attr, [])
        else:
            refs = names.get(attr, [])
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in refs):
            out.append(name)
    return sorted(out)


def test_every_definition_is_read_outside_the_unit_tests():
    assert unreferenced() == sorted(TEST_ONLY)
