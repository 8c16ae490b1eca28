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

An attribute read of a method name that several classes define is resolved
through its class.  A property is read without a call and any other method
with one, and a read that leaves two candidates reads the method of the
receiver's class where the code shows it: `self`, the class itself, a call
of the class, a parameter annotated with it, a local variable assigned one
of these, an arithmetic expression whose left (else right) operand is one,
or a call of a function or method whose return annotation names it or, for
an unannotated function, whose first resolved `return` gives it.  Any other
read of such a name reads none of them.
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
}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _classes():
    """name -> {method name -> def} for the classes of src/rmlab."""
    return {node.name: {item.name: item for item in node.body
                        if isinstance(item, ast.FunctionDef)}
            for path in glob(os.path.join(SRC, "*.py"))
            for node in _parse(path).body if isinstance(node, ast.ClassDef)}


CLASSES = _classes()
OWNER = {id(fn): cls for cls, fns in CLASSES.items() for fn in fns.values()}


def _decorated(fn, name):
    return any(getattr(d, "id", None) == name for d in fn.decorator_list)


def _named(annotation):
    """The class of src/rmlab an annotation names, or None."""
    name = getattr(annotation, "id", getattr(annotation, "value", None))
    return name if name in CLASSES else None


class Receivers:
    """The src class of an expression's value where a reader shows it (see
    the module docstring), with `functions` the top-level functions the
    reader can call by name."""

    def __init__(self, functions):
        self.functions = functions
        self.returns = {}

    def env(self, fn, cls):
        """Variable -> class in the body of fn, a method of cls or not."""
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        env = {a.arg: _named(a.annotation) for a in args}
        if cls and args and not _decorated(fn, "staticmethod"):
            env[args[0].arg] = cls
        assigns = [node for node in ast.walk(fn)
                   if isinstance(node, ast.Assign) and len(node.targets) == 1
                   and isinstance(node.targets[0], ast.Name)]
        for node in sorted(assigns, key=lambda node: node.lineno):
            env[node.targets[0].id] = self.type(node.value, env)
        return env

    def type(self, expr, env):
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _named(expr))
        if isinstance(expr, ast.BinOp):
            return self.type(expr.left, env) or self.type(expr.right, env)
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            fn = self.functions.get(func.id)
            return _named(func) or (fn and self.result(fn))
        if isinstance(func, ast.Attribute):
            cls = self.owner(func, env, True)
            return cls and self.result(CLASSES[cls][func.attr])
        return None

    def owner(self, attr, env, called):
        """The class whose method the read `attr` is, or None."""
        owners = [cls for cls, fns in CLASSES.items()
                  if attr.attr in fns
                  and _decorated(fns[attr.attr], "property") != called]
        if len(owners) == 1:
            return owners[0]
        kind = self.type(attr.value, env)
        return kind if kind in owners else None

    def result(self, fn):
        """The class fn returns, by annotation or by its returns."""
        if id(fn) not in self.returns:
            self.returns[id(fn)] = None              # recursion guard
            kind = _named(fn.returns)
            if not kind and fn.returns is None:
                env = self.env(fn, OWNER.get(id(fn)))
                kind = next(filter(None, (
                    self.type(node.value, env) for node in ast.walk(fn)
                    if isinstance(node, ast.Return) and node.value)), None)
            self.returns[id(fn)] = kind
        return self.returns[id(fn)]

    def scoped(self, node, env, cls=None):
        """(child, the variable types of its innermost function) for every
        node under node, the body of class cls or of no class."""
        for child in ast.iter_child_nodes(node):
            yield child, env
            if isinstance(child, ast.FunctionDef):
                yield from self.scoped(child, self.env(child, cls))
            elif isinstance(child, ast.ClassDef):
                yield from self.scoped(child, env, child.name)
            else:
                yield from self.scoped(child, env, cls)


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
    ambiguous = {attr for attr in {a for fns in CLASSES.values() for a in fns}
                 if sum(attr in fns for fns in CLASSES.values()) > 1}
    library = {node.name: node
               for path in glob(os.path.join(SRC, "*.py"))
               for node in _parse(path).body
               if isinstance(node, ast.FunctionDef)}
    names, methods = {}, {}
    for path in readers:
        tree = _parse(path)
        receivers = Receivers({**library, **{
            node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}})
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        for node, env in receivers.scoped(tree, {}):
            as_method = []
            if isinstance(node, ast.Name):
                as_name = [node.id]
            elif isinstance(node, ast.alias):
                as_name = [node.name]
            elif isinstance(node, ast.Attribute):
                as_name = [node.attr]
                if node.attr in ambiguous:
                    cls = receivers.owner(node, env, id(node) in called)
                    as_method = [f"{cls}.{node.attr}"] if cls else []
                elif not (isinstance(node.value, ast.Name)
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
