"""Lints on the package source.

Every top-level function and class of the package, errors.py aside, is
reached from what runs it: the module-level code of each module (so
cli.main, through the `__main__` guard) and every limcone name that the
perfbench scripts use, the traced attach points included.  A test is
not a caller.  An edge is a module-qualified reference only: a name
bound by `from .x import y`, or the attribute y of a bound module x, so
an attribute such as `ClassSpectra.jordan` reaches nothing.  Every field
of a public dataclass is read by an attribute load in the package or
perfbench/, again not in tests/, on a receiver of its own class where
the receiver resolves: `self` inside a class, a call to a class or to a
package function annotated with its return class, or a name assigned
from such a call in the same function.  A read of a name that two public
dataclasses declare counts only on a resolved receiver.  Every error
class is raised in the package or is a base of one that is.  Every defaulted parameter of a package
function or method is passed, by keyword or by position, by some call in
the package or perfbench/; a call in tests/ counts only for the
exact-oracle seam weight_hook, which tests alone set.  Every name the
traced benchmark run patches exists, and a module that imports a
patched name by name is patched too.  Every import, stdlib ones included,
sits at module level, and every package-internal one reaches only
modules ranked below its own (_LAYERS)."""

import ast
import importlib
import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TEST_SEAMS = {"weight_hook"}       # defaulted parameters only tests pass
# a module imports only from modules ranked below it; __init__ is exempt
_LAYERS = {"errors": 0, "words": 1, "spectra": 1, "reps": 1, "bulk": 2,
           "counting": 3, "pressure": 3, "growth": 4, "cli": 5}


def load_tracing(root):
    spec = importlib.util.spec_from_file_location("tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def bindings(tree, modules):
    """Names a file binds by importing from the package: name ->
    ("module", m) or ("name", m, y), with m None for the package itself."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("limcone") and a.asname is None for a in node.names):
                bound["limcone"] = ("module", None)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("limcone")):
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            where = parts[0] if parts and parts[0] else None
            for a in node.names:
                if where is None and a.name in modules:
                    bound[a.asname or a.name] = ("module", a.name)
                elif a.name != "*":
                    bound[a.asname or a.name] = ("name", where, a.name)
    return bound


def references(nodes, bound, module=None, defs=()):
    """(module, name) pairs the nodes reference: names bound to package
    names, attributes of bound modules (limcone.m.y too) and, with module
    given, bare names of that module's own definitions."""
    def module_of(expr):          # the module an expression names, None the package, else False
        if isinstance(expr, ast.Name):
            b = bound.get(expr.id)
            return b[1] if b and b[0] == "module" else False
        if isinstance(expr, ast.Attribute) and module_of(expr.value) is None:
            return expr.attr
        return False

    out = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            b = bound.get(sub.id)
            if b and b[0] == "name":
                out.add(b[1:])
            elif sub.id in defs:
                out.add((module, sub.id))
        elif isinstance(sub, ast.Attribute) and module_of(sub.value) is not False:
            out.add((module_of(sub.value), sub.attr))
    return out


def unreached(root):
    """Top-level functions and classes of root/src/limcone, errors.py
    aside, that nothing reaches, as sorted "module.name" strings."""
    files = {p.stem: p for p in (root / "src" / "limcone").glob("*.py") if p.stem != "__init__"}
    trees = {m: ast.parse(p.read_text()) for m, p in files.items()}
    bound = {m: bindings(tree, files) for m, tree in trees.items()}
    defs = {m: {n.name: n for n in tree.body if isinstance(n, _DEFS)} for m, tree in trees.items()}

    def resolve(module, name):
        """The definition a module-qualified name stands for, if any."""
        if module is None:                     # re-exported by the package
            owners = [m for m in defs if name in defs[m]]
            return (owners[0], name) if len(owners) == 1 else None
        if name in defs.get(module, ()):
            return module, name
        b = bound.get(module, {}).get(name)
        return resolve(*b[1:]) if b and b[0] == "name" else None

    roots = {(mod, attr) for mod, attr, _ in load_tracing(root).ATTACH_POINTS}
    for m, tree in trees.items():
        code = [n for n in tree.body if not isinstance(n, _DEFS + (ast.Import, ast.ImportFrom))]
        roots |= references(code, bound[m], m, defs[m])
    for path in (root / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        roots |= references([tree], bindings(tree, files))
    seen, todo = set(), list(roots)
    while todo:
        d = resolve(*todo.pop())
        if d is not None and d not in seen:
            seen.add(d)
            todo.extend(references([defs[d[0]][d[1]]], bound[d[0]], d[0], defs[d[0]]))
    return sorted(f"{m}.{name}" for m in defs if m != "errors" for name in defs[m]
                  if (m, name) not in seen)


def test_every_definition_is_reached():
    missing = unreached(ROOT)
    assert not missing, f"reached from neither the package nor perfbench: {missing}"


def unraised_errors(root):
    """Classes of root/src/limcone/errors.py that no other module of the
    package instantiates and that are no base of one it does, sorted.
    An instance counts as raised: every raise site builds its error by a
    call, and counting._cone_hull raises one built by its caller."""
    package = root / "src" / "limcone"
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse((package / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)}
    todo = [sub.func.id for path in package.glob("*.py") if path.stem != "errors"
            for sub in ast.walk(ast.parse(path.read_text()))
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id in bases]
    raised = set()
    while todo:
        name = todo.pop()
        if name in bases and name not in raised:
            raised.add(name)
            todo.extend(bases[name])
    return sorted(set(bases) - raised)


def test_every_error_is_raised():
    unraised = unraised_errors(ROOT)
    assert not unraised, f"error classes the package never raises: {unraised}"


def public_dataclass_fields(tree):
    return [(node.name, item.target.id)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign)]


def unread_fields(root):
    """Fields of the public dataclasses of root/src/limcone that no
    attribute load in the package or root/perfbench reads, as sorted
    "Class.field" strings; a test is not a reader.  A receiver resolves
    to a class: self to the class it is used in, a call to a package
    class or to a package function annotated with a return class to that
    class, and a name its function assigns from such calls of one class
    only to that class.  A read counts for the class its receiver
    resolves to; an unresolved read counts for the one public dataclass
    that declares the name, and for none when two declare it."""
    package = [ast.parse(p.read_text()) for p in (root / "src" / "limcone").glob("*.py")]
    declared = {}
    for tree in package:
        for cls, field in public_dataclass_fields(tree):
            declared.setdefault(field, []).append(cls)
    made = {n.name: n.name if isinstance(n, ast.ClassDef) else ast.unparse(n.returns)
            for tree in package for n in tree.body
            if isinstance(n, ast.ClassDef) or (isinstance(n, ast.FunctionDef) and n.returns)}

    def kind(expr):               # the class a call builds or returns, else None
        if isinstance(expr, ast.Call):
            f = expr.func
            return made.get(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))

    def assigned(fn):             # names fn assigns from calls of one class only
        pairs = [(t.id, kind(a.value)) for a in ast.walk(fn) if isinstance(a, ast.Assign)
                 for t in a.targets if isinstance(t, ast.Name)]
        return {n: k for n, k in pairs if k and all(k2 == k for n2, k2 in pairs if n2 == n)}

    read = set()

    def visit(node, cls, local):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                r = sub.value
                owner = (kind(r) if not isinstance(r, ast.Name)
                         else cls if r.id == "self" else local.get(r.id))
                if owner is not None:
                    read.add((owner, sub.attr))
                elif len(declared.get(sub.attr, ())) == 1:
                    read.add((declared[sub.attr][0], sub.attr))
            visit(sub, sub.name if isinstance(sub, ast.ClassDef) else cls,
                  assigned(sub) if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else local)

    for tree in package + [ast.parse(p.read_text()) for p in (root / "perfbench").glob("*.py")]:
        visit(tree, None, {})
    return sorted(f"{cls}.{field}" for field, owners in declared.items() for cls in owners
                  if (cls, field) not in read)


def test_public_dataclass_fields_are_read():
    unread = unread_fields(ROOT)
    assert not unread, f"dataclass fields nothing outside tests/ reads: {unread}"


def test_field_lint_flags_false_readers(tmp_path):
    # one field read properly, and one for each reader that is not one: a
    # test, another object's same-named attribute, self in another class,
    # and a name two dataclasses share, read through the other class or
    # through a receiver that does not resolve
    files = {
        "src/limcone/box.py": """
            import argparse
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Sample:
                kept: float
                tested: float
                t: float
                degenerate: bool
                value: float

            @dataclass(frozen=True)
            class Estimate:
                value: float

            class Count:
                def __init__(self):
                    self.degenerate = False

                def op(self):
                    return self.degenerate

            def parse(argv) -> argparse.Namespace:
                return argparse.Namespace(t=float(argv[0]))

            def estimate() -> Estimate:
                return Estimate(1.0)

            def main(argv):
                args = parse(argv)
                est = estimate()
                return Sample(1.0, 2.0, 3.0, False, 4.0).kept + args.t + est.value

            def note(result):
                return result.value
            """,
        "tests/test_box.py": """
            from limcone.box import Sample

            def test_tested():
                assert Sample(1.0, 2.0, 3.0, False, 4.0).tested == 2.0
            """,
        "perfbench/run.py": """
            from limcone import box

            box.Count().op()
            """,
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(textwrap.dedent(text))
    assert unread_fields(tmp_path) == [
        "Sample.degenerate", "Sample.t", "Sample.tested", "Sample.value"]


def defaulted_parameters(tree):
    """(call name, parameter, call position or None if keyword-only) for
    every defaulted parameter of the functions and methods of tree.  A
    method is called by its attribute name, __init__ by its class name,
    and its call positions skip self; other dunders are called by syntax."""
    out = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                name = cls if node.name == "__init__" else node.name
                if name.startswith("__"):
                    continue
                a = node.args
                params = a.posonlyargs + a.args
                first = len(params) - len(a.defaults)
                out.extend((name, p.arg, i - (cls is not None))
                           for i, p in enumerate(params) if i >= first)
                out.extend((name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body)

    visit(tree.body)
    return out


def unpassed_parameters(root):
    """Defaulted parameters of root/src/limcone that no call in the
    package or perfbench/ passes, by keyword or by position, as sorted
    "module.function(parameter=)" strings; a call in tests/ passes only
    the _TEST_SEAMS.  Calls match by the called name alone, so a
    parameter counts as passed when any function or method of that name
    is called with it."""
    package = sorted((root / "src" / "limcone").glob("*.py"))
    callers = package + sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    calls = {}
    for path in callers:
        seams_only = path.parent.name == "tests"
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(x, ast.Starred) for x in sub.args)
                positions = float("inf") if starred else len(sub.args)
                calls.setdefault(name, []).append(
                    (positions, {k.arg for k in sub.keywords}, seams_only))

    def passed(name, param, pos):
        return any((param in keywords or None in keywords or (pos is not None and positions > pos))
                   and (param in _TEST_SEAMS or not seams_only)
                   for positions, keywords, seams_only in calls.get(name, ()))

    return [f"{path.stem}.{name}({param}=)" for path in package
            for name, param, pos in defaulted_parameters(ast.parse(path.read_text()))
            if not passed(name, param, pos)]


def test_every_default_is_overridden():
    unpassed = unpassed_parameters(ROOT)
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_trace_attach_points_resolve():
    missing = [f"{mod}.{attr}" for mod, attr, _ in load_tracing(ROOT).ATTACH_POINTS
               if getattr(importlib.import_module("limcone." + mod), attr, None) is None]
    assert not missing, f"attach points the traced run cannot patch: {missing}"


def untraced_bindings(root):
    """Names a module of root/src/limcone binds by `from .x import y`
    where (x, y) is a traced attach point and (module, y) is not, as
    sorted "module.y" strings.  The traced run patches the attribute y of
    x after the package is imported, so a call through such a binding
    escapes its span and is booked as the caller's own time."""
    files = {p.stem: p for p in (root / "src" / "limcone").glob("*.py") if p.stem != "__init__"}
    points = {(mod, attr) for mod, attr, _ in load_tracing(root).ATTACH_POINTS}
    return sorted(f"{m}.{name}" for m, path in files.items()
                  for name, b in bindings(ast.parse(path.read_text()), files).items()
                  if b[0] == "name" and b[1:] in points and (m, name) not in points)


def test_traced_names_are_bound_where_they_are_patched():
    untraced = untraced_bindings(ROOT)
    assert not untraced, f"imported by name past the traced attach points: {untraced}"


def layering_violations(root):
    """Imports of root/src/limcone, __init__ aside, that sit below module
    level (stdlib ones too) or reach a package module not ranked below
    their own in _LAYERS, as sorted "module.py:line" strings."""
    out = []
    for path in sorted((root / "src" / "limcone").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                targets = [n.split(".")[1] for n in names if n.startswith("limcone.")]
            else:
                continue
            rank = _LAYERS.get(path.stem, -1)
            if node not in tree.body or any(_LAYERS.get(t.split(".")[0], rank) >= rank
                                            for t in targets):
                out.append(f"{path.name}:{node.lineno}")
    return sorted(out)


def test_imports_follow_the_layers():
    wrong = layering_violations(ROOT)
    assert not wrong, f"imports below module level or up a layer: {wrong}"


def test_layer_lint_flags_late_and_upward_imports(tmp_path):
    files = {
        "words.py": "from .errors import InvalidParameterError\n",
        "bulk.py": "from . import words\n\ndef f():\n    from .errors import InvalidParameterError\n"
                   "    import json\n",
        "spectra.py": "from .reps import load_rep\n",
        "counting.py": "import limcone.growth\nfrom .pressure import DEFAULT_N_MAX\n",
        "extra.py": "from . import words\n",
    }
    package = tmp_path / "src" / "limcone"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    assert layering_violations(tmp_path) == [
        "bulk.py:4", "bulk.py:5", "counting.py:1", "counting.py:2", "extra.py:1", "spectra.py:1"]
