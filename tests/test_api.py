"""Every public module-level function of the package has a caller or a
test: its name appears in another package module (not the re-exporting
__init__), in tests/ or in perfbench/.  Every field of a public
dataclass is read as `.field` somewhere in the package, tests/ or
perfbench/.  Every name the traced benchmark run patches exists."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "limcone"


def public_functions(path):
    tree = ast.parse(path.read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_public_functions_are_used():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    others = modules + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {p: p.read_text() for p in others}
    unused = []
    for module in modules:
        for name in public_functions(module):
            pattern = re.compile(rf"\b{name}\b")
            if not any(pattern.search(text) for p, text in texts.items() if p != module):
                unused.append(f"{module.name}:{name}")
    assert not unused, f"public functions with no caller or test: {unused}"


def public_dataclass_fields(path):
    tree = ast.parse(path.read_text())
    return [(node.name, item.target.id)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign)]


def test_public_dataclass_fields_are_read():
    modules = sorted(PACKAGE.glob("*.py"))
    sources = modules + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text() for p in sources)
    unread = [f"{module.name}:{cls}.{field}"
              for module in modules for cls, field in public_dataclass_fields(module)
              if not re.search(rf"\.{field}\b", text)]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_trace_attach_points_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.ATTACH_POINTS
               if getattr(importlib.import_module("limcone." + mod), attr, None) is None]
    assert not missing, f"attach points the traced run cannot patch: {missing}"
