"""The benchmark's tracer wraps respectra functions by name; a rename in the
package must fail here, not only under ``perfbench/run.py --trace 1``.  The
package keeps no public function or method that only tests call: each
function is called in ``src``, exported from the package or wrapped by the
tracer, and each method or property of a class is referenced as an
attribute (``x.name``) in ``src`` or wrapped by the tracer."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "respectra"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for layer, module, attr, _hot in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{layer}: {module.__name__}.{attr}"
    for layer, cls, attr, _metric in tracing.METHODS:
        assert callable(getattr(cls, attr, None)), f"{layer}: {cls.__name__}.{attr}"


def _names(tree) -> set:
    """The names a piece of syntax refers to, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _attributes(tree) -> set:
    """The names a piece of syntax refers to as an attribute, ``x.name``."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_public_function_is_called_exported_or_traced():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    tracing = _load_tracing()
    traced = {attr for _layer, _module, attr, _hot in tracing.FUNCTIONS}
    traced_methods = {attr for _layer, _cls, attr, _metric in tracing.METHODS}
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            # a reference from any other top-level statement of the package
            called = any(fn.name in _names(stmt) for stmt in statements if stmt is not fn)
            if not (called or fn.name in exported or fn.name in traced):
                unused.append(f"{module}.{fn.name}")
        # a public method or property: referenced as an attribute from any
        # other statement of the package, its own class included, or traced;
        # a bare name (a parameter or a local of the same name) is no use
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            others = [stmt for stmt in statements if stmt is not cls]
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                referenced = any(fn.name in _attributes(stmt)
                                 for stmt in others + [m for m in cls.body if m is not fn])
                if not (referenced or fn.name in traced_methods):
                    unused.append(f"{module}.{cls.name}.{fn.name}")
    assert unused == []


def test_only_the_model_reads_a_kernel_factor():
    # a kernel is its factor h, and g = coupling * h is formed in one place,
    # model.eval_kernel_factor: no other module reads the factor itself
    readers = [path.name for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
               and any(isinstance(node, ast.Attribute) and node.attr == "factor"
                       for node in ast.walk(ast.parse(path.read_text())))]
    assert readers == []
