"""The library holds no definition that only its tests use.

Every top-level function or class of ``src/ccfrelay`` and every
non-dunder method of a top-level class must be referenced somewhere in
``src/`` (as a name or an attribute), be exported in ``ccfrelay.__all__``,
or be named by a string in ``perfbench/spans.py``, which wraps library
bindings by name.  A helper that only a test calls belongs in the test.
Likewise a name imported under ``# noqa: F401`` (unused by its module)
must be one that ``perfbench/spans.py`` wraps.
"""

import ast
from pathlib import Path

import ccfrelay

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccfrelay"


def _definitions(tree):
    """(qualified name, bare name) of the top-level functions and classes
    and of the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _references(trees):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _spans_strings():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_unused_imports_are_only_the_benchmark_wraps():
    # a name imported under ``# noqa: F401`` is one the module does not use;
    # it is kept only so that perfbench/spans.py can wrap that binding
    spans = _spans_strings()
    unwrapped = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1] and (alias.asname or alias.name) not in spans:
                        unwrapped.append(f"{path.name}:{alias.name}")
    assert not unwrapped, f"imported under noqa: F401 but not wrapped by perfbench/spans.py: {unwrapped}"


def test_every_library_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    allowed = _references(trees.values()) | set(ccfrelay.__all__) | _spans_strings()
    unused = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in allowed
    ]
    assert not unused, f"defined in src/ but used only outside it: {unused}"
