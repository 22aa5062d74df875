"""Each module of the package imports only modules of the layers below it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gridbench"

# Lowest layer first; modules of one layer import none of each other.
LAYERS = (("canonical", "seeding", "errors"), ("data",), ("preprocess",), ("models",),
          ("explain",), ("stats",), ("metrics",), ("store",), ("report",), ("study",),
          ("cli",))
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}
# The package and its entry point sit above every layer; ``store`` reads the
# package version when it captures the environment.
ENTRY_POINTS = {"__init__", "__main__"}
ALLOWED = {("store", "__version__")}


def _relative_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from ([node.module] if node.module else
                        [alias.name for alias in node.names])


def test_each_module_imports_only_layers_below_it():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) - ENTRY_POINTS == set(RANK)
    upward = [f"{name} -> {imported}"
              for name, path in modules.items() if name not in ENTRY_POINTS
              for imported in _relative_imports(path)
              if (name, imported) not in ALLOWED and RANK[imported] >= RANK[name]]
    assert upward == []
