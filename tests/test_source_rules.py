"""Rules on the source tree itself: each gcirc module owns its private
names, the order bound lives in one module, and every file parses as the
oldest Python the project supports."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcirc"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gcirc")):
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across gcirc modules: {found}"


def test_only_matrix_reads_max_dim():
    # every other module bounds an order through matrix.check_order
    found = []
    for path in sorted(SRC.glob("*.py")):
        tokens = tokenize.tokenize(io.BytesIO(path.read_bytes()).readline)
        if any(tok.type == tokenize.NAME and tok.string == "MAX_DIM" for tok in tokens):
            found.append(path.name)
    assert found == ["matrix.py"]
    # and inside matrix.py only check_order reads it, so a Matrix is bounded through check_order too
    readers = set()

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.Name) and node.id == "MAX_DIM" and isinstance(node.ctx, ast.Load):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((SRC / "matrix.py").read_bytes()), "<module>")
    assert readers == {"check_order"}


def test_every_file_parses_as_python_3_10():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert paths
    for path in paths:
        ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
