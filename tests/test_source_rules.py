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


def test_every_file_parses_as_python_3_10():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert paths
    for path in paths:
        ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
