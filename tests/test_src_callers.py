"""Every public function, class and method defined in src/gcirc has a
caller in src/gcirc: code that only tests reach is deleted, not kept.
The allow-list holds only the names perfbench's tracer wraps by name."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gcirc"

ALLOWED = {
    "matrix.Matrix.scale": "perfbench's tracer wraps it by name",
    "matrix.Matrix.determinant": "perfbench's tracer wraps it by name and test_perfbench asserts it",
    "matrix.Matrix.submatrix": "perfbench's tracer wraps it by name",
}


def test_every_public_name_has_a_src_caller():
    defined, names = {}, Counter()
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        for node in ast.parse(path.read_bytes()).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members += [(member, f"{node.name}.") for member in node.body]
            for member, owner in members:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)) and not member.name.startswith("_"):
                    defined[f"{path.stem}.{owner}{member.name}"] = member.name
        with tokenize.open(path) as fh:  # NAME tokens: docstrings and comments are no callers
            names.update(t.string for t in tokenize.generate_tokens(fh.readline) if t.type == tokenize.NAME)
    definitions = Counter(defined.values())
    uncalled = {q for q, name in defined.items() if names[name] <= definitions[name]}
    unexpected, stale = sorted(uncalled - ALLOWED.keys()), sorted(ALLOWED.keys() - uncalled)
    assert not unexpected, f"public names with no caller in src/: {unexpected}"
    assert not stale, f"allowed names that are gone or now have a caller: {stale}"
