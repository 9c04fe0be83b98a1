"""Static checks over the source tree."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/isturm", "tests", "demos") for p in (ROOT / d).glob("*.py"))


def _unused_imports(tree):
    """Names a module imports and never reads; entries of __all__ count as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_no_unused_imports():
    # the scan itself: a plain, a dotted and an aliased import, __all__ and a read
    probe = "import os\nimport a.b\nfrom c import d as e, f, g\n__all__ = ['f']\ng()\n"
    assert _unused_imports(ast.parse(probe)) == ["a", "e", "os"]
    found = {str(p.relative_to(ROOT)): _unused_imports(ast.parse(p.read_text())) for p in FILES}
    assert {k: v for k, v in found.items() if v} == {}
