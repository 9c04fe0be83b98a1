"""Static checks over the source tree."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/isturm", "tests", "demos") for p in (ROOT / d).glob("*.py"))
READERS = FILES + sorted((ROOT / "perfbench").glob("*.py"))


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


def _private_defs(tree):
    """Module-level private functions, classes and constants: one leading
    underscore, not a dunder."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def _references(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def test_no_dead_private_names():
    # the scan itself: a called helper, a constant read through an attribute
    # elsewhere, and an unread function, class, constant and annotated constant
    probe = ("def _used(): pass\ndef _dead(): pass\nclass _Dead: pass\n_TOL = 1\n"
             "_GONE = 2\n_ann: int = 3\n__all__ = []\n_used()\n")
    other = "import probe\nprobe._TOL\n"
    refs = _references(ast.parse(probe)) | _references(ast.parse(other))
    assert sorted(_private_defs(ast.parse(probe)) - refs) == ["_Dead", "_GONE", "_ann", "_dead"]
    refs = set().union(*(_references(ast.parse(p.read_text())) for p in READERS))
    dead = {str(p.relative_to(ROOT)): sorted(_private_defs(ast.parse(p.read_text())) - refs)
            for p in sorted((ROOT / "src/isturm").glob("*.py"))}
    assert {k: v for k, v in dead.items() if v} == {}
