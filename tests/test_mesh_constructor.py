"""Every mesh of the package is finished in one place: a ``TriMesh(...)`` or
``TriMesh._with_facts(...)`` call appears only in ``mesh._finish``, which
checks orientation and conformity and derives the boundary, and in
``mesh.submesh``, which restricts a mesh that was finished there."""
import ast
from pathlib import Path

import homogmem

PACKAGE = Path(homogmem.__file__).parent
ALLOWED = {("mesh.py", "_finish"), ("mesh.py", "submesh")}


def constructions(tree: ast.Module):
    """(name of the enclosing module-level function or None, line) of each
    ``TriMesh(...)`` and ``TriMesh._with_facts(...)`` call in ``tree``."""
    def is_construction(call: ast.Call) -> bool:
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "_with_facts":
            f = f.value
        return (isinstance(f, ast.Name) and f.id == "TriMesh"
                or isinstance(f, ast.Attribute) and f.attr == "TriMesh")

    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and is_construction(node):
                yield owner, node.lineno


def test_meshes_are_constructed_only_by_finish_and_submesh():
    found = [(path.name, owner, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, line in constructions(ast.parse(path.read_text(), str(path)))]
    stray = [f"{name}:{line} in {owner}" for name, owner, line in found
             if (name, owner) not in ALLOWED]
    assert stray == [], f"TriMesh built outside mesh._finish and mesh.submesh: {stray}"
    assert {(name, owner) for name, owner, _ in found} == ALLOWED
