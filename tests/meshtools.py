"""Mesh helpers the tests share: a mesh oracle, the full inclusion disk
mirrored from the quarter that ``build_inclusion_mesh`` returns, and an MSH
2.2 writer and element edits for ``read_msh`` fixtures."""
import numpy as np

from homogmem import mesh as msh


def validate_mesh(mesh: msh.TriMesh) -> None:
    """Check orientation, conformity, boundary edges and subdomain labels."""
    if not mesh.areas.min() > 0.0:  # also catches NaN
        raise ValueError("mesh has a non-positively-oriented triangle")
    uniq, _, counts = mesh.edge_incidence
    if counts.max() > 2:
        raise ValueError("non-conforming mesh: edge shared by >2 triangles")
    nv = 1 + max(int(mesh.triangles.max()), int(mesh.boundary_edges.max(initial=0)))
    keys = msh._edge_keys(uniq, nv)
    listed = msh._edge_keys(mesh.boundary_edges, nv)
    unlisted = (counts == 1) & ~np.isin(keys, listed)
    if unlisted.any():
        e = uniq[np.argmax(unlisted)]
        raise ValueError(f"open edge {(int(e[0]), int(e[1]))} not in boundary_edges")
    absent = ~np.isin(listed, keys)
    if absent.any():
        key = divmod(int(listed[np.argmax(absent)]), nv)
        raise ValueError(f"boundary edge {key} not present in the mesh")
    if not np.isin(mesh.subdomain, [msh.OMEGA, msh.Y1, msh.Y2]).all():
        raise ValueError("unknown subdomain label")


# reflection signs (major-axis side x, minor-axis side y) of the four copies
_COPIES = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def mirror_quarter(quarter: msh.TriMesh, geom: msh.CellGeometry) -> msh.TriMesh:
    """The full inclusion mesh: ``quarter`` and its reflections across both
    ellipse axes, with the axis vertices shared and the arc tagged INCLUSION.

    Vertex i of the quarter has the index ``copy * nv + i`` in the copy that
    flips the signs of ``_COPIES[copy]``; a vertex on an axis keeps the sign
    of the first copy in that coordinate, and unused indices are dropped.
    """
    nv = quarter.n_vertices
    frame = geom.local_frame()
    local = (quarter.vertices - np.asarray(geom.center)) @ frame
    on_axis = np.zeros((nv, 2), dtype=bool)
    for col, tag in enumerate((msh.MAJOR_AXIS, msh.MINOR_AXIS)):
        on_axis[quarter.boundary_edges[quarter.boundary_tags == tag], col] = True

    vertices = np.empty((4 * nv, 2))
    index = np.empty((4, nv), dtype=np.int64)
    for c, signs in enumerate(_COPIES):
        kept = np.where(on_axis, 1, np.array(signs))
        index[c] = ((kept[:, 1] < 0) * 2 + (kept[:, 0] < 0)) * nv + np.arange(nv)
        vertices[c * nv:(c + 1) * nv] = (local * signs) @ frame.T + geom.center
    vertices[:nv] = quarter.vertices
    used, renum = np.unique(index, return_inverse=True)
    renum = renum.reshape(4, nv)

    triangles, arcs = [], []
    arc = quarter.boundary_edges[quarter.boundary_tags == msh.INCLUSION]
    for c, (s1, s2) in enumerate(_COPIES):
        tri = renum[c][quarter.triangles]
        triangles.append(tri if s1 * s2 > 0 else tri[:, [0, 2, 1]])
        arcs.append(np.sort(renum[c][arc], axis=1))
    triangles = np.vstack(triangles)
    boundary_edges = np.vstack(arcs)
    return msh.TriMesh(
        vertices=vertices[used],
        triangles=triangles,
        subdomain=np.full(triangles.shape[0], msh.Y2, dtype=np.int64),
        boundary_edges=boundary_edges,
        boundary_tags=np.full(boundary_edges.shape[0], msh.INCLUSION, dtype=np.int64),
    )


def write_msh(mesh: msh.TriMesh, path) -> None:
    """Write the mesh as ASCII MSH 2.2 with physical = subdomain/tag codes."""
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_vertices}\n")
        for k, (x, y) in enumerate(mesh.vertices, start=1):
            fh.write(f"{k} {float(x)!r} {float(y)!r} 0\n")
        fh.write("$EndNodes\n")
        n_elem = mesh.n_triangles + mesh.boundary_edges.shape[0]
        fh.write(f"$Elements\n{n_elem}\n")
        eid = 1
        for (va, vb), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            fh.write(f"{eid} 1 2 {int(tag)} {int(tag)} {va + 1} {vb + 1}\n")
            eid += 1
        for tri, lab in zip(mesh.triangles, mesh.subdomain):
            fh.write(
                f"{eid} 2 2 {int(lab)} {int(lab)} "
                f"{tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n"
            )
            eid += 1
        fh.write("$EndElements\n")


# edits of the line elements that leave the triangles, and so the boundary
# that read_msh derives from them, unchanged
LINE_EDITS = ("no-lines", "swapped-line-tags", "missing-frame-line")


def retag_elements(lines, groups: dict, etype: int | None = None) -> list[str]:
    """MSH 2.2 ``lines`` with the physical and elementary tags of every
    element (of type ``etype`` only, if given) renamed by ``groups``."""
    lines = list(lines)
    for i in range(lines.index("$Elements") + 2, lines.index("$EndElements")):
        parts = lines[i].split()
        if etype is None or int(parts[1]) == etype:
            parts[3:5] = [str(groups.get(int(t), t)) for t in parts[3:5]]
            lines[i] = " ".join(parts)
    return lines


def edit_line_elements(lines, kind: str) -> list[str]:
    """MSH 2.2 ``lines`` as ``write_msh`` writes them with one of
    ``LINE_EDITS``: every line element dropped, the OUTER and INCLUSION tags
    of the line elements swapped, or the first OUTER line element dropped."""
    if kind == "swapped-line-tags":
        return retag_elements(
            lines, {msh.OUTER: msh.INCLUSION, msh.INCLUSION: msh.OUTER}, etype=1)
    lines = list(lines)
    count = lines.index("$Elements") + 1
    rows = [i for i in range(count + 1, lines.index("$EndElements"))
            if lines[i].split()[1] == "1"]
    if kind == "missing-frame-line":
        rows = [next(i for i in rows if int(lines[i].split()[3]) == msh.OUTER)]
    lines[count] = str(int(lines[count]) - len(rows))
    drop = set(rows)
    return [ln for i, ln in enumerate(lines) if i not in drop]
