"""P1 assembly against hand-computed elements and algebraic identities."""

import numpy as np
import pytest
import scipy.sparse as sp

from homogmem import fem, mesh as msh


def half_turn_image(mesh):
    """Vertex index of (1, 1) - v for every vertex v, matched on rounded keys."""
    keys = np.round(mesh.vertices * 1e9).astype(np.int64)
    index = {tuple(k): i for i, k in enumerate(keys)}
    return np.array([index[tuple(k)] for k in 10**9 - keys])


def reference_triangle():
    """Unit right triangle (0,0)-(1,0)-(0,1) as a one-element mesh."""
    return msh.TriMesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        subdomain=np.array([msh.OMEGA]),
        boundary_edges=np.array([[0, 1], [1, 2], [0, 2]]),
        boundary_tags=np.full(3, msh.OUTER),
    )


class TestElementMatrices:
    def test_stiffness_on_reference_triangle(self):
        k = fem.assemble_stiffness(reference_triangle(), 1.0).toarray()
        ref = np.array([
            [1.0, -0.5, -0.5],
            [-0.5, 0.5, 0.0],
            [-0.5, 0.0, 0.5],
        ])
        np.testing.assert_allclose(k, ref, atol=1e-15)

    def test_mass_on_reference_triangle(self):
        m = fem.assemble_mass(reference_triangle()).toarray()
        ref = (0.5 / 12.0) * np.array([
            [2.0, 1.0, 1.0],
            [1.0, 2.0, 1.0],
            [1.0, 1.0, 2.0],
        ])
        np.testing.assert_allclose(m, ref, atol=1e-15)

    def test_anisotropic_stiffness_quadratic_form(self):
        # u = x1 + 2 x2 on the reference triangle: integral of grad.D.grad
        d = np.array([[2.0, 0.5], [0.5, 1.0]])
        mesh = reference_triangle()
        k = fem.assemble_stiffness(mesh, d).toarray()
        u = mesh.vertices @ np.array([1.0, 2.0])
        g = np.array([1.0, 2.0])
        assert u @ k @ u == pytest.approx(0.5 * g @ d @ g, rel=1e-14)


class TestAssemblyIdentities:
    def test_linear_patch_is_stiffness_nullspace_interior(self):
        mesh = msh.build_unit_square_mesh(5)
        k = fem.assemble_stiffness(mesh, 3.0)
        u = 2.0 + 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        residual = k @ u
        interior = ~np.isin(np.arange(mesh.n_vertices),
                            np.unique(mesh.boundary_edges))
        assert np.abs(residual[interior]).max() < 1e-13
        # total energy of the linear field is d * |grad u|^2 * area
        assert u @ residual == pytest.approx(3.0 * 10.0, rel=1e-13)

    def test_mass_row_sums_are_nodal_weights(self, coarse_cell_mesh):
        m = fem.assemble_mass(coarse_cell_mesh)
        w = fem.integral_weights(coarse_cell_mesh)
        np.testing.assert_allclose(np.asarray(m.sum(axis=1)).ravel(), w,
                                   atol=1e-15)
        assert w.sum() == pytest.approx(1.0, rel=1e-13)

    def test_corrector_rhs_is_minus_stiffness_times_coordinate(
            self, coarse_cell_mesh):
        # b_j(e_i) = -sum_T area d (grad phi_j)_i = -(K x_i)_j exactly
        y1, _ = msh.submesh(coarse_cell_mesh, msh.Y1)
        k = fem.assemble_stiffness(y1, 1.3)
        for direction in (1, 2):
            b = fem.assemble_corrector_rhs(y1, direction, coeff=1.3)
            ref = -(k @ y1.vertices[:, direction - 1])
            np.testing.assert_allclose(b, ref, atol=1e-12)

    def test_nodal_sum_adds_in_the_order_of_np_add_at(self, coarse_cell_mesh):
        contrib = np.random.default_rng(5).standard_normal(
            (coarse_cell_mesh.n_triangles, 3)) * 10.0 ** np.arange(-8, 10, 6)
        ref = np.zeros(coarse_cell_mesh.n_vertices)
        np.add.at(ref, coarse_cell_mesh.triangles.ravel(), contrib.ravel())
        np.testing.assert_array_equal(fem.nodal_sum(coarse_cell_mesh, contrib), ref)

    def test_invalid_inputs_rejected(self, coarse_cell_mesh):
        with pytest.raises(ValueError):
            fem.assemble_stiffness(coarse_cell_mesh, -1.0)
        with pytest.raises(ValueError):
            fem.assemble_stiffness(coarse_cell_mesh, np.ones((2, 3)))
        with pytest.raises(ValueError):
            fem.assemble_stiffness(coarse_cell_mesh,
                                   np.array([[1.0, 0.5], [-0.5, 1.0]]))
        with pytest.raises(ValueError):
            fem.assemble_stiffness(coarse_cell_mesh,
                                   np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="positive and finite"):
            fem.assemble_stiffness(coarse_cell_mesh, float("nan"))
        with pytest.raises(ValueError, match="must be finite"):
            fem.assemble_stiffness(coarse_cell_mesh,
                                   np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            fem.assemble_corrector_rhs(coarse_cell_mesh, 3)
        with pytest.raises(ValueError):
            fem.assemble_corrector_rhs(coarse_cell_mesh, 1, coeff=0.0)


def coo_csr_pattern(mesh):
    """The P1 pattern as element matrices summed COO -> CSR give it."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, 3).ravel()
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    a.sort_indices()
    return a


def reversed_numbering(mesh):
    """The mesh with vertex v renumbered nv - 1 - v, and one vertex in no
    triangle appended: corner pairs that ran up the numbering run down."""
    nv = mesh.n_vertices
    return msh.TriMesh(
        vertices=np.vstack([mesh.vertices[::-1], [[2.0, 2.0]]]),
        triangles=nv - 1 - mesh.triangles,
        subdomain=mesh.subdomain,
        boundary_edges=nv - 1 - mesh.boundary_edges,
        boundary_tags=mesh.boundary_tags,
    )


def dense_assembly(mesh, element_of):
    """Per triangle, its element matrix from its corners, added into a dense
    matrix one triangle at a time."""
    a = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for tri in mesh.triangles:
        a[np.ix_(tri, tri)] += element_of(mesh.vertices[tri])
    return a


def p1_elements(corners, d):
    """Stiffness with tensor ``d`` and mass of one P1 triangle, from the
    inverse of its barycentric map."""
    lift = np.column_stack([np.ones(3), corners])
    grads = np.linalg.inv(lift)[1:].T
    area = 0.5 * abs(np.linalg.det(lift))
    return area * grads @ d @ grads.T, area / 12.0 * (np.ones((3, 3)) + np.eye(3))


class TestP1Pattern:
    @pytest.fixture(params=["cell-y1", "quarter", "square", "reversed"])
    def mesh(self, request, ref_geom, coarse_cell_mesh):
        if request.param == "cell-y1":
            return msh.submesh(coarse_cell_mesh, msh.Y1)[0]
        if request.param == "quarter":
            return msh.build_inclusion_mesh(ref_geom, 1.0 / 24, n_arc=64)
        square = msh.build_unit_square_mesh(7)
        return square if request.param == "square" else reversed_numbering(square)

    def test_pattern_is_the_coo_to_csr_pattern(self, mesh):
        indptr, indices, slots = mesh.p1_pattern
        ref = coo_csr_pattern(mesh)
        np.testing.assert_array_equal(indptr, ref.indptr)
        np.testing.assert_array_equal(indices, ref.indices)
        # entry (t, i, j) lands at row triangles[t, i], column triangles[t, j]
        tri = mesh.triangles
        rows = np.searchsorted(indptr, slots, side="right") - 1
        np.testing.assert_array_equal(rows, np.repeat(tri, 3, axis=1).ravel())
        np.testing.assert_array_equal(indices[slots], np.tile(tri, 3).ravel())

    def test_assembly_matches_a_dense_triangle_loop(self, mesh):
        d = np.array([[1.7, -0.6], [-0.6, 0.9]])
        for k, got in enumerate([fem.assemble_stiffness(mesh, d),
                                 fem.assemble_mass(mesh)]):
            ref = dense_assembly(mesh, lambda p: p1_elements(p, d)[k])
            assert np.abs(got.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
            np.testing.assert_array_equal(got.indices, mesh.p1_pattern[1])


class TestConstraints:
    def test_dirichlet_poisson_matches_dense_reference(self):
        mesh = msh.build_unit_square_mesh(8)
        k = fem.assemble_stiffness(mesh, 1.0)
        b = fem.integral_weights(mesh)  # load f = 1
        k_red, dofmap = fem.apply_constraints(mesh, k, dirichlet_tags=(msh.OUTER,))
        x = np.linalg.solve(k_red.toarray(), dofmap.reduce(b))
        full = dofmap.expand(x)
        # dense reference: delete rows/cols by hand
        boundary = np.unique(mesh.boundary_edges)
        free = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
        ref = np.zeros(mesh.n_vertices)
        ref[free] = np.linalg.solve(k.toarray()[np.ix_(free, free)], b[free])
        np.testing.assert_allclose(full, ref, atol=1e-12)
        assert (full[boundary] == 0.0).all()

    def test_periodic_folding_reduces_size(self, coarse_cell_mesh):
        k = fem.assemble_stiffness(coarse_cell_mesh, 1.0)
        pairs = msh.periodic_pairs(coarse_cell_mesh)
        k_red, dofmap = fem.apply_constraints(coarse_cell_mesh, k, periodic_pairs=pairs)
        n_slaves = len(pairs)
        assert dofmap.n_dofs == coarse_cell_mesh.n_vertices - n_slaves
        assert k_red.shape == (dofmap.n_dofs, dofmap.n_dofs)
        # folded matrix keeps the constant-vector nullspace
        ones = np.ones(dofmap.n_dofs)
        assert np.abs(k_red @ ones).max() < 1e-12

    @pytest.mark.parametrize("odd", [False, True], ids=["periodic", "half-turn"])
    def test_expand_restrict_roundtrip(self, coarse_cell_mesh, odd):
        mesh = coarse_cell_mesh
        image = half_turn_image(mesh) if odd else None
        pairs = msh.periodic_pairs(mesh)
        k = fem.assemble_stiffness(mesh, 1.0)
        _, dofmap = fem.apply_constraints(mesh, k, periodic_pairs=pairs, odd_image=image)
        x = np.sin(np.arange(dofmap.n_dofs))
        full = dofmap.expand(x)
        # restrict through each dof's first vertex entry, of sign +-1
        by_dof = dofmap.proj.tocsc()
        first = by_dof.indptr[:-1]
        back = by_dof.data[first] * full[by_dof.indices[first]]
        assert np.array_equal(back, x)
        for s, m in pairs:
            assert full[s] == full[m]
        # reduce is the transpose of expand: f . expand(x) == reduce(f) . x
        f = np.cos(np.arange(mesh.n_vertices))
        assert abs(f @ full - dofmap.reduce(f) @ x) <= 1e-14 * (np.abs(f) @ np.abs(full))
        if odd:
            assert np.array_equal(full[image], -full)
            # the vertices the half-turn fixes modulo periodicity hold 0
            fixed = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0], [0.5, 1], [0, 0.5],
                     [1, 0.5], [0.5, 0.5]]
            at = [np.flatnonzero((mesh.vertices == p).all(axis=1)) for p in fixed]
            assert all(i.size == 1 for i in at)
            assert (full[np.concatenate(at)] == 0.0).all()
            # four fixed periodic classes; the others pair up
            assert 2 * dofmap.n_dofs == mesh.n_vertices - len(pairs) - 4

    def test_odd_image_must_fold_classes_onto_classes(self):
        mesh = msh.build_unit_square_mesh(3)
        pairs = msh.periodic_pairs(mesh)
        k = fem.assemble_stiffness(mesh, 1.0)
        with pytest.raises(ValueError, match="involution"):
            fem.apply_constraints(mesh, k, periodic_pairs=pairs,
                                  odd_image=np.roll(np.arange(16), 1))
        swap = np.arange(16)
        swap[[0, 5]] = [5, 0]  # a corner (with three slaves) and an interior vertex
        with pytest.raises(ValueError, match="periodic classes"):
            fem.apply_constraints(mesh, k, periodic_pairs=pairs, odd_image=swap)
        with pytest.raises(ValueError, match="Dirichlet"):
            fem.apply_constraints(mesh, k, dirichlet_tags=(msh.OUTER,), odd_image=swap)

    def test_unknown_tag_rejected(self, coarse_cell_mesh):
        k = fem.assemble_stiffness(coarse_cell_mesh, 1.0)
        with pytest.raises(ValueError):
            fem.apply_constraints(coarse_cell_mesh, k, dirichlet_tags=("lid",))

    # tags are the mesh's integer codes: a name, or a code no edge carries,
    # tags nothing
    @pytest.mark.parametrize("tags", [("outer",), ("outer", "inclusion"), (99,)])
    def test_tag_names_and_absent_codes_tag_nothing(self, tags):
        mesh = msh.build_unit_square_mesh(3)
        k = fem.assemble_stiffness(mesh, 1.0)
        with pytest.raises(ValueError, match="no boundary edges tagged"):
            fem.apply_constraints(mesh, k, dirichlet_tags=tags)

    def test_chained_pairs_rejected(self):
        mesh = msh.build_unit_square_mesh(3)
        # the master of 3 -> 0 is itself the slave of 0 -> 15
        with pytest.raises(ValueError, match="slaves themselves"):
            fem.apply_constraints(mesh, fem.assemble_stiffness(mesh, 1.0),
                                  periodic_pairs=np.array([[0, 15], [3, 0]]))

    def test_pair_on_dirichlet_vertex_rejected(self):
        mesh = msh.build_unit_square_mesh(3)
        with pytest.raises(ValueError, match="Dirichlet"):
            fem.apply_constraints(mesh, fem.assemble_stiffness(mesh, 1.0),
                                  dirichlet_tags=(msh.OUTER,),
                                  periodic_pairs=msh.periodic_pairs(mesh))

    def test_shape_mismatch_rejected(self):
        mesh = msh.build_unit_square_mesh(3)
        with pytest.raises(ValueError):
            fem.apply_constraints(mesh, sp.eye(5, format="csr"))
        with pytest.raises(ValueError):
            # one wrong-sized matrix among several is caught too
            fem.apply_constraints(mesh, fem.assemble_mass(mesh), sp.eye(5, format="csr"))

