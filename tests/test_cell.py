"""Cell correctors and effective tensor: structural oracles and invariants."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homogmem import cell, fem, mesh as msh, solvers
from homogmem.errors import ConvergenceError, PeriodicityError


def solve_tensor(geom, h, n_arc=128):
    mesh = msh.build_cell_mesh(geom, h, n_arc=n_arc)
    correctors = cell.solve_correctors(mesh, geom)
    return cell.effective_tensor(correctors, geom), correctors


def bordered_oracle(y1, geom, load, pairs=None):
    """Nodal theta and multiplier of the Lagrange-bordered system
    [[A, c], [c', 0]] [x; mu] = [b; 0] for the nodal load ``load``, by a
    sparse LU with partial pivoting; ``pairs`` default to Y1's own."""
    if pairs is None:
        pairs = msh.periodic_pairs(y1)
    a, dofmap = fem.apply_constraints(y1, fem.assemble_stiffness(y1, geom.d1),
                                      periodic_pairs=pairs)
    c = dofmap.reduce(fem.integral_weights(y1))
    n = dofmap.n_dofs
    bordered = sp.bmat([[a, c[:, None]], [c[None, :], None]], format="csc")
    sol = spla.splu(bordered).solve(np.append(dofmap.reduce(load), 0.0))
    return dofmap.expand(sol[:n]), sol[n]


def assert_matches_oracle(correctors, geom):
    """theta to 1e-12 of its max, and D to 1e-12 relative, against the
    bordered oracle."""
    y1 = correctors.mesh
    reference = []
    for comp in correctors.components:
        load = fem.assemble_corrector_rhs(y1, comp.direction, coeff=geom.d1)
        theta, _ = bordered_oracle(y1, geom, load)
        assert np.abs(comp.theta - theta).max() <= 1e-12 * np.abs(theta).max()
        reference.append(dataclasses.replace(comp, theta=theta))
    d = cell.effective_tensor(correctors, geom).tensor
    d_ref = cell.effective_tensor(
        dataclasses.replace(correctors, components=tuple(reference)), geom).tensor
    assert np.abs(d - d_ref).max() <= 1e-12 * np.abs(d_ref).max()


@pytest.fixture
def factor_sizes(monkeypatch):
    """Sizes of the matrices solvers.factor_transpose is given, in call
    order."""
    sizes = []
    factor_transpose = solvers.factor_transpose

    def recording(a):
        sizes.append(a.shape[0])
        return factor_transpose(a)

    monkeypatch.setattr(solvers, "factor_transpose", recording)
    return sizes


def took_half_turn_fold(correctors, sizes):
    """Whether the last factor was of the odd fold, at most half the
    periodic dofs, rather than of the pinned periodic system."""
    (periodic,) = fem.apply_constraints(
        correctors.mesh, periodic_pairs=msh.periodic_pairs(correctors.mesh))
    return 2 * sizes[-1] <= periodic.n_dofs


def flip_one_diagonal(mesh):
    """``mesh`` with one interior Y1 edge flipped whose two triangles form a
    convex quad that is not cocircular, so the stiffness changes."""
    p = mesh.vertices
    sides = {}
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            edge = tuple(sorted((tri[(k + 1) % 3], tri[(k + 2) % 3])))
            sides.setdefault(edge, []).append((t, tri[k]))

    def cross(o, a, b):  # twice the signed area of (o, a, b)
        u, v = p[a] - p[o], p[b] - p[o]
        return u[0] * v[1] - u[1] * v[0]

    def angle(c, a, b):
        return math.atan2(abs(cross(c, a, b)), (p[a] - p[c]) @ (p[b] - p[c]))

    for (a, b), pair in sides.items():
        if len(pair) != 2 or (mesh.subdomain[[pair[0][0], pair[1][0]]] != msh.Y1).any():
            continue
        (t1, c1), (t2, c2) = pair
        if angle(c1, a, b) + angle(c2, a, b) > math.pi - 0.3:
            continue  # keep clear of cocircular quads, whose flip changes nothing
        if cross(c1, c2, a) * cross(c1, c2, b) >= 0.0:
            continue  # a and b on one side of c1-c2: the quad is not convex
        tris = mesh.triangles.copy()
        tris[t1] = [c1, c2, a] if cross(c1, c2, a) > 0.0 else [c2, c1, a]
        tris[t2] = [c1, c2, b] if cross(c1, c2, b) > 0.0 else [c2, c1, b]
        return dataclasses.replace(mesh, triangles=tris)
    raise AssertionError("no flippable edge")


class TestCorrectors:
    def test_no_inclusion_gives_zero_corrector(self):
        geom = msh.CellGeometry(a=0.3, b=0.15, d1=1.7)
        mesh = msh.build_unit_square_mesh(12, label=msh.Y1)
        correctors = cell.solve_correctors(mesh, geom)
        for comp in correctors.components:
            assert np.abs(comp.theta).max() <= 1e-12
            assert abs(comp.multiplier) <= 1e-12
        result = cell.effective_tensor(correctors, geom)
        np.testing.assert_allclose(result.tensor, 1.7 * np.eye(2), atol=1e-10)

    def test_zero_mean(self, coarse_correctors):
        weights = fem.integral_weights(coarse_correctors.mesh)
        measure = weights.sum()
        for comp in coarse_correctors.components:
            assert abs(weights @ comp.theta) <= 1e-10 * measure

    def test_pinned_solve_matches_dense_bordered_solve(self, coarse_correctors,
                                                       ref_geom):
        y1 = coarse_correctors.mesh
        for comp in coarse_correctors.components:
            load = fem.assemble_corrector_rhs(y1, comp.direction, coeff=ref_geom.d1)
            theta, mu = bordered_oracle(y1, ref_geom, load)
            scale = np.abs(theta).max()
            assert np.abs(comp.theta - theta).max() <= 1e-12 * scale
            assert abs(comp.multiplier - mu) <= 1e-12
            assert comp.residual <= 1e-10

    def test_incompatible_load_gets_the_closed_form_multiplier(
            self, coarse_correctors, ref_geom, monkeypatch):
        # b + 1 is not in the range of A; the multiplier takes up its mean
        y1 = coarse_correctors.mesh
        assemble = fem.assemble_corrector_rhs
        monkeypatch.setattr(fem, "assemble_corrector_rhs",
                            lambda *args, **kw: assemble(*args, **kw) + 1.0)
        shifted = cell.solve_correctors(y1, ref_geom)
        _, dofmap = fem.apply_constraints(y1, fem.assemble_stiffness(y1, 1.0),
                                          periodic_pairs=msh.periodic_pairs(y1))
        c = dofmap.reduce(fem.integral_weights(y1))
        for comp in shifted.components:
            load = fem.assemble_corrector_rhs(y1, comp.direction, coeff=ref_geom.d1)
            theta, mu = bordered_oracle(y1, ref_geom, load)
            assert comp.multiplier == pytest.approx(dofmap.reduce(load).sum() / c.sum(),
                                                    rel=1e-12)
            assert abs(comp.multiplier - mu) <= 1e-12 * abs(mu)
            assert np.abs(comp.theta - theta).max() <= 1e-12 * np.abs(theta).max()
            assert comp.residual <= 1e-10

    @pytest.mark.parametrize("n_arc", [128, 127], ids=["half-turn", "pin"])
    def test_pinning_another_dof_keeps_theta(self, coarse_cell_mesh, ref_geom, n_arc,
                                             factor_sizes):
        # reversing the vertex order makes another vertex dof 0 (and, on the
        # half-turn fold, another vertex of each swapped pair keeps the dof)
        mesh = (coarse_cell_mesh if n_arc == 128 else
                msh.build_cell_mesh(ref_geom, 1.0 / 48, n_arc=n_arc))
        base = cell.solve_correctors(mesh, ref_geom)
        assert took_half_turn_fold(base, factor_sizes) == (n_arc % 2 == 0)
        y1 = base.mesh
        perm = np.arange(y1.n_vertices)[::-1]
        inv = np.argsort(perm)
        reversed_y1 = dataclasses.replace(
            y1, vertices=y1.vertices[perm], triangles=inv[y1.triangles],
            boundary_edges=inv[y1.boundary_edges],
        )

        def pinned_vertex(mesh):  # dof 0: the first vertex that is no slave
            slaves = msh.periodic_pairs(mesh)[:, 0]
            return np.setdiff1d(np.arange(mesh.n_vertices), slaves)[0]

        assert perm[pinned_vertex(reversed_y1)] != pinned_vertex(y1)
        again = cell.solve_correctors(reversed_y1, ref_geom)
        for old, new in zip(base.components, again.components):
            assert np.abs(new.theta - old.theta[perm]).max() <= (
                1e-12 * np.abs(old.theta).max())

    @pytest.mark.parametrize("n", [24, 48, 96])
    @pytest.mark.parametrize("angle", [0.0, 30.0, -41.0])
    def test_half_turn_fold_matches_bordered_oracle(self, angle, n, factor_sizes):
        # every builtin mesh of a centred inclusion with even n_arc maps to
        # itself under the half-turn, up to cocircular diagonals, so it must
        # take the fold and its saving
        geom = msh.CellGeometry(a=0.4, b=0.2, angle_deg=angle)
        mesh = msh.build_cell_mesh(geom, 1.0 / n, n_arc=8 * n // 3)
        correctors = cell.solve_correctors(mesh, geom)
        assert factor_sizes and took_half_turn_fold(correctors, factor_sizes)
        assert_matches_oracle(correctors, geom)

    @pytest.mark.parametrize("case", ["odd-n_arc", "off-centre", "flipped-diagonal"])
    def test_asymmetric_meshes_take_the_pin(self, ref_geom, case, factor_sizes):
        geom, n_arc = ref_geom, 128
        if case == "odd-n_arc":
            n_arc = 127
        elif case == "off-centre":
            geom = dataclasses.replace(ref_geom, center=(0.45, 0.5))
        mesh = msh.build_cell_mesh(geom, 1.0 / 48, n_arc=n_arc)
        if case == "flipped-diagonal":
            mesh = flip_one_diagonal(mesh)
        correctors = cell.solve_correctors(mesh, geom)
        assert not took_half_turn_fold(correctors, factor_sizes)
        assert_matches_oracle(correctors, geom)

    @pytest.mark.parametrize("n_arc", [64, 63], ids=["half-turn", "pin"])
    def test_unmet_full_residual_raises(self, ref_geom, n_arc, monkeypatch):
        # the only check is of the unfolded system: it must catch a solution
        # of the folded or pinned one that does not solve it
        mesh = msh.build_cell_mesh(ref_geom, 1.0 / 24, n_arc=n_arc)
        factor_transpose = solvers.factor_transpose

        def perturbed(a):
            solve = factor_transpose(a)
            return lambda b: solve(b) + 1e-6 * np.cos(np.arange(b.size))

        monkeypatch.setattr(solvers, "factor_transpose", perturbed)
        with pytest.raises(ConvergenceError, match="relative residual"):
            cell.solve_correctors(mesh, ref_geom)

    def test_periodic_values_identical(self, coarse_correctors):
        pairs = msh.periodic_pairs(coarse_correctors.mesh)
        assert pairs.size
        for comp in coarse_correctors.components:
            for s, m in pairs:
                assert comp.theta[s] == comp.theta[m]

    def test_central_antisymmetry(self, coarse_correctors):
        # the centered inclusion makes theta(1-x) = -theta(x); the vertex set
        # is centrally symmetric by construction, so compare mirrored pairs
        y1 = coarse_correctors.mesh
        key = {tuple(k): i
               for i, k in enumerate(np.round(y1.vertices * 1e9).astype(np.int64))}
        mirrored = np.round((1.0 - y1.vertices) * 1e9).astype(np.int64)
        partner = np.array([key[tuple(k)] for k in mirrored])
        for comp in coarse_correctors.components:
            defect = np.abs(comp.theta + comp.theta[partner]).max()
            assert defect <= 1e-3 * np.abs(comp.theta).max()

    def test_resolve_is_deterministic(self, coarse_cell_mesh, ref_geom):
        a = cell.solve_correctors(coarse_cell_mesh, ref_geom)
        b = cell.solve_correctors(coarse_cell_mesh, ref_geom)
        assert np.abs(a.theta - b.theta).max() <= 1e-9
        assert max(c.residual for c in a.components) <= 1e-10

    def test_both_directions_share_one_factorisation(self, coarse_cell_mesh,
                                                     ref_geom, monkeypatch):
        calls = []
        factor_transpose = solvers.factor_transpose

        def counting(a):
            calls.append(a.shape)
            return factor_transpose(a)

        monkeypatch.setattr(solvers, "factor_transpose", counting)
        both = cell.solve_correctors(coarse_cell_mesh, ref_geom)
        assert len(calls) == 1
        assert [c.direction for c in both.components] == [1, 2]
        assert max(c.residual for c in both.components) <= 1e-10

    def test_residual_is_the_one_check_of_the_unfolded_system(
            self, coarse_cell_mesh, ref_geom, monkeypatch):
        # each direction is checked once, and its component keeps the
        # relative residual of A x + c mu = b that the check returned
        returned = []
        check_residual = solvers.check_residual

        def recording(b, ax, tol):
            returned.append(check_residual(b, ax, tol))
            return returned[-1]

        monkeypatch.setattr(solvers, "check_residual", recording)
        both = cell.solve_correctors(coarse_cell_mesh, ref_geom)
        assert [c.residual for c in both.components] == returned
        y1 = both.mesh
        stiffness = fem.assemble_stiffness(y1, ref_geom.d1)
        (periodic,) = fem.apply_constraints(y1, periodic_pairs=msh.periodic_pairs(y1))
        c = periodic.reduce(fem.integral_weights(y1))
        for comp in both.components:
            b = periodic.reduce(
                fem.assemble_corrector_rhs(y1, comp.direction, coeff=ref_geom.d1))
            r = b - periodic.reduce(stiffness @ comp.theta) - comp.multiplier * c
            assert comp.residual == pytest.approx(
                np.linalg.norm(r) / np.linalg.norm(b), rel=1e-6, abs=1e-15)
            assert 0.0 < comp.residual <= 1e-10

    @pytest.mark.parametrize("restricted", [False, True], ids=["cell", "y1"])
    def test_plain_mesh_solves_with_the_full_mesh_pairs(self, coarse_cell_mesh,
                                                        ref_geom, restricted):
        # the pairs computed on Y1 are the full mesh's pairs renumbered into
        # Y1, so theta is that of the full mesh's pairs carried over to Y1
        y1, vmap = msh.submesh(coarse_cell_mesh, msh.Y1)
        correctors = cell.solve_correctors(y1 if restricted else coarse_cell_mesh,
                                           ref_geom)
        renum = np.empty(coarse_cell_mesh.n_vertices, dtype=np.int64)
        renum[vmap] = np.arange(vmap.size)
        carried = renum[msh.periodic_pairs(coarse_cell_mesh)]
        for comp in correctors.components:
            load = fem.assemble_corrector_rhs(y1, comp.direction, coeff=ref_geom.d1)
            theta, _ = bordered_oracle(y1, ref_geom, load, carried)
            assert np.abs(comp.theta - theta).max() <= 1e-12 * np.abs(theta).max()

    def test_frame_that_does_not_pair_raises(self, ref_geom):
        mesh = msh.build_cell_mesh(ref_geom, 1.0 / 24, n_arc=64)
        squeezed = dataclasses.replace(mesh, vertices=mesh.vertices * [1.0, 0.9])
        with pytest.raises(PeriodicityError, match="off the unit square frame"):
            cell.solve_correctors(squeezed, ref_geom)


class TestEffectiveTensor:
    def test_reference_cell_tensor_properties(self, coarse_correctors, ref_geom):
        result = cell.effective_tensor(coarse_correctors, ref_geom)
        d = result.tensor
        assert np.abs(d - d.T).max() <= 1e-10
        eigs = np.linalg.eigvalsh(d)
        assert eigs.min() > 0.0
        assert result.asymmetry <= 1e-9
        # energy bound: testing the weak form with theta itself shows D is
        # the energy Gram matrix, so no eigenvalue can exceed d1
        assert eigs.max() <= ref_geom.d1 + 1e-12
        # the arithmetic-mean bound over the perforated cell is looser still
        assert eigs.max() <= ref_geom.d1 / result.y1_measure + 1e-12

    def test_dilute_circular_hole_matches_asymptotics(self):
        f = 0.01
        radius = np.sqrt(f / np.pi)
        geom = msh.CellGeometry(a=radius, b=radius)
        result, _ = solve_tensor(geom, 1.0 / 64)
        d = result.tensor
        target = 1.0 / (1.0 + f)
        assert abs(d[0, 0] / target - 1.0) <= 0.01
        assert abs(d[1, 1] / target - 1.0) <= 0.01
        assert abs(d[0, 1]) <= 1e-8

    def test_circular_hole_matches_rayleigh(self):
        # Rayleigh's formula for a square array of insulating cylinders, with
        # the coefficients of Perrins, McKenzie & McPhedran (1979), gives the
        # |Y|-normalised conductivity D |Y1|.  Its errors were measured at
        # +2.1538e-3, +5.5655e-4 and +1.4682e-4 (observed orders 1.95 and
        # 1.92); every polygon vertex here is cocircular with the others
        radius = 0.2
        phi = math.pi * radius**2
        exact = 1.0 - 2.0 * phi / (1.0 + phi - 0.305827 * phi**4 - 0.013362 * phi**8)
        geom = msh.CellGeometry(a=radius, b=radius)
        errors = []
        for h, n_arc, measured in ((1.0 / 24, 64, 2.154e-3), (1.0 / 48, 128, 5.566e-4),
                                   (1.0 / 96, 256, 1.469e-4)):
            result, _ = solve_tensor(geom, h, n_arc=n_arc)
            d = result.tensor * result.y1_measure
            assert abs(d[0, 1]) <= 1e-14
            error = np.diag(d) - exact
            assert (error > 0.0).all() and (error <= measured).all()
            errors.append(error)
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert orders.min() >= 1.9

    def test_quarter_turn_swaps_axes(self, ref_geom):
        base, _ = solve_tensor(ref_geom, 1.0 / 48)
        rotated, _ = solve_tensor(
            msh.CellGeometry(a=ref_geom.a, b=ref_geom.b,
                             angle_deg=ref_geom.angle_deg + 90.0),
            1.0 / 48,
        )
        d0, d90 = base.tensor, rotated.tensor
        assert abs(d90[0, 0] - d0[1, 1]) <= 5e-3
        assert abs(d90[1, 1] - d0[0, 0]) <= 5e-3
        assert abs(d90[0, 1] + d0[0, 1]) <= 5e-3

    def test_mesh_refinement_consistency(self, ref_geom):
        coarse, _ = solve_tensor(ref_geom, 1.0 / 24, n_arc=64)
        mid, _ = solve_tensor(ref_geom, 1.0 / 48, n_arc=128)
        fine, _ = solve_tensor(ref_geom, 1.0 / 96, n_arc=256)
        d1 = np.abs(coarse.tensor - mid.tensor).max()
        d2 = np.abs(mid.tensor - fine.tensor).max()
        assert d2 < d1

    def test_mirror_symmetric_angles_swap_offdiagonal_sign(self, ref_geom):
        plus, _ = solve_tensor(ref_geom, 1.0 / 32, n_arc=64)
        minus, _ = solve_tensor(
            msh.CellGeometry(a=ref_geom.a, b=ref_geom.b, angle_deg=-30.0),
            1.0 / 32, n_arc=64,
        )
        assert plus.tensor[0, 0] == pytest.approx(minus.tensor[0, 0], abs=1e-10)
        assert plus.tensor[1, 1] == pytest.approx(minus.tensor[1, 1], abs=1e-10)
        assert plus.tensor[0, 1] == pytest.approx(-minus.tensor[0, 1], abs=1e-10)

    def test_validation_rejects_bad_tensors(self):
        with pytest.raises(ValueError):
            cell.EffectiveTensor(
                tensor=np.array([[1.0, 0.2], [-0.2, 1.0]]),
                asymmetry=0.0, y1_measure=1.0,
            )
        with pytest.raises(ValueError):
            cell.EffectiveTensor(
                tensor=np.array([[1.0, 2.0], [2.0, 1.0]]),
                asymmetry=0.0, y1_measure=1.0,
            )
