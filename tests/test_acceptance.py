"""End-to-end acceptance checks against the reference comparison values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Two comparisons are expected to fail with conforming P1
discretizations and are left red on purpose (see README "Known deviations"):
the effective-tensor table in criterion 1 lies above the variational upper
bound d1 that every conforming discretization of the perforated cell
problem satisfies, and the reference dropped-mass value in criterion 4 is
tied to discretization noise that the symmetry-block kernel solve removes.
"""
import time

import numpy as np
import pytest

from conftest import (
    REF_CHI0, REF_EIGENVALUES, REF_GEOM, REF_R0, REF_R31, REF_RHO, REF_TENSOR,
)
from homogmem import cell, cli, kernel as ker, macro, mesh as msh
from volterra import trajectory, volterra_reference


def report(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(f"\n{line}")
    return line


front_u0 = cli._resolve_u0("paper")


def m_norm(vec, mass):
    return float(np.sqrt(vec @ (mass @ vec)))


@pytest.fixture(scope="module")
def tensor_stage():
    """Reference-cell tensor on the ~9e3-node mesh, with wall time."""
    start = time.perf_counter()
    mesh = msh.build_cell_mesh(REF_GEOM, 1.0 / 96, n_arc=256)
    correctors = cell.solve_correctors(mesh, REF_GEOM)
    result = cell.effective_tensor(correctors, REF_GEOM)
    wall = time.perf_counter() - start
    return mesh, result, wall


def test_criterion_01_effective_tensor(tensor_stage):
    mesh, result, wall = tensor_stage
    deviation = np.abs(result.tensor - REF_TENSOR).max()
    ok = deviation <= 3e-3 and wall < 30.0
    line = report(
        1, "effective tensor vs reference table", ok,
        f"n_vertices={mesh.n_vertices}, max entry deviation={deviation:.5f} "
        f"(tol 3e-3), wall={wall:.1f}s (limit 30s); computed "
        f"D={np.array2string(result.tensor, precision=6)}",
    )
    assert ok, line


def test_criterion_02_inclusion_eigenvalues():
    start = time.perf_counter()
    mesh = msh.build_inclusion_mesh(REF_GEOM, 1.0 / 72, n_arc=192)
    raw = ker.build_kernel(mesh, REF_GEOM, 10)
    wall = time.perf_counter() - start
    rel = np.abs(raw.rates - REF_EIGENVALUES) / REF_EIGENVALUES
    ok = rel.max() <= 0.01 and wall < 60.0
    line = report(
        2, "first 10 inclusion eigenvalues", ok,
        f"n_vertices={mesh.n_vertices}, max rel error={rel.max():.4%} "
        f"(tol 1%), wall={wall:.1f}s (limit 60s)",
    )
    assert ok, line


def test_criterion_03_remainder_constants(inclusion_mesh_fine):
    r0 = ker.build_kernel(inclusion_mesh_fine, REF_GEOM, 0).remainder
    raw31 = ker.build_kernel(inclusion_mesh_fine, REF_GEOM, 31)
    err0 = abs(r0 - REF_R0)
    rel31 = abs(raw31.remainder - REF_R31) / REF_R31
    ok = err0 <= 1e-4 and rel31 <= 0.05
    line = report(
        3, "remainder constants", ok,
        f"r(m=0)={r0:.6f} abs err={err0:.2e} (tol 1e-4); "
        f"r(m=31)={raw31.remainder:.6f} rel err={rel31:.3%} (tol 5%)",
    )
    assert ok, line


def test_criterion_04_kernel_magnitude_and_filter(raw_kernel_100, filtered_kernel):
    chi_rel = abs(raw_kernel_100.chi0 - REF_CHI0) / REF_CHI0
    kept = filtered_kernel.kept_count
    rho = filtered_kernel.dropped_mass
    chi_ok = chi_rel <= 0.03
    kept_ok = 27 <= kept <= 33
    rho_ok = REF_RHO / 3.0 <= rho <= REF_RHO * 3.0
    ok = chi_ok and kept_ok and rho_ok
    line = report(
        4, "kernel magnitude and filter", ok,
        f"chi(0)={raw_kernel_100.chi0:.4f} rel err={chi_rel:.3%} (tol 3%) "
        f"{'OK' if chi_ok else 'FAIL'}; kept={kept} (target 30±3) "
        f"{'OK' if kept_ok else 'FAIL'}; rho={rho:.3e} "
        f"(target within 3x of {REF_RHO:.4e}) {'OK' if rho_ok else 'FAIL'}",
    )
    assert ok, line


def test_criterion_05_total_weight_identity(inclusion_mesh_fine, raw_kernel_100):
    kernels = {
        "m=0": ker.build_kernel(inclusion_mesh_fine, REF_GEOM, 0),
        "m=31": ker.build_kernel(inclusion_mesh_fine, REF_GEOM, 31),
        "m=100": raw_kernel_100,
        "filtered+fold": ker.filter_kernel(raw_kernel_100, 1e-5, fold=True),
    }
    defects = {
        name: abs(k.total_weight - k.y2_measure / (1.0 - k.y2_measure))
        for name, k in kernels.items()
    }
    worst = max(defects.values())
    ok = worst <= 1e-12
    line = report(
        5, "total-weight identity", ok,
        "|sum a/lambda + r - mu/(1-mu)| = "
        + ", ".join(f"{n}: {d:.1e}" for n, d in defects.items())
        + " (tol 1e-12)",
    )
    assert ok, line


def test_criterion_06_energy_stability(tensor_stage, filtered_kernel):
    _, tensor_result, _ = tensor_stage
    mesh = msh.build_unit_square_mesh(100)
    details = []
    ok = True
    start = time.perf_counter()
    for sigma in (1.0, 0.5):
        problem = macro.MacroProblem(
            mesh=mesh, tensor=tensor_result.tensor, kernel=filtered_kernel,
            u0=front_u0, tau=1e-4, t_end=0.1, sigma=sigma,
        )
        result = macro.run(problem)
        worst = float(np.diff(result.energies).max() / result.initial_energy)
        sig_ok = worst <= 1e-12
        ok = ok and sig_ok
        details.append(
            f"sigma={sigma}: worst rise/E0={worst:.2e} "
            f"{'OK' if sig_ok else 'FAIL'}"
        )
    wall = time.perf_counter() - start
    ok = ok and wall < 300.0
    line = report(
        6, "energy non-increasing over 1000 steps", ok,
        "; ".join(details) + f"; wall={wall:.0f}s (limit 300s)",
    )
    assert ok, line


def test_criterion_07_volterra_oracle_gap(tensor_stage, filtered_kernel):
    _, tensor_result, _ = tensor_stage
    k5 = ker.KernelApproximation(
        amplitudes=filtered_kernel.amplitudes[:5],
        rates=filtered_kernel.rates[:5],
        remainder=filtered_kernel.remainder,
        remainder_raw=filtered_kernel.remainder_raw,
        y2_measure=filtered_kernel.y2_measure,
        raw_count=5, kept_count=5,
    )
    mesh = msh.build_unit_square_mesh(16)
    details = []
    ok = True
    for sigma, window in ((1.0, (1.6, 2.4)), (0.5, (3.2, 4.8))):
        gaps = []
        for tau in (1e-3, 5e-4, 2.5e-4):
            problem = macro.MacroProblem(
                mesh=mesh, tensor=tensor_result.tensor, kernel=k5, u0=front_u0,
                tau=tau, t_end=0.05, sigma=sigma,
            )
            rows, final = trajectory(problem)
            reference = volterra_reference(problem)
            mass = final.ops.mass
            diff = rows - reference
            norms = np.sqrt(np.einsum("tn,tn->t", diff, (mass @ diff.T).T))
            gaps.append(float(norms.max()))
            y0_norm = m_norm(rows[0], mass)
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        ratio_ok = all(window[0] <= r <= window[1] for r in ratios)
        abs_ok = gaps[0] <= 1e-3 * y0_norm
        ok = ok and ratio_ok and abs_ok
        details.append(
            f"sigma={sigma}: halving ratios={ratios[0]:.2f},{ratios[1]:.2f} "
            f"(window {window[0]}-{window[1]}) {'OK' if ratio_ok else 'FAIL'}, "
            f"gap(tau=1e-3)/|y0|={gaps[0] / y0_norm:.2e} (tol 1e-3) "
            f"{'OK' if abs_ok else 'FAIL'}"
        )
    line = report(7, "extended system vs Volterra reference", ok, "; ".join(details))
    assert ok, line


def test_criterion_08_temporal_orders():
    k1 = ker.KernelApproximation(
        amplitudes=np.array([50.0]), rates=np.array([89.0]),
        remainder=0.3, remainder_raw=0.3, y2_measure=0.25,
        raw_count=1, kept_count=1,
    )
    mesh = msh.build_unit_square_mesh(16)

    def mode_u0(x1, x2):
        return np.sin(np.pi * x1) * np.sin(np.pi * x2)

    details = []
    ok = True
    for sigma, target in ((1.0, 1.0), (0.5, 2.0)):
        finals = []
        mass = None
        for tau in (2e-3, 1e-3, 5e-4):
            problem = macro.MacroProblem(
                mesh=mesh, tensor=np.eye(2), kernel=k1, u0=mode_u0,
                tau=tau, t_end=0.04, sigma=sigma,
            )
            result = macro.run(problem)
            finals.append(result.final.y)
            mass = result.final.ops.mass
        order = float(np.log2(
            m_norm(finals[0] - finals[1], mass)
            / m_norm(finals[1] - finals[2], mass)
        ))
        sig_ok = abs(order - target) <= 0.2
        ok = ok and sig_ok
        details.append(
            f"sigma={sigma}: Richardson order={order:.3f} "
            f"(target {target}±0.2) {'OK' if sig_ok else 'FAIL'}"
        )
    line = report(8, "temporal convergence orders", ok, "; ".join(details))
    assert ok, line


def test_criterion_09_structural_identities():
    # homogeneous cell: no inclusion, any d1 -> D = d1*I
    d1 = 1.3
    geom_h = msh.CellGeometry(a=0.2, b=0.1, d1=d1)
    mesh_h = msh.build_unit_square_mesh(16, label=msh.Y1)
    hom = cell.effective_tensor(cell.solve_correctors(mesh_h, geom_h), geom_h)
    hom_dev = np.abs(hom.tensor - d1 * np.eye(2)).max()
    hom_ok = hom_dev <= 1e-9

    # dilute circular hole of area fraction f -> D ~ (d1/(1+f)) * I
    f = 0.01
    radius = float(np.sqrt(f / np.pi))
    geom_d = msh.CellGeometry(a=radius, b=radius)
    mesh_d = msh.build_cell_mesh(geom_d, 1.0 / 64, n_arc=128)
    dil = cell.effective_tensor(cell.solve_correctors(mesh_d, geom_d), geom_d)
    target = 1.0 / (1.0 + f)
    dil_dev = max(
        abs(dil.tensor[0, 0] / target - 1.0),
        abs(dil.tensor[1, 1] / target - 1.0),
        abs(dil.tensor[0, 1]) / target,
    )
    dil_ok = dil_dev <= 0.01

    # rotating the inclusion by 90 degrees swaps the diagonal and flips
    # the off-diagonal sign
    base_g = msh.CellGeometry(a=0.4, b=0.2, angle_deg=30.0)
    rot_g = msh.CellGeometry(a=0.4, b=0.2, angle_deg=120.0)
    mesh_b = msh.build_cell_mesh(base_g, 1.0 / 64, n_arc=128)
    mesh_r = msh.build_cell_mesh(rot_g, 1.0 / 64, n_arc=128)
    d_b = cell.effective_tensor(cell.solve_correctors(mesh_b, base_g), base_g).tensor
    d_r = cell.effective_tensor(cell.solve_correctors(mesh_r, rot_g), rot_g).tensor
    rot_dev = max(
        abs(d_r[0, 0] - d_b[1, 1]),
        abs(d_r[1, 1] - d_b[0, 0]),
        abs(d_r[0, 1] + d_b[0, 1]),
    )
    rot_ok = rot_dev <= 5e-3

    ok = hom_ok and dil_ok and rot_ok
    line = report(
        9, "structural identities", ok,
        f"homogeneous dev={hom_dev:.1e} (tol 1e-9) "
        f"{'OK' if hom_ok else 'FAIL'}; dilute dev={dil_dev:.2%} (tol 1%) "
        f"{'OK' if dil_ok else 'FAIL'}; rotation dev={rot_dev:.1e} (tol 5e-3) "
        f"{'OK' if rot_ok else 'FAIL'}",
    )
    assert ok, line
