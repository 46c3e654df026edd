"""Memory kernel as a filtered exponential sum from the inclusion spectrum.

The kernel chi(t) = sum_k a_k exp(-lambda_k t) collects the lowest Dirichlet
eigenpairs of the inclusion problem, weighted by squared mean values; the
unresolved tail is carried as a delta-like remainder r.  The exact algebraic
identity sum_k a_k / lambda_k + r = |Y2| / (1 - |Y2|) holds for every
truncation level because each a_k / lambda_k telescopes against r.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fem, mesh as msh, solvers
from .mesh import CellGeometry, TriMesh


@dataclass(frozen=True)
class KernelApproximation:
    """Exponential-sum kernel with remainder.

    ``amplitudes``/``rates`` hold the kept terms (rates ascending);
    ``remainder`` is indexed by the raw truncation level ``raw_count`` and is
    not changed by filtering unless folding is requested.  ``dropped_mass``
    is the chi(0) mass removed by the filter.
    """

    amplitudes: np.ndarray
    rates: np.ndarray
    remainder: float
    remainder_raw: float
    y2_measure: float
    raw_count: int
    kept_count: int
    filter_threshold: float | None = None
    dropped_mass: float = 0.0
    y2_measure_analytic: float | None = None

    @property
    def chi0(self) -> float:
        """Kernel value at t = 0 (sum of kept amplitudes)."""
        return float(self.amplitudes.sum())

    @property
    def total_weight(self) -> float:
        """sum_k a_k / lambda_k + r, equal to |Y2| / (1 - |Y2|) unfiltered."""
        return float((self.amplitudes / self.rates).sum() + self.remainder)


def _symmetry_classes(y2: TriMesh) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(Dirichlet tag codes, odd axis codes) of every symmetry class of ``y2``.

    A mesh without symmetry-axis tags is one class, Dirichlet on its whole
    boundary.  A mesh cut along symmetry axes has one class per subset of
    them: a mode odd across an axis vanishes on it (Dirichlet there), an even
    one has zero normal flux (natural there).  The even class comes first.
    """
    present = {int(t) for t in np.unique(y2.boundary_tags)}
    axes = [t for t in msh.SYMMETRY_AXES if t in present]
    base = tuple(sorted(present.difference(msh.SYMMETRY_AXES)))
    classes = []
    for bits in itertools.product((False, True), repeat=len(axes)):
        odd = tuple(axis for axis, flip in zip(axes, bits) if flip)
        classes.append(((*base, *odd), odd))
    return classes


def eigenproblem_dofs(y2: TriMesh) -> int:
    """Dofs of the kernel's eigenproblem on ``y2``, summed over its symmetry
    classes: per class, the vertices on no edge carrying one of its
    Dirichlet tags, the ones ``fem.apply_constraints`` keeps."""
    return sum(y2.n_vertices - y2.tagged_vertices(tags).size
               for tags, _ in _symmetry_classes(y2))


# Pairs asked of each class above its Weyl share.  A class other than the
# one holding the m-th eigenvalue needs one pair above its true count below
# that eigenvalue, and over 196 quarter inclusions (b/a from 1/9 to 1, h from
# 1/40 to 1/160, m from 4 to 200) that count exceeded the share's ceiling by
# at most 1 at h <= 1/72.  With this margin 3 of them solved a class again,
# all at h = 1/40 with b/a <= 1/8 and m >= 100.
_SHARE_MARGIN = 2


def _weyl_shares(y2: TriMesh, classes, m: int) -> np.ndarray:
    """Each class's two-term Weyl count N_c at the cut where they sum to ``m``.

    N_c(k) = (|Y2| k^2 + (L_N,c - L_D,c) k) / 4 pi, with k = sqrt(lambda/d2)
    and L_D,c, L_N,c the lengths of the class's Dirichlet and natural
    boundary (Weyl 1911; Ivrii 1980); the sum over classes is one quadratic
    in k.
    """
    ends = y2.vertices[y2.boundary_edges]
    lengths = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
    area = float(y2.areas.sum())
    dirichlet = np.array([lengths[np.isin(y2.boundary_tags, tags)].sum()
                          for tags, _ in classes])
    skew = lengths.sum() - 2.0 * dirichlet  # natural minus Dirichlet length
    c, b = len(classes), float(skew.sum())
    k = (math.sqrt(b * b + 16.0 * math.pi * c * area * m) - b) / (2.0 * c * area)
    return (area * k * k + skew * k) / (4.0 * math.pi)


def _lowest_modes(y2: TriMesh, classes, m: int,
                  d2: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` lowest eigenvalues over the ``classes``, and their modes' means.

    Each class is first asked for its two-term Weyl share of ``m``
    (``_weyl_shares``) plus ``_SHARE_MARGIN`` pairs, at least one and at
    most ``m``; a one-class mesh, whose share is ``m``, is asked for exactly
    ``m``.  The estimate only sizes the first solves.  A
    class's uncomputed eigenvalues lie above its largest computed one, so
    a class is solved again, with twice the pairs, while that one lies
    below the m-th smallest of the union and the class has pairs left; the
    result is the lowest ``m`` of the union whatever the estimate.
    """
    stiff = fem.assemble_stiffness(y2, d2)
    mass = fem.assemble_mass(y2)
    blocks, counts = [], []
    for (tags, odd), share in zip(classes, _weyl_shares(y2, classes, m)):
        k_red, m_red, dofmap = fem.apply_constraints(y2, stiff, mass,
                                                     dirichlet_tags=tags)
        if k_red.shape[0]:
            blocks.append((k_red, m_red, dofmap, odd))
            counts.append(min(m, k_red.shape[0],
                              max(1, math.ceil(share) + _SHARE_MARGIN)))
    sizes = [block[0].shape[0] for block in blocks]
    pairs = [None] * len(blocks)
    while True:
        for i, (k_red, m_red, _, _) in enumerate(blocks):
            if pairs[i] is None or pairs[i].count < counts[i]:
                pairs[i] = solvers.smallest_eigenpairs(k_red, m_red, counts[i])
        values = np.concatenate([p.values for p in pairs])
        cut = np.sort(values)[m - 1] if values.size >= m else np.inf
        grow = [i for i, p in enumerate(pairs)
                if p.count < sizes[i] and p.values[-1] < cut]
        if not grow:
            break
        for i in grow:
            counts[i] = min(2 * counts[i], sizes[i])

    # an M-normalised even mode of the cut mesh extends by reflection to a
    # mode of the whole inclusion with M-norm sqrt(copies) and copies times
    # the mean, so its normalised mean is sqrt(copies) times the cut mean
    copies = len(classes)
    weights = fem.integral_weights(y2)
    means = np.concatenate([
        np.zeros(p.count) if odd
        else math.sqrt(copies) * (p.vectors.T @ dofmap.reduce(weights))
        for p, (_, _, dofmap, odd) in zip(pairs, blocks)
    ])
    order = np.argsort(values, kind="stable")[:m]
    return values[order], means[order]


def build_kernel(cell: TriMesh, geom: CellGeometry | None,
                 m: int) -> KernelApproximation:
    """Assemble the raw m-term kernel from the inclusion eigenproblem.

    ``cell`` may be a full labeled cell mesh, one already restricted to Y2,
    or the quarter inclusion of ``mesh.build_inclusion_mesh``.  The Dirichlet
    condition is applied on the boundary of the Y2 submesh; on a mesh cut
    along the ellipse axes (tagged MAJOR_AXIS/MINOR_AXIS) the eigenproblem of
    the whole inclusion splits into one problem per symmetry class (Klein
    four-group for two axes), and the raw kernel keeps the lowest ``m``
    eigenvalues over all classes.  Only the class even across every axis has
    modes of nonzero mean; the others get amplitude exactly 0.  The
    inclusion's diffusion coefficient is ``geom.d2``, or 1 without a
    geometry.
    """
    if m < 0:
        raise ValueError(f"term count must be >= 0, got {m}")
    d2 = geom.d2 if geom is not None else 1.0
    y2, _ = msh.submesh(cell, msh.Y2)
    classes = _symmetry_classes(y2)
    # each axis cut halves the inclusion and doubles the classes
    measure = len(classes) * float(y2.areas.sum())
    if not 0.0 < measure < 1.0:
        raise ValueError(f"inclusion measure {measure} must lie in (0, 1)")
    dofs = eigenproblem_dofs(y2)
    if m > dofs:
        raise ValueError(f"requested {m} eigenpairs of a {dofs}-dof system")
    prefactor = 1.0 / (1.0 - measure)
    analytic = geom.inclusion_measure if geom is not None else None
    rates, means = (_lowest_modes(y2, classes, m, d2) if m
                    else (np.zeros(0), np.zeros(0)))
    amplitudes = prefactor * means**2 * rates
    captured = float((means**2).sum())
    raw_remainder = prefactor * (measure - captured)
    return KernelApproximation(
        amplitudes=amplitudes,
        rates=rates,
        remainder=max(raw_remainder, 0.0),
        remainder_raw=raw_remainder,
        y2_measure=measure,
        raw_count=m,
        kept_count=m,
        y2_measure_analytic=analytic,
    )


def filter_kernel(kernel: KernelApproximation, eps: float,
                  fold: bool = False) -> KernelApproximation:
    """Drop terms with a_k < eps and record the removed chi(0) mass rho.

    The remainder is untouched by default; ``fold=True`` adds the dropped
    terms' delta weights a_k / lambda_k to it, preserving the total-weight
    identity of the unfiltered kernel.
    """
    if not eps >= 0.0:  # also catches NaN
        raise ValueError(f"filter threshold must be >= 0, got {eps}")
    keep = kernel.amplitudes >= eps
    dropped = float(kernel.amplitudes[~keep].sum())
    remainder = kernel.remainder
    if fold and (~keep).any():
        remainder += float(
            (kernel.amplitudes[~keep] / kernel.rates[~keep]).sum()
        )
    return replace(
        kernel,
        amplitudes=kernel.amplitudes[keep],
        rates=kernel.rates[keep],
        remainder=remainder,
        kept_count=int(keep.sum()),
        filter_threshold=eps,
        dropped_mass=dropped,
    )


def eval_kernel(kernel: KernelApproximation, t) -> np.ndarray | float:
    """chi(t) = sum_k a_k exp(-lambda_k t) for scalar or array t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0.0).any():
        raise ValueError("kernel is defined for t >= 0 only")
    out = np.exp(-np.multiply.outer(t_arr, kernel.rates)) @ kernel.amplitudes
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def kernel_to_json(kernel: KernelApproximation) -> dict:
    """JSON payload with terms, remainder, and filter diagnostics."""
    return {
        "terms": [
            [float(a), float(lam)]
            for a, lam in zip(kernel.amplitudes, kernel.rates)
        ],
        "r": kernel.remainder,
        "r_raw": kernel.remainder_raw,
        "m": kernel.raw_count,
        "m_eps": kernel.kept_count,
        "epsilon": kernel.filter_threshold,
        "rho": kernel.dropped_mass,
        "chi0": kernel.chi0,
        "total_weight": kernel.total_weight,
        "y2_measure": kernel.y2_measure,
        "y2_measure_analytic": kernel.y2_measure_analytic,
    }


def _number(value, key: str, whole: bool = False, minimum: float = -math.inf,
            exclusive: bool = False) -> float:
    """``value``, a finite JSON number (a whole one with ``whole``) of at
    least ``minimum`` (above it with ``exclusive``), as a float."""
    if (type(value) not in (int, float) or not math.isfinite(value) or whole and value % 1
            or value < minimum or exclusive and value == minimum):
        least = f" {'>' if exclusive else '>='} {minimum:g}" * (minimum > -math.inf)
        raise ValueError(f"kernel {key}={value!r}: not a finite "
                         f"{'whole ' * whole}number{least}")
    return float(value)


def kernel_from_json(data: dict) -> KernelApproximation:
    """Kernel of a JSON payload.  Terms that are not a list of [a_k,
    lambda_k] pairs, a value read that is not a finite JSON number (never a
    bool or a string) or outside its range, and an m or m_eps that is not
    whole are a ValueError.  The ranges are kernel.schema.json's, with
    y2_measure < 1, a_k >= 0 and lambda_k > 0 (the macro energy estimate)."""
    def optional(key, **rule):  # null, or a number by ``rule``
        return None if data.get(key) is None else _number(data[key], key, **rule)
    terms = np.array(data["terms"], dtype=object)
    if terms.shape[1:] != (2,) and terms.shape != (0,):  # [] holds no terms
        raise ValueError("kernel terms must be a list of [a, lambda] pairs")
    terms = np.array([[_number(a, "amplitudes entry", minimum=0),
                       _number(lam, "rates entry", minimum=0, exclusive=True)]
                      for a, lam in terms.reshape(-1, 2)]).reshape(-1, 2)
    y2_measure = _number(data["y2_measure"], "y2_measure")
    if not 0.0 < y2_measure < 1.0:
        raise ValueError(f"kernel y2_measure {y2_measure} must lie in (0, 1)")
    return KernelApproximation(
        amplitudes=terms[:, 0],
        rates=terms[:, 1],
        remainder=_number(data["r"], "remainder r", minimum=0),
        remainder_raw=_number(data.get("r_raw", data["r"]), "r_raw"),
        y2_measure=y2_measure,
        raw_count=int(_number(data["m"], "m", whole=True, minimum=0)),
        kept_count=int(_number(data["m_eps"], "m_eps", whole=True, minimum=0)),
        filter_threshold=optional("epsilon", minimum=0),
        dropped_mass=_number(data.get("rho", 0.0), "rho", minimum=0),
        y2_measure_analytic=optional("y2_measure_analytic", minimum=0, exclusive=True),
    )
