"""Memory-kernel construction, filtering, evaluation, serialization."""
import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homogmem import kernel as ker, mesh as msh, solvers
from meshtools import mirror_quarter


def make_kernel(amps, rates, r=0.0, y2=0.2):
    amps = np.asarray(amps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    return ker.KernelApproximation(
        amplitudes=amps, rates=rates, remainder=r, remainder_raw=r,
        y2_measure=y2, raw_count=amps.size, kept_count=amps.size,
    )


@pytest.fixture(scope="module")
def small_geom():
    return msh.CellGeometry(a=0.3, b=0.2, angle_deg=15.0)


@pytest.fixture(scope="module")
def small_inclusion(small_geom):
    return msh.build_inclusion_mesh(small_geom, 1.0 / 40, n_arc=64)


class TestBuildKernel:
    def test_rectangle_spectrum_oracle(self):
        # Dirichlet Laplacian on (0, 1/2) x (0, 1/4): lambda_mn and the
        # squared-mean amplitudes are known in closed form, with only
        # odd-odd modes carrying weight
        lx, ly = 0.5, 0.25
        base = msh.build_unit_square_mesh(48, label=msh.Y2)
        rect = replace(base, vertices=base.vertices * np.array([lx, ly]))
        raw = ker.build_kernel(rect, None, 12)

        measure = lx * ly
        modes = [(m, n) for m in range(1, 12) for n in range(1, 12)]
        lam = {q: np.pi**2 * (q[0] ** 2 / lx**2 + q[1] ** 2 / ly**2)
               for q in modes}
        # match each analytic mode to the nearest computed rate; the raw
        # ordering can permute inside near-degenerate clusters
        for q in sorted(modes, key=lam.get)[:12]:
            j = int(np.argmin(np.abs(raw.rates - lam[q])))
            assert abs(raw.rates[j] / lam[q] - 1.0) <= 0.02
            if q[0] % 2 and q[1] % 2:
                amp = (64.0 * measure / (q[0] ** 2 * q[1] ** 2 * np.pi**4)
                       * lam[q] / (1.0 - measure))
                assert abs(raw.amplitudes[j] / amp - 1.0) <= 0.03
            else:
                assert raw.amplitudes[j] <= 1e-3

    def test_total_weight_identity(self, small_inclusion, small_geom):
        for m in (0, 4, 17):
            kern = ker.build_kernel(small_inclusion, small_geom, m)
            exact = kern.y2_measure / (1.0 - kern.y2_measure)
            assert kern.total_weight == pytest.approx(exact, abs=1e-12)

    def test_remainder_shrinks_with_more_terms(self, small_inclusion, small_geom):
        remainders = [
            ker.build_kernel(small_inclusion, small_geom, m).remainder_raw
            for m in (0, 5, 15, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(remainders, remainders[1:]))
        assert remainders[-1] >= 0.0

    def test_terms_are_sane(self, small_inclusion, small_geom):
        kern = ker.build_kernel(small_inclusion, small_geom, 8)
        assert (kern.amplitudes >= 0.0).all()
        assert (np.diff(kern.rates) > 0.0).all()
        assert kern.rates[0] > 0.0
        assert kern.raw_count == kern.kept_count == 8
        assert kern.y2_measure_analytic == pytest.approx(
            np.pi * small_geom.a * small_geom.b, rel=1e-12
        )

    def test_zero_terms_is_pure_remainder(self, small_inclusion, small_geom):
        kern = ker.build_kernel(small_inclusion, small_geom, 0)
        mu = kern.y2_measure
        assert kern.amplitudes.size == 0
        assert kern.remainder == pytest.approx(mu / (1.0 - mu), abs=1e-14)
        assert kern.chi0 == 0.0
        assert kern.total_weight == kern.remainder
        assert ker.eval_kernel(kern, 0.7) == 0.0
        np.testing.assert_array_equal(
            ker.eval_kernel(kern, np.linspace(0.0, 1.0, 5)), np.zeros(5))

    def test_full_cell_mesh_is_restricted_to_inclusion(
        self, coarse_cell_mesh, ref_geom
    ):
        from_cell = ker.build_kernel(coarse_cell_mesh, ref_geom, 3)
        sub, _ = msh.submesh(coarse_cell_mesh, msh.Y2)
        from_sub = ker.build_kernel(sub, ref_geom, 3)
        np.testing.assert_allclose(from_cell.rates, from_sub.rates, rtol=1e-12)
        assert from_cell.y2_measure == from_sub.y2_measure

    def test_determinism(self, small_inclusion, small_geom):
        a = ker.build_kernel(small_inclusion, small_geom, 6)
        b = ker.build_kernel(small_inclusion, small_geom, 6)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_invalid_inputs(self, small_inclusion, small_geom):
        with pytest.raises(ValueError):
            ker.build_kernel(small_inclusion, small_geom, -1)
        full = msh.build_unit_square_mesh(4, label=msh.Y2)
        with pytest.raises(ValueError):
            ker.build_kernel(full, None, 2)


def assert_matches_oracle(block, oracle):
    """The block path agrees with the full-disk oracle, and its odd-class
    amplitudes (rounding noise in the oracle) are exactly zero."""
    scale = oracle.amplitudes.max()
    np.testing.assert_allclose(block.rates, oracle.rates, rtol=1e-10)
    np.testing.assert_allclose(block.amplitudes, oracle.amplitudes,
                               rtol=1e-10, atol=1e-10 * scale)
    assert block.remainder == pytest.approx(oracle.remainder, abs=1e-12)
    assert block.remainder_raw == pytest.approx(oracle.remainder_raw, abs=1e-12)
    assert block.y2_measure == pytest.approx(oracle.y2_measure, rel=1e-14)
    odd = oracle.amplitudes < 1e-12 * scale
    assert (block.amplitudes[odd] == 0.0).all()
    assert (block.amplitudes[~odd] > 0.0).all()
    assert (ker.filter_kernel(block, 1e-5).kept_count
            == ker.filter_kernel(oracle, 1e-5).kept_count)


@pytest.fixture
def eigensolves(monkeypatch):
    """The pairs of every ``solvers.smallest_eigenpairs`` call, in order."""
    solves = []
    smallest_eigenpairs = solvers.smallest_eigenpairs

    def spy(k, m, count, tol=1e-8):
        solves.append(smallest_eigenpairs(k, m, count, tol))
        return solves[-1]

    monkeypatch.setattr(solvers, "smallest_eigenpairs", spy)
    return solves


def assert_each_class_solved_once(quarter, geom, m, solves):
    """Building the m-term kernel of ``quarter`` solves each symmetry class
    once, within its Weyl share's margin of its true count below the m-th
    eigenvalue, and matches the kernel of the mirrored full disk."""
    block = ker.build_kernel(quarter, geom, m)
    classes = ker._symmetry_classes(quarter)
    assert len(solves) == len(classes)
    values = [pairs.values for pairs in solves]
    cut = np.sort(np.concatenate(values))[m - 1]
    below = np.array([(v <= cut).sum() for v in values])
    shares = ker._weyl_shares(quarter, classes, m)
    assert np.abs(below - shares).max() <= ker._SHARE_MARGIN
    assert_matches_oracle(block, ker.build_kernel(
        mirror_quarter(quarter, geom), geom, m))


class TestSymmetryBlocks:
    """The quarter inclusion, solved one symmetry class at a time, against
    the full disk mirrored from it as the oracle."""

    @pytest.fixture(scope="class", params=[15.0, 33.3])
    def meshes(self, request):
        geom = msh.CellGeometry(a=0.3, b=0.2, angle_deg=request.param)
        return geom, msh.build_inclusion_mesh(geom, 1.0 / 60, n_arc=128)

    @pytest.mark.parametrize("m", [4, 17, 100])
    def test_block_path_matches_full_disk(self, meshes, m, eigensolves):
        geom, quarter = meshes
        assert_each_class_solved_once(quarter, geom, m, eigensolves)

    # the kernel meshes of the benchmark workloads default, cell-fine and
    # macro-fine, with their m
    @pytest.mark.parametrize("h, n_arc, m", [(0.00625, 384, 100), (1.0 / 72, 192, 10),
                                             (0.0125, 192, 25)],
                             ids=["default", "cell-fine", "macro-fine"])
    def test_workload_kernel_meshes(self, ref_geom, h, n_arc, m, eigensolves):
        quarter = msh.build_inclusion_mesh(ref_geom, h, n_arc=n_arc)
        assert_each_class_solved_once(quarter, ref_geom, m, eigensolves)

    def test_class_with_a_share_below_minus_margin_is_asked_for_one_pair(
            self, eigensolves):
        # on a thin ellipse the classes odd across the major axis have a
        # Weyl share below -2 at m = 1, which the margin alone leaves at 0
        geom = msh.CellGeometry(a=0.45, b=0.02, angle_deg=0.0)
        quarter = msh.build_inclusion_mesh(geom, 1.0 / 100, n_arc=192)
        shares = ker._weyl_shares(quarter, ker._symmetry_classes(quarter), 1)
        assert shares.min() < -ker._SHARE_MARGIN
        block = ker.build_kernel(quarter, geom, 1)
        assert [pairs.count for pairs in eigensolves] == [1, 1, 1, 1]
        assert_matches_oracle(block, ker.build_kernel(
            mirror_quarter(quarter, geom), geom, 1))

    def test_undersized_class_is_solved_again(self, monkeypatch, eigensolves):
        # a quarter of the rectangle (-L, L) x (-W, W) with W << L: the lowest
        # modes are all even across the long axis, so an equal split of m
        # leaves the two classes even there, which hold half of them each,
        # short of pairs
        geom = msh.CellGeometry(a=0.4, b=0.04, angle_deg=0.0)
        base = msh.build_unit_square_mesh(24, label=msh.Y2)
        ends = base.vertices[base.boundary_edges]
        tags = np.select([(ends[:, :, 0] == 0.0).all(axis=1),
                          (ends[:, :, 1] == 0.0).all(axis=1)],
                         [msh.MAJOR_AXIS, msh.MINOR_AXIS], msh.INCLUSION)
        quarter = replace(base, vertices=base.vertices * [0.4, 0.04] + 0.5,
                          boundary_tags=tags)
        monkeypatch.setattr(ker, "_weyl_shares",
                            lambda y2, classes, m: np.full(len(classes), m / len(classes)))
        block = ker.build_kernel(quarter, geom, 16)
        assert len(eigensolves) > 4  # one solve per class, then at least one more
        assert_matches_oracle(block, ker.build_kernel(
            mirror_quarter(quarter, geom), geom, 16))


class TestFilter:
    def test_zero_threshold_keeps_everything(self, small_inclusion, small_geom):
        raw = ker.build_kernel(small_inclusion, small_geom, 8)
        flt = ker.filter_kernel(raw, 0.0)
        assert np.array_equal(flt.amplitudes, raw.amplitudes)
        assert flt.kept_count == raw.raw_count
        assert flt.dropped_mass == 0.0
        assert flt.filter_threshold == 0.0

    def test_mass_budget_and_untouched_remainder(self):
        raw = make_kernel([5.0, 0.3, 2.0, 1e-7], [1.0, 4.0, 9.0, 16.0], r=0.05)
        flt = ker.filter_kernel(raw, 0.5)
        assert flt.kept_count == 2
        assert (flt.amplitudes >= 0.5).all()
        assert flt.dropped_mass == pytest.approx(0.3 + 1e-7, rel=1e-12)
        assert flt.chi0 + flt.dropped_mass == pytest.approx(raw.chi0, rel=1e-12)
        assert flt.remainder == raw.remainder
        assert flt.raw_count == raw.raw_count

    def test_fold_preserves_total_weight(self):
        raw = make_kernel([5.0, 0.3, 2.0], [1.0, 4.0, 9.0], r=0.05)
        folded = ker.filter_kernel(raw, 0.5, fold=True)
        assert folded.total_weight == pytest.approx(raw.total_weight, rel=1e-14)
        assert folded.remainder > raw.remainder

    def test_filter_is_idempotent(self):
        raw = make_kernel([5.0, 0.3, 2.0], [1.0, 4.0, 9.0], r=0.05)
        once = ker.filter_kernel(raw, 0.5)
        twice = ker.filter_kernel(once, 0.5)
        assert np.array_equal(once.amplitudes, twice.amplitudes)
        assert twice.dropped_mass == 0.0

    def test_negative_threshold_rejected(self):
        for eps in (-1e-9, math.nan):
            with pytest.raises(ValueError, match="filter threshold must be >= 0"):
                ker.filter_kernel(make_kernel([1.0], [1.0]), eps)

    def test_reference_filter_drops_almost_nothing(self, filtered_kernel):
        # the centered-ellipse symmetry forces odd-mode means to vanish (the
        # odd symmetry blocks get amplitude exactly 0), so the dropped mass
        # can only be far below the filter threshold, never above it
        assert 0.0 <= filtered_kernel.dropped_mass <= 7.2e-6
        assert filtered_kernel.kept_count < filtered_kernel.raw_count

    @settings(max_examples=50, deadline=None)
    @given(
        amps=st.lists(st.floats(0.0, 10.0), min_size=0, max_size=8),
        seed=st.integers(0, 2**31 - 1),
        eps=st.floats(0.0, 12.0),
    )
    def test_filter_invariants(self, amps, seed, eps):
        rng = np.random.default_rng(seed)
        rates = np.sort(rng.uniform(0.01, 1e3, size=len(amps)))
        raw = make_kernel(amps, rates, r=0.1)
        flt = ker.filter_kernel(raw, eps)
        assert (flt.amplitudes >= eps).all()
        assert flt.kept_count + np.sum(np.asarray(amps) < eps) == raw.raw_count
        assert flt.chi0 + flt.dropped_mass == pytest.approx(
            raw.chi0, rel=1e-9, abs=1e-9
        )
        folded = ker.filter_kernel(raw, eps, fold=True)
        assert folded.total_weight == pytest.approx(
            raw.total_weight, rel=1e-9, abs=1e-9
        )


class TestEval:
    def test_value_at_zero_is_amplitude_sum(self):
        kern = make_kernel([2.0, 1.0, 0.5], [3.0, 10.0, 40.0])
        assert ker.eval_kernel(kern, 0.0) == pytest.approx(3.5, rel=1e-14)

    def test_single_term(self):
        kern = make_kernel([2.0], [3.0])
        assert ker.eval_kernel(kern, 1.0) == pytest.approx(
            2.0 * np.exp(-3.0), rel=1e-14
        )

    def test_scalar_and_array_types(self):
        kern = make_kernel([2.0, 1.0], [3.0, 10.0])
        assert isinstance(ker.eval_kernel(kern, 0.5), float)
        out = ker.eval_kernel(kern, np.linspace(0.0, 1.0, 7))
        assert isinstance(out, np.ndarray) and out.shape == (7,)

    def test_positive_decreasing_convex(self):
        kern = make_kernel([2.0, 1.0, 0.5], [3.0, 10.0, 40.0])
        values = ker.eval_kernel(kern, np.linspace(0.0, 2.0, 100))
        assert (values > 0.0).all()
        assert (np.diff(values) < 0.0).all()
        assert (np.diff(values, n=2) > 0.0).all()

    def test_time_integral_matches_delta_weights(self):
        kern = make_kernel([2.0, 1.0], [3.0, 10.0])
        t = np.linspace(0.0, 20.0, 200_001)
        integral = np.trapezoid(ker.eval_kernel(kern, t), t)
        assert integral == pytest.approx(2.0 / 3.0 + 0.1, rel=1e-6)

    def test_negative_time_rejected(self):
        kern = make_kernel([1.0], [1.0])
        with pytest.raises(ValueError):
            ker.eval_kernel(kern, -0.1)
        with pytest.raises(ValueError):
            ker.eval_kernel(kern, np.array([0.0, -1e-9]))


class TestSerialization:
    def test_json_roundtrip(self, small_inclusion, small_geom):
        kern = ker.filter_kernel(
            ker.build_kernel(small_inclusion, small_geom, 8), 1e-4
        )
        back = ker.kernel_from_json(ker.kernel_to_json(kern))
        assert np.array_equal(back.amplitudes, kern.amplitudes)
        assert np.array_equal(back.rates, kern.rates)
        for field in ("remainder", "remainder_raw", "y2_measure", "raw_count",
                      "kept_count", "filter_threshold", "dropped_mass",
                      "y2_measure_analytic"):
            assert getattr(back, field) == getattr(kern, field)

    def test_file_roundtrip_and_schema(self, tmp_path, small_inclusion, small_geom):
        jsonschema = pytest.importorskip("jsonschema")
        kern = ker.filter_kernel(
            ker.build_kernel(small_inclusion, small_geom, 5), 1e-4
        )
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(ker.kernel_to_json(kern)))
        payload = json.loads(path.read_text())
        schema = json.loads(
            (resources.files("homogmem") / "schemas" / "kernel.schema.json")
            .read_text()
        )
        jsonschema.validate(payload, schema)
        back = ker.kernel_from_json(payload)
        assert np.array_equal(back.rates, kern.rates)
        assert back.total_weight == pytest.approx(kern.total_weight, rel=1e-14)

    @pytest.mark.parametrize("mutation, message", [
        ({"terms": [[1.5, 2.0], [float("nan"), 3.0]]}, "finite"),
        ({"terms": [[1.5, float("inf")]]}, "finite"),
        ({"r": float("nan")}, "finite"),
        ({"terms": [[-1e-3, 2.0]]}, "amplitudes"),
        ({"terms": [[1.5, 0.0]]}, "rates"),
        ({"terms": [[1.5, -2.0]]}, "rates"),
        ({"r": -1.5}, "remainder"),
        ({"y2_measure": 0.0}, "y2_measure"),
        ({"y2_measure": 1.0}, "y2_measure"),
        ({"y2_measure": float("nan")}, "y2_measure"),
    ])
    def test_payload_outside_the_stable_ranges_rejected(self, mutation, message):
        payload = {"terms": [[1.5, 2.0]], "r": 0.25, "m": 1, "m_eps": 1,
                   "y2_measure": 0.3}
        with pytest.raises(ValueError, match=message):
            ker.kernel_from_json({**payload, **mutation})

    # a terms array is read as given, never re-paired into [a, lambda] rows
    @pytest.mark.parametrize("terms", [
        [1.5, 2.0, 0.5, 3.0], [[1.5, 2.0, 0.5, 3.0]], [[1.5], [2.0]], [[]], 1.5,
    ], ids=["flat", "one-4-number-term", "1-number-terms", "empty-term", "scalar"])
    def test_terms_not_a_list_of_pairs_rejected(self, terms):
        payload = {"terms": terms, "r": 0.25, "m": 2, "m_eps": 2, "y2_measure": 0.3}
        with pytest.raises(ValueError, match=r"list of \[a, lambda\] pairs"):
            ker.kernel_from_json(payload)

    def test_empty_terms_load_as_no_terms(self):
        kern = ker.kernel_from_json({"terms": [], "r": 0.25, "m": 0, "m_eps": 0,
                                     "y2_measure": 0.3})
        assert kern.amplitudes.shape == kern.rates.shape == (0,)
        assert kern.total_weight == 0.25

    def test_minimal_payload_defaults(self):
        kern = ker.kernel_from_json({
            "terms": [[1.5, 2.0]], "r": 0.25, "m": 1, "m_eps": 1,
            "y2_measure": 0.3,
        })
        assert kern.remainder_raw == 0.25
        assert kern.filter_threshold is None
        assert kern.dropped_mass == 0.0
        assert kern.y2_measure_analytic is None
