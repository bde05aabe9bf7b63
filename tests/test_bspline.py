"""Tests for knot construction, basis evaluation, and curve smoothing."""

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    IllConditioned,
    InvalidDomain,
    InvalidKnots,
    OutOfDomain,
    ShapeError,
    Underdetermined,
    basis_matrix,
    eval_basis,
    eval_basis_order1,
    eval_curve,
    make_knots,
    smooth_least_squares,
)
from fmds.bspline import SmoothCurve


def _random_knots(rng):
    order = int(rng.integers(1, 5))
    count = int(rng.integers(0, 7))
    a = float(rng.uniform(-3.0, 3.0))
    b = a + float(rng.uniform(0.5, 4.0))
    interior = np.unique(rng.uniform(a, b, count))
    interior = interior[(interior > a) & (interior < b)]
    return make_knots((a, b), interior, order)


class TestMakeKnots:
    def test_no_interior_cubic(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        assert kv.num_basis == 4
        npt.assert_array_equal(kv.extended, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_basis_count_with_interior(self):
        kv = make_knots((0.0, 1.0), (0.25, 0.5, 0.75), order=4)
        assert kv.num_basis == 7

    def test_duplicate_interior_rejected(self):
        with pytest.raises(InvalidKnots):
            make_knots((0.0, 1.0), (0.5, 0.5), order=4)

    def test_decreasing_interior_rejected(self):
        with pytest.raises(InvalidKnots):
            make_knots((0.0, 1.0), (0.7, 0.3), order=4)

    def test_interior_outside_domain_rejected(self):
        with pytest.raises(InvalidKnots):
            make_knots((0.0, 1.0), (1.5,), order=4)
        with pytest.raises(InvalidKnots):
            make_knots((0.0, 1.0), (0.0,), order=4)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(InvalidDomain):
            make_knots((1.0, 1.0), (), order=4)
        with pytest.raises(InvalidDomain):
            make_knots((2.0, 1.0), (), order=4)

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidKnots):
            make_knots((0.0, 1.0), (), order=0)

    def test_extended_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            kv = _random_knots(rng)
            assert np.all(np.diff(kv.extended) >= 0)
            assert kv.extended.size == kv.num_basis + kv.order


class TestOrder1:
    def test_interval_membership(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=1)
        npt.assert_array_equal(kv.extended, [0.0, 0.5, 1.0])
        npt.assert_array_equal(eval_basis_order1(kv, 0.25), [1.0, 0.0])

    def test_left_closed_at_knot(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=1)
        npt.assert_array_equal(eval_basis_order1(kv, 0.5), [0.0, 1.0])

    def test_right_endpoint_owned_by_last_interval(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=1)
        npt.assert_array_equal(eval_basis_order1(kv, 1.0), [0.0, 1.0])

    def test_exactly_one_active(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            kv = _random_knots(rng)
            t = float(rng.uniform(*kv.domain))
            row = eval_basis_order1(kv, t)
            assert row.sum() == 1.0
            assert np.count_nonzero(row) == 1

    def test_zero_width_intervals_inactive(self):
        # replicated boundary knots of a cubic space carry no indicator mass
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        row = eval_basis_order1(kv, 0.0)
        assert row[:3].sum() == 0.0 and row[3] == 1.0

    def test_out_of_domain(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=1)
        with pytest.raises(OutOfDomain):
            eval_basis_order1(kv, 1.5)


class TestEvalBasis:
    def test_uniform_cubic_interior_values(self):
        # on uniform unit-spaced knots the cubic basis at an interior knot
        # takes the classic values 1/6, 4/6, 1/6 on three central functions
        kv = make_knots((0.0, 4.0), (1.0, 2.0, 3.0), order=4)
        row = eval_basis(kv, 2.0)
        npt.assert_allclose(row, [0, 0, 1 / 6, 4 / 6, 1 / 6, 0, 0], atol=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            kv = _random_knots(rng)
            t = float(rng.uniform(*kv.domain))
            assert abs(eval_basis(kv, t).sum() - 1.0) <= 1e-12

    def test_clamped_endpoint_interpolation(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        npt.assert_array_equal(eval_basis(kv, 0.0), [1, 0, 0, 0])
        npt.assert_array_equal(eval_basis(kv, 1.0), [0, 0, 0, 1])

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            kv = _random_knots(rng)
            t = float(rng.uniform(*kv.domain))
            assert np.all(eval_basis(kv, t) >= 0)

    def test_local_support(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            kv = _random_knots(rng)
            t = float(rng.uniform(*kv.domain))
            assert np.count_nonzero(eval_basis(kv, t)) <= kv.order

    def test_continuity_at_knot_crossings(self):
        kv = make_knots((0.0, 4.0), (1.0, 2.0, 3.0), order=4)
        for knot in (1.0, 2.0, 3.0):
            at = eval_basis(kv, knot)
            for h in (1e-4, 1e-6, 1e-8):
                assert np.abs(eval_basis(kv, knot + h) - at).max() <= 10 * h
                assert np.abs(eval_basis(kv, knot - h) - at).max() <= 10 * h

    def test_out_of_domain(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        with pytest.raises(OutOfDomain):
            eval_basis(kv, -0.1)
        with pytest.raises(OutOfDomain):
            eval_basis(kv, 1.1)


class TestBasisMatrix:
    def test_shape(self):
        kv = make_knots((0.0, 1.0), (0.25, 0.5, 0.75), order=4)
        grid = np.linspace(0.0, 1.0, 13)
        mat = basis_matrix(kv, grid)
        assert mat.values.shape == (13, 7)

    def test_single_point_grid(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        mat = basis_matrix(kv, [0.0])
        npt.assert_array_equal(mat.values[0], eval_basis(kv, 0.0))

    def test_rows_sum_to_one(self):
        kv = make_knots((0.0, 4.0), (1.0, 2.0, 3.0), order=4)
        mat = basis_matrix(kv, np.linspace(0.0, 4.0, 41))
        npt.assert_allclose(mat.values.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mat.values >= 0) and np.all(mat.values <= 1)

    def test_tiny_knot_span_stays_finite(self):
        # (t - knot) / span overflows to inf on a subnormal span; the term it
        # multiplies is zero there and must not turn the row into nan
        kv = make_knots((0.0, 1.0), (5e-324, 0.5), order=2)
        mat = basis_matrix(kv, [0.0, 5e-324, 0.5, 1.0]).values
        assert np.all(np.isfinite(mat)) and np.all(mat >= 0.0)
        npt.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_propagates_out_of_domain(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        with pytest.raises(OutOfDomain):
            basis_matrix(kv, [0.0, 1.2])


class TestSmoothing:
    def test_constant_reproduced(self):
        kv = make_knots((0.0, 1.0), (0.3, 0.6), order=4)
        grid = np.linspace(0.0, 1.0, 20)
        curve = smooth_least_squares(np.full(20, 3.7), basis_matrix(kv, grid))
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(eval_curve(curve, t) - 3.7) <= 1e-12

    def test_cubic_polynomial_exact(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 30)
        for _ in range(10):
            interior = np.sort(rng.uniform(0.1, 0.9, int(rng.integers(1, 5))))
            if np.any(np.diff(interior) <= 0):
                continue
            kv = make_knots((0.0, 1.0), interior, order=4)
            coeffs = rng.normal(size=4)
            samples = np.polyval(coeffs, grid)
            phi = basis_matrix(kv, grid)
            curve = smooth_least_squares(samples, phi)
            resid = phi.values @ curve.coefficients - samples
            assert np.abs(resid).max() <= 1e-9

    def test_normal_equation_gradient_vanishes(self):
        rng = np.random.default_rng(6)
        kv = make_knots((0.0, 1.0), (0.25, 0.5, 0.75), order=4)
        grid = np.linspace(0.0, 1.0, 25)
        phi = basis_matrix(kv, grid)
        y = rng.normal(size=25)
        curve = smooth_least_squares(y, phi)
        grad = 2 * phi.values.T @ phi.values @ curve.coefficients - 2 * phi.values.T @ y
        assert np.linalg.norm(grad) < 1e-8

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(7)
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        grid = np.linspace(0.0, 1.0, 40)
        phi = basis_matrix(kv, grid)
        y = np.sin(2 * np.pi * grid) + 0.1 * rng.normal(size=40)
        curve = smooth_least_squares(y, phi)

        def sse(c):
            r = y - phi.values @ c
            return float(r @ r)

        best = sse(curve.coefficients)
        for _ in range(50):
            probe = curve.coefficients + rng.normal(scale=1e-3, size=kv.num_basis)
            assert best <= sse(probe) + 1e-12

    def test_underdetermined(self):
        kv = make_knots((0.0, 1.0), (0.25, 0.5, 0.75), order=4)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(Underdetermined):
            smooth_least_squares(np.ones(5), basis_matrix(kv, grid))

    def test_ill_conditioned_design(self):
        # all samples at one point: rank-1 design
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        grid = np.full(10, 0.3)
        with pytest.raises(IllConditioned):
            smooth_least_squares(np.ones(10), basis_matrix(kv, grid))

    def test_sample_count_mismatch(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        phi = basis_matrix(kv, np.linspace(0, 1, 8))
        with pytest.raises(ShapeError):
            smooth_least_squares(np.ones(7), phi)


class TestEvalCurve:
    def test_constant_coefficients(self):
        kv = make_knots((0.0, 2.0), (1.0,), order=4)
        curve = SmoothCurve(np.full(kv.num_basis, 2.5), kv)
        for t in np.linspace(0.0, 2.0, 9):
            assert abs(eval_curve(curve, t) - 2.5) <= 1e-12

    def test_matches_design_rows(self):
        rng = np.random.default_rng(8)
        kv = make_knots((0.0, 1.0), (0.4, 0.7), order=4)
        grid = np.linspace(0.0, 1.0, 15)
        phi = basis_matrix(kv, grid)
        curve = smooth_least_squares(rng.normal(size=15), phi)
        fitted = phi.values @ curve.coefficients
        for j, t in enumerate(grid):
            assert eval_curve(curve, t) == pytest.approx(fitted[j], abs=1e-12)

    def test_zero_coefficients(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        curve = SmoothCurve(np.zeros(4), kv)
        assert eval_curve(curve, 0.37) == 0.0

    def test_out_of_domain(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        curve = SmoothCurve(np.zeros(4), kv)
        with pytest.raises(OutOfDomain):
            eval_curve(curve, 2.0)


def _scalar_indicator_row(knots, t):
    """Order-1 values as the point-by-point code found them: the owning
    interval by searchsorted plus a backward walk over zero-width intervals."""
    j = int(np.searchsorted(knots, t, side="right")) - 1
    j = min(j, len(knots) - 2)
    while j > 0 and knots[j + 1] <= knots[j]:
        j -= 1
    row = np.zeros(knots.size - 1)
    row[j] = 1.0
    return row


def _scalar_recurrence_row(kv, t):
    """The point-by-point evaluation the vectorised pass replaced: one Python
    loop per order raise."""
    knots = kv.extended
    row = _scalar_indicator_row(knots, t)
    for order in range(2, kv.order + 1):
        count = knots.size - order
        out = np.zeros(count)
        for l in range(count):
            acc = 0.0
            left_span = knots[l + order - 1] - knots[l]
            if left_span > 0.0:
                acc += (t - knots[l]) / left_span * row[l]
            right_span = knots[l + order] - knots[l + 1]
            if right_span > 0.0:
                acc += (knots[l + order] - t) / right_span * row[l + 1]
            out[l] = acc
        row = out
    return row


class TestVectorisedPassExact:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("domain, interior", [
        ((0.0, 1.0), ()), ((0.0, 1.0), (0.5,)), ((0.0, 1.0), (0.1, 0.25, 0.7)),
        ((-0.5, 1.0), (-0.3, 0.2, 0.6, 0.95)),
    ])
    def test_matches_scalar_recurrence_bit_for_bit(self, order, domain, interior):
        a, b = domain
        kv = make_knots(domain, interior, order)
        rng = np.random.default_rng(order)
        # both endpoints, every interior knot and its float neighbours
        knots = np.asarray(interior, dtype=float)
        grid = np.concatenate([[a, b, b, a], knots, np.nextafter(knots, a),
                               np.nextafter(knots, b), rng.uniform(a, b, 40)])
        expected = np.array([_scalar_recurrence_row(kv, t) for t in grid])
        assert basis_matrix(kv, grid).values.tobytes() == expected.tobytes()
        for t in grid[:8]:
            assert eval_basis(kv, t).tobytes() == _scalar_recurrence_row(kv, t).tobytes()

    def test_random_knots_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            kv = _random_knots(rng)
            a, b = kv.domain
            grid = np.concatenate([[a, b], kv.interior, rng.uniform(a, b, 25)])
            expected = np.array([_scalar_recurrence_row(kv, t) for t in grid])
            assert basis_matrix(kv, grid).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_order1_rows_match_scalar_indicators(self, order):
        kv = make_knots((0.0, 1.0), (0.25, 0.5), order=order)
        for t in (0.0, 0.1, 0.25, np.nextafter(0.25, 0.0), 0.4, 0.5, 0.9, 1.0):
            expected = _scalar_indicator_row(kv.extended, t)
            assert eval_basis_order1(kv, t).tobytes() == expected.tobytes()

    def test_out_of_domain_messages(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        with pytest.raises(OutOfDomain, match=r"^t = 1\.2 outside the domain \[0\.0, 1\.0\]$"):
            basis_matrix(kv, [0.0, 0.5, 1.2, -3.0])
        with pytest.raises(OutOfDomain, match=r"^t = -3\.0 outside the domain \[0\.0, 1\.0\]$"):
            basis_matrix(kv, [[0.0, -3.0], [1.2, 0.5]])
        with pytest.raises(OutOfDomain, match=r"^t = nan outside the domain \[0\.0, 1\.0\]$"):
            basis_matrix(kv, [0.3, np.nan])
        with pytest.raises(OutOfDomain, match=r"^t = 2 outside the domain \[0\.0, 1\.0\]$"):
            eval_basis(kv, 2)
        with pytest.raises(OutOfDomain, match=r"^t = -0\.5 outside the domain \[0\.0, 1\.0\]$"):
            eval_basis_order1(kv, -0.5)
