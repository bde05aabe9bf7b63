"""Tests for dissimilarity construction and validation."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    ConfigError,
    DegenerateSeries,
    DissimilarityMatrix,
    DissimilarityTensor,
    ObjectPanel,
    ShapeError,
    SyntheticScenario,
    WindowTooLong,
    correlation,
    correlation_dissimilarity,
    euclidean_dissimilarity,
    generate,
    rolling_dissimilarity_tensor,
    validate,
)
from fmds.dissimilarity import _pair_starts, _power_of_two_scale
from fmds.io import ingest_tensor, write_tensor


def _panel(values, grid=None):
    values = np.asarray(values, dtype=float)
    grid = np.arange(1.0, values.shape[1] + 1.0) if grid is None else np.asarray(grid)
    labels = tuple(f"s{i + 1}" for i in range(values.shape[0]))
    return ObjectPanel(labels, values, grid)


class TestEuclidean:
    def test_3_4_5(self):
        d = euclidean_dissimilarity([[0.0, 0.0], [3.0, 4.0]])
        assert d.values[0, 1] == 5.0

    def test_identical_points(self):
        d = euclidean_dissimilarity([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        npt.assert_array_equal(d.values, np.zeros((3, 3)))

    def test_unit_equilateral_triangle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
        d = euclidean_dissimilarity(pts)
        off = d.values[np.triu_indices(3, 1)]
        npt.assert_allclose(off, 1.0, atol=1e-15)

    def test_exact_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        d = euclidean_dissimilarity(pts)
        assert np.array_equal(d.values, d.values.T)
        assert np.all(np.diag(d.values) == 0.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = euclidean_dissimilarity(rng.normal(size=(6, 4)))
            report = validate(d, tol=1e-12)
            assert report.triangle_inequality

    def test_ragged_input_rejected(self):
        with pytest.raises(ShapeError):
            euclidean_dissimilarity([[0.0, 1.0], [2.0]])

    def test_single_object_rejected(self):
        with pytest.raises(ShapeError):
            euclidean_dissimilarity([[0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_named_without_a_warning(self, bad):
        pts = np.zeros((4, 2))
        pts[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError) as info:
                euclidean_dissimilarity(pts)
        assert str(info.value) == "points contain non-finite entries"

    @pytest.mark.parametrize("n", [2, 9, 40])
    @pytest.mark.parametrize("r", [1, 2, 3, 7, 8, 9])
    def test_bitwise_equal_to_the_last_axis_sum(self, n, r):
        rng = np.random.default_rng(10 * n + r)
        pts = rng.normal(size=(n, r)) * 10.0 ** rng.integers(-3, 4, size=r)
        diff = pts[:, None, :] - pts[None, :, :]
        expected = np.sqrt((diff * diff).sum(axis=-1))
        assert np.array_equal(euclidean_dissimilarity(pts).values, expected)

    @pytest.mark.parametrize("r", [1, 2, 3, 9])
    def test_finite_sums_of_squares_keep_their_bits(self, r):
        # squares from overflow's edge down into the subnormals, all finite
        rng = np.random.default_rng(r)
        pts = rng.normal(size=(12, r)) * 10.0 ** rng.integers(-170, 150, size=(12, r))
        diff = pts[:, None, :] - pts[None, :, :]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = np.sqrt((diff * diff).sum(axis=-1))
        assert np.isfinite(expected).all()
        assert np.array_equal(euclidean_dissimilarity(pts).values, expected)

    def test_distances_whose_squares_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = euclidean_dissimilarity([[1e200, 0], [0, 0], [0, 1e-200]]).values
            assert euclidean_dissimilarity([[3e200, 4e200], [0, 0]]).values[0, 1] == \
                pytest.approx(5e200, rel=1e-15)
        assert np.array_equal(got, got.T) and not got.diagonal().any()
        # each pair is scaled on its own, so the tiny distance is exact too
        assert (got[0, 1], got[0, 2], got[1, 2]) == (1e200, 1e200, 1e-200)

    @pytest.mark.parametrize("pts", [[[1e308, 0], [-1e308, 0]], [[1.5e308, 1.5e308], [0, 0]]])
    def test_distance_beyond_the_double_range_rejected(self, pts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="non-finite"):
                euclidean_dissimilarity(pts)

    def test_distances_whose_squares_underflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = euclidean_dissimilarity([[1e-200, 0], [0, 0]]).values
            both = euclidean_dissimilarity([[1e-160, 1e-160], [0, 0]]).values
        assert tiny[0, 1] == tiny[1, 0] == 1e-200
        expected = np.hypot(1e-160, 1e-160)
        assert both[0, 1] == both[1, 0]
        assert abs(both[0, 1] - expected) <= np.spacing(expected)


class TestCorrelation:
    def test_perfect_positive(self):
        y = np.array([1.0, 3.0, 2.0, 5.0])
        assert correlation(y, 2.0 * y + 1.0) == pytest.approx(1.0)

    def test_perfect_negative(self):
        y = np.array([1.0, 3.0, 2.0, 5.0])
        assert correlation(y, -y) == pytest.approx(-1.0)

    def test_hand_value(self):
        # centered series (-1, 0, 1) and (-1, 1, 0): dot 1, norms sqrt(2) each
        assert correlation([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeries):
            correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_sum_of_squares_beyond_float_range(self, scale):
        # the sum of squares of the first series overflows (underflows) unless
        # it is scaled first
        expected = correlation([1.0, -1.0, 1.0], [1.0, 2.0, 4.0])
        got = correlation([scale, -scale, scale], [1.0, 2.0, 4.0])
        assert got == pytest.approx(expected, rel=1e-15)
        panel = _panel([[scale, -scale, scale], [1.0, 2.0, 4.0]])
        tensor = rolling_dissimilarity_tensor(panel, "correlation", 3)
        assert tensor._pairs[0, 0] == pytest.approx((1.0 - expected) / 2.0, rel=1e-15)
        assert tensor._pairs[0, 0] == pytest.approx(0.40550888, abs=1e-8)
        assert correlation_dissimilarity(panel, (0, 3)).values[0, 1] == tensor._pairs[0, 0]

    def test_inputs_left_unscaled(self):
        a, b = np.array([4.0, 1.0, 3.0]), np.array([1.0, 2.0, 8.0])
        correlation(a, b)
        assert a.tolist() == [4.0, 1.0, 3.0] and b.tolist() == [1.0, 2.0, 8.0]

    def test_subnormal_series(self):
        # the largest magnitude is subnormal, so the power of two that scales
        # it into [0.5, 1) is beyond the double range; ldexp applies it anyway
        series = [5e-324, 0.0, 1e-323]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = correlation(series, [1.0, 2.0, 3.0])
            tensor = rolling_dissimilarity_tensor(_panel([series, [1.0, 2.0, 3.0]]),
                                                  "correlation", 3)
        assert got == correlation([1.0, 0.0, 2.0], [1.0, 2.0, 3.0]) == 0.5
        low, high = np.array(series), np.array([1.0, 0.0, 2.0])
        _power_of_two_scale(low)
        _power_of_two_scale(high)
        assert np.array_equal(low, high)
        # the same scaled series, so the same bits as the normal panel's
        normal = rolling_dissimilarity_tensor(_panel([[1.0, 0.0, 2.0], [1.0, 2.0, 3.0]]),
                                              "correlation", 3)
        assert np.isfinite(tensor._pairs).all()
        assert np.array_equal(tensor._pairs, normal._pairs)


class TestCorrelationDissimilarity:
    def test_perfectly_correlated_pair(self):
        base = np.array([1.0, 2.0, 4.0, 3.0])
        panel = _panel([base, 3.0 * base + 2.0])
        d = correlation_dissimilarity(panel, (0, 4))
        assert d.values[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_anticorrelated_pair(self):
        base = np.array([1.0, 2.0, 4.0, 3.0])
        panel = _panel([base, -base])
        d = correlation_dissimilarity(panel, (0, 4))
        assert d.values[0, 1] == pytest.approx(1.0)

    def test_uncorrelated_pair(self):
        # orthogonal centered series have zero correlation
        panel = _panel([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
        d = correlation_dissimilarity(panel, (0, 4))
        assert d.values[0, 1] == pytest.approx(0.5)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(2)
        panel = _panel(rng.normal(size=(5, 12)))
        d = correlation_dissimilarity(panel, (0, 12))
        assert np.all(d.values >= 0.0) and np.all(d.values <= 1.0)
        assert np.array_equal(d.values, d.values.T)

    def test_degenerate_names_object(self):
        panel = _panel([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        with pytest.raises(DegenerateSeries, match="s2"):
            correlation_dissimilarity(panel, (0, 3))

    def test_window_too_short(self):
        panel = _panel([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        with pytest.raises(ConfigError):
            correlation_dissimilarity(panel, (0, 1))


class TestTensorArray:
    @pytest.mark.parametrize(
        "grid, values",
        [
            ([0.0, 1.0], np.zeros((2, 3))),
            ([0.0, 1.0], np.zeros((2, 3, 4))),
            ([0.0, 1.0], np.array([[[0.0, np.nan], [np.nan, 0.0]]] * 2)),
            ([0.0, 1.0], np.array([[[0.0, np.inf], [np.inf, 0.0]]] * 2)),
            ([0.0, 1.0], np.array([[[0.0, np.inf], [-np.inf, 0.0]]] * 2)),
            ([0.0, 1.0], np.array([[[1e308, 1e308], [np.nan, 0.0]]] * 2)),
            ([0.0, 1.0, 2.0], np.zeros((2, 3, 3))),
            ([0.0], np.zeros((2, 3, 3))),
            ([0.0, 0.0], np.zeros((2, 3, 3))),
            ([1.0, 0.0], np.zeros((2, 3, 3))),
            ([], np.zeros((0, 3, 3))),
        ],
        ids=["not-3d", "non-square", "nan", "inf", "inf-and-minus-inf", "nan-after-overflow",
             "long-grid", "short-grid", "repeated-time", "decreasing-grid", "empty"],
    )
    def test_rejects(self, grid, values):
        with pytest.raises(ShapeError):
            DissimilarityTensor(grid, values)

    @pytest.mark.parametrize("values", [np.array([[0.0, np.nan], [np.nan, 0.0]]),
                                        np.array([[0.0, np.inf], [-np.inf, 0.0]]),
                                        np.array([[1e308, 1e308], [np.inf, 0.0]])])
    def test_matrix_rejects_non_finite(self, values):
        with pytest.raises(ShapeError):
            DissimilarityMatrix(values)

    def test_finite_values_whose_sum_overflows_accepted(self):
        # the sum overflows, so the entrywise check decides
        values = np.array([[[0.0, 1e308], [1e308, 0.0]]] * 2)
        assert DissimilarityTensor([0.0, 1.0], values).values.tobytes() == values.tobytes()
        assert np.shares_memory(DissimilarityMatrix(values[0]).values, values)

    @pytest.mark.parametrize(
        "entry, change",
        [((0, 0, 2), 0.5), ((1, 2, 1), 5e-324), ((0, 1, 0), np.nan),
         ((0, 0, 0), 5e-324), ((1, 2, 2), np.nan), ((0, 1, 1), -1.0)],
        ids=["upper", "lower-subnormal", "lower-nan", "diagonal-subnormal", "diagonal-nan",
             "diagonal-negative"],
    )
    def test_rejects_asymmetric_or_nonzero_diagonal(self, entry, change):
        values = np.zeros((2, 3, 3))
        values[:, 0, 1] = values[:, 1, 0] = 1.0
        values[entry] += change
        with pytest.raises(ShapeError, match="symmetric with a zero diagonal"):
            DissimilarityTensor([0.0, 1.0], values)

    def test_on_grid_keeps_the_values_and_checks_only_the_grid(self):
        values = np.zeros((3, 2, 2))
        tensor = DissimilarityTensor([1.0, 2.0, 4.0], values)
        moved = tensor._on_grid(np.array([0.0, 0.5, 1.5]))
        assert moved._pairs is tensor._pairs
        assert moved.values.tobytes() == values.tobytes()
        npt.assert_array_equal(moved.time_grid, [0.0, 0.5, 1.5])
        npt.assert_array_equal(tensor.time_grid, [1.0, 2.0, 4.0])
        for grid in ([0.0, 0.0, 1.0], [0.0, 1.0], [2.0, 1.0, 0.0]):
            with pytest.raises(ShapeError):
                tensor._on_grid(grid)

    def test_values_copied_and_rebuilt_exactly(self):
        rng = np.random.default_rng(8)
        values = np.stack([euclidean_dissimilarity(rng.normal(size=(4, 2))).values
                           for _ in range(3)])
        tensor = DissimilarityTensor([0.0, 1.0, 2.0], values)
        assert not np.shares_memory(tensor._pairs, values)
        assert tensor._pairs.shape == (6, 3)
        assert tensor.values.tobytes() == values.tobytes()
        assert tensor.n == 4 and tensor.num_times == 3

    @pytest.mark.parametrize("make", ["correlation", "euclidean", "ingest"])
    def test_condensed_tensors_build_values_only_when_read(self, tmp_path, monkeypatch, make):
        from fmds import dissimilarity

        if make == "ingest":
            _, generated, _ = generate(SyntheticScenario("smooth_rotation", n=5, m=6, seed=2))
            write_tensor(generated, tmp_path / "t.csv")
            tensor = ingest_tensor(tmp_path / "t.csv")
        else:
            rng = np.random.default_rng(6)
            tensor = rolling_dissimilarity_tensor(_panel(rng.normal(size=(5, 9))), make, 4)
        built = []
        slice_blocks = dissimilarity._slice_blocks
        monkeypatch.setattr(dissimilarity, "_slice_blocks",
                            lambda *args: built.append(args) or slice_blocks(*args))
        moved = tensor._on_grid(np.linspace(0.0, 1.0, 6))
        assert (tensor.n, tensor.num_times, tensor.time_grid.size) == (5, 6, 6)
        assert (moved.n, moved.num_times) == (5, 6)
        # one (pairs, m) array of the entries h < j, shared by the moved tensor
        assert tensor._pairs.shape == (10, 6) and moved._pairs is tensor._pairs
        assert built == []
        values = tensor.values
        assert len(built) == 1 and tensor.stacked() is values and tensor.values is values
        h, j = np.triu_indices(5, 1)
        assert np.array_equal(values.transpose(1, 2, 0)[h, j], tensor._pairs)
        assert np.array_equal(values, values.transpose(0, 2, 1))
        assert not np.diagonal(values, axis1=1, axis2=2).any()

    def test_condensed_values_checked(self):
        pairs = np.array([[0.5, np.inf]])
        with pytest.raises(ShapeError, match="non-finite"):
            DissimilarityTensor._from_pairs([0.0, 1.0], pairs, 2)
        with pytest.raises(ShapeError, match="one matrix per time point"):
            DissimilarityTensor._from_pairs([0.0], pairs, 2)

    def test_stacked_is_the_array(self, tmp_path):
        rng = np.random.default_rng(5)
        panel = _panel(rng.normal(size=(4, 9)))
        _, generated, _ = generate(SyntheticScenario("smooth_rotation", n=4, m=6, seed=1))
        write_tensor(generated, tmp_path / "t.csv")
        tensors = [
            rolling_dissimilarity_tensor(panel, "correlation", 3, 2),
            rolling_dissimilarity_tensor(panel, "euclidean", 1),
            generated,
            ingest_tensor(tmp_path / "t.csv"),
        ]
        for tensor in tensors:
            assert np.shares_memory(tensor.stacked(), tensor.values)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pair_starts_follow_triu_indices(self, n):
        starts = _pair_starts(n)
        h, j = np.triu_indices(n, 1)
        assert len(starts) == n and starts[0] == 0 and starts[-1] == len(h)
        # row for row: object a's pairs (a, a + 1), ..., (a, n - 1) are the
        # rows from starts[a] to the next object's start
        for a in range(n - 1):
            rows = slice(starts[a], starts[a + 1])
            assert h[rows].tolist() == [a] * (n - 1 - a)
            assert j[rows].tolist() == list(range(a + 1, n))


class TestRollingTensor:
    def test_full_window_single_slice(self):
        rng = np.random.default_rng(3)
        panel = _panel(rng.normal(size=(4, 9)))
        tensor = rolling_dissimilarity_tensor(panel, "correlation", 9, 1)
        assert tensor.num_times == 1
        full = correlation_dissimilarity(panel, (0, 9))
        npt.assert_array_equal(tensor.values[0], full.values)
        assert tensor.time_grid[0] == panel.time_grid[-1]

    def test_pointwise_euclidean(self):
        panel = _panel([[0.0, 1.0, 4.0], [2.0, 3.0, 1.0]])
        tensor = rolling_dissimilarity_tensor(panel, "euclidean", 1, 1)
        assert tensor.num_times == 3
        expected = np.abs(panel.values[0] - panel.values[1])
        got = np.array([s[0, 1] for s in tensor.values])
        npt.assert_allclose(got, expected)

    def test_disjoint_weeks_pattern(self):
        rng = np.random.default_rng(4)
        panel = _panel(rng.normal(size=(3, 10)))
        tensor = rolling_dissimilarity_tensor(panel, "correlation", 5, 5)
        assert tensor.num_times == 2
        npt.assert_array_equal(tensor.time_grid, panel.time_grid[[4, 9]])

    def test_window_too_long(self):
        panel = _panel(np.zeros((2, 4)) + [[0.0], [1.0]])
        with pytest.raises(WindowTooLong):
            rolling_dissimilarity_tensor(panel, "euclidean", 5, 1)

    def test_bad_stride(self):
        panel = _panel([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            rolling_dissimilarity_tensor(panel, "euclidean", 1, 0)

    def test_unknown_metric(self):
        panel = _panel([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            rolling_dissimilarity_tensor(panel, "cosine", 1, 1)

    @pytest.mark.parametrize("metric", ["correlation", "euclidean"])
    def test_one_object_refused(self, metric):
        # a one-object panel has no pairs, whichever metric builds them
        panel = _panel([[0.0, 1.0, 3.0, 2.0]])
        with pytest.raises(ShapeError, match=r"^need at least 2 objects, got 1$"):
            rolling_dissimilarity_tensor(panel, metric, 3, 1)


class TestValidate:
    def test_euclidean_passes_all(self):
        rng = np.random.default_rng(5)
        report = validate(euclidean_dissimilarity(rng.normal(size=(5, 2))))
        assert report.passed and report.triangle_inequality

    def test_asymmetry_flagged(self):
        vals = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = validate(DissimilarityMatrix(vals))
        assert not report.symmetric
        assert report.max_asymmetry == pytest.approx(1.0)
        assert report.nonnegative and report.zero_diagonal

    def test_correlation_triangle_violation(self):
        # three series built by a Cholesky factor over orthonormal centered
        # vectors, hitting correlations R12 = R23 = 0.9, R13 = 0.7; then
        # d13 = 0.15 > d12 + d23 = 0.10
        target = np.array([[1.0, 0.9, 0.7], [0.9, 1.0, 0.9], [0.7, 0.9, 1.0]])
        chol = np.linalg.cholesky(target)
        base = 0.5 * np.array(
            [[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
        )
        panel = _panel(chol @ base)
        d = correlation_dissimilarity(panel, (0, 4))
        npt.assert_allclose(
            d.values, [[0, 0.05, 0.15], [0.05, 0, 0.05], [0.15, 0.05, 0]], atol=1e-12
        )
        report = validate(d)
        assert report.passed
        assert not report.triangle_inequality
        assert report.max_triangle_violation == pytest.approx(0.05, abs=1e-12)

    def test_permutation_conjugation(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        direct = euclidean_dissimilarity(pts[perm]).values
        conjugated = euclidean_dissimilarity(pts).values[np.ix_(perm, perm)]
        npt.assert_array_equal(direct, conjugated)


class TestPanelValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ShapeError):
            ObjectPanel(("a", "a"), np.zeros((2, 3)), np.arange(3.0))

    def test_nan_rejected(self):
        vals = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(ShapeError):
            ObjectPanel(("a", "b"), vals, np.arange(2.0))

    def test_nonincreasing_grid(self):
        with pytest.raises(ShapeError):
            ObjectPanel(("a", "b"), np.zeros((2, 2)), np.array([1.0, 1.0]))


def _pair_loop_slice(panel, start, stop):
    """The i<j pair loop the vectorised correlation slice replaced."""
    segment = panel.values[:, start:stop]
    centered = segment - segment.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered * centered).sum(axis=1))
    out = np.zeros((panel.n, panel.n))
    for i in range(panel.n):
        for j in range(i + 1, panel.n):
            r = float(centered[i] @ centered[j]) / (scale[i] * scale[j])
            d = (1.0 - float(np.clip(r, -1.0, 1.0))) / 2.0
            out[i, j] = d
            out[j, i] = d
    return out


class TestCorrelationExact:
    # a gemm Gram matrix differs from the per-pair dot products in the last
    # bits at windows like these
    @pytest.mark.parametrize("window", [2, 3, 10, 16, 33, 100, 120])
    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_rolling_matches_pair_loop(self, window, stride):
        rng = np.random.default_rng(window * 10 + stride)
        values = np.cumsum(rng.normal(size=(9, 120)), axis=1) * rng.uniform(0.01, 100.0, (9, 1))
        values[4] = -0.5 * values[2] + 3.0
        panel = _panel(values)
        tensor = rolling_dissimilarity_tensor(panel, "correlation", window, stride)
        starts = range(0, 120 - window + 1, stride)
        expected = np.array([_pair_loop_slice(panel, s, s + window) for s in starts])
        assert np.array_equal(tensor.stacked(), expected)
        single = correlation_dissimilarity(panel, (starts[-1], starts[-1] + window)).values
        assert np.array_equal(single, expected[-1])
        assert np.array_equal(single, single.T) and np.all(np.diag(single) == 0.0)

    def test_block_items_stay_under_the_mmap_threshold(self):
        from fmds.dissimilarity import _BLOCK_BYTES, _block_items

        # a slice, or a window of 10, at n = 40; a slice at n = 100
        assert [_block_items(8 * 40 * 40), _block_items(8 * 100 * 100)] == [10, 1]
        for item_bytes in range(8, 2 * _BLOCK_BYTES, 8):
            items = _block_items(item_bytes)
            # as many as fit with malloc's 16-byte header, or one that does not
            assert items == 1 or items * item_bytes + 16 < _BLOCK_BYTES
            assert (items + 1) * item_bytes + 16 >= _BLOCK_BYTES

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_blocks_match_single_windows(self, stride):
        from fmds.dissimilarity import _block_items

        rng = np.random.default_rng(40 + stride)
        n, window = 40, 10
        step = _block_items(8 * n * max(n, window))
        m = window + stride * (2 * step + 4)
        values = np.cumsum(rng.normal(size=(n, m)), axis=1)
        panel = _panel(values)
        tensor = rolling_dissimilarity_tensor(panel, "correlation", window, stride)
        starts = range(0, m - window + 1, stride)
        # two full blocks and a short one
        assert len(starts) == 2 * step + 5
        expected = [correlation_dissimilarity(panel, (s, s + window)).values for s in starts]
        assert np.array_equal(tensor.values, expected)
        assert np.array_equal(tensor.values[-1], _pair_loop_slice(panel, starts[-1], m))

        # objects 13 and 6 turn constant in one window of the second block
        first = starts[step + 3]
        values[12, first:first + window + 4] = 1.0
        values[5, first:first + window] = 2.0
        panel = _panel(values)
        with pytest.raises(DegenerateSeries) as err:
            rolling_dissimilarity_tensor(panel, "correlation", window, stride)
        assert str(err.value) == f"object 's6' is constant on window ({first}, {first + window})"
        messages = []
        for s in starts:
            try:
                correlation_dissimilarity(panel, (s, s + window))
            except DegenerateSeries as single:
                messages.append(str(single))
                break
        assert messages == [str(err.value)]

    def test_degenerate_message_names_first_constant_object(self):
        panel = _panel([[1.0, 2.0, 3.0, 5.0], [4.0, 4.0, 4.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
        with pytest.raises(DegenerateSeries) as err:
            correlation_dissimilarity(panel, (0, 3))
        assert str(err.value) == "object 's2' is constant on window (0, 3)"
        with pytest.raises(DegenerateSeries) as err:
            rolling_dissimilarity_tensor(panel, "correlation", 2, 1)
        assert str(err.value) == "object 's2' is constant on window (0, 2)"
        with pytest.raises(DegenerateSeries) as err:
            correlation_dissimilarity(panel, (1, 4))
        assert str(err.value) == "object 's3' is constant on window (1, 4)"


def _cubic_validate(vals):
    """The n^3 triangle probe the chunked one replaced, with the same checks."""
    via = vals[:, None, :] + vals.T[None, :, :]
    slack = vals[:, :, None] - via
    return (float(max(0.0, -vals.min())), float(np.abs(np.diag(vals)).max()),
            float(np.abs(vals - vals.T).max()), float(max(0.0, slack.max())))


class TestValidateMemory:
    def test_matches_cubic_probe(self):
        rng = np.random.default_rng(7)
        matrices = [rng.uniform(0.0, 1.0, (6, 6)), euclidean_dissimilarity(rng.normal(size=(8, 2))).values,
                    correlation_dissimilarity(_panel(rng.normal(size=(12, 5))), (0, 5)).values,
                    np.array([[0.0, 1.0], [2.0, 0.0]]), np.zeros((1, 1))]
        for vals in matrices:
            report = validate(DissimilarityMatrix(vals))
            got = (report.max_negative, report.max_diagonal, report.max_asymmetry,
                   report.max_triangle_violation)
            assert got == _cubic_validate(vals)

    def test_peak_memory_quadratic(self):
        import tracemalloc

        rng = np.random.default_rng(8)
        matrix = euclidean_dissimilarity(rng.normal(size=(300, 3)))
        tracemalloc.start()
        try:
            report = validate(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n^3 probe needed two 206 MiB arrays at n=300
        assert peak < 16 * 2**20
        assert report.passed and report.triangle_inequality
