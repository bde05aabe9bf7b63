"""Tests for the trajectory-fitting engine: objective, gradients, warm start,
and the pairwise Adam loop."""

import functools
import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    CoefficientSet,
    ConfigError,
    DissimilarityMatrix,
    DissimilarityTensor,
    DivergedError,
    FitConfig,
    InsufficientObjects,
    OutOfDomain,
    ShapeError,
    SyntheticScenario,
    Underdetermined,
    basis_matrix,
    euclidean_dissimilarity,
    evaluate_trajectories,
    fit,
    generate,
    init_from_cmds,
    init_random,
    make_knots,
    pair_gradients,
    pair_stress,
    stress,
)
from fmds.fitting import (
    _LEAF,
    EmbeddingTrajectory,
    FitResult,
    _collapsed_stress,
    _full_gradients,
    _PairwiseAdam,
    _pair_grad,
    _stress_value,
    _sum_rows,
    _tree_sum,
)
from fmds.reference import AdamState, central_difference_gradient, naive_stress_and_grad


def _tensor_from_positions(positions, grid):
    """positions: (n, m, p) -> tensor of per-slice Euclidean distances."""
    values = np.stack(
        [euclidean_dissimilarity(positions[:, k, :]).values for k in range(len(grid))]
    )
    return DissimilarityTensor(grid, values)


def _random_instance(rng, n=None, m=None, p=None, interior=1):
    n = n or int(rng.integers(3, 6))
    m = m or int(rng.integers(4, 9))
    p = p or int(rng.integers(1, 4))
    kv = make_knots((0.0, 1.0), np.linspace(0, 1, interior + 2)[1:-1], order=4)
    grid = np.linspace(0.0, 1.0, m)
    values = np.stack(
        [euclidean_dissimilarity(rng.uniform(size=(n, max(p, 2)))).values for _ in range(m)]
    )
    tensor = DissimilarityTensor(grid, values)
    coeffs = rng.normal(size=(n, p, kv.num_basis)) * 0.5
    return tensor, coeffs, kv


def _linear_line_tensor():
    """Three objects moving linearly on a line: exactly embeddable at p=1."""
    grid = np.linspace(0.0, 1.0, 5)
    positions = np.stack([0.0 * grid, 1.0 + 0.4 * grid, -1.0 - 0.3 * grid])[:, :, None]
    return _tensor_from_positions(positions, grid)


class TestStress:
    def test_coincident_trajectories(self):
        rng = np.random.default_rng(0)
        tensor, coeffs, kv = _random_instance(rng)
        same = np.repeat(coeffs[:1], coeffs.shape[0], axis=0)
        expected = sum(
            float((s[np.triu_indices(tensor.n, 1)] ** 4).sum())
            for s in tensor.values
        )
        assert stress(CoefficientSet(same, kv), tensor) == pytest.approx(expected)

    def test_self_consistent_tensor_gives_zero(self):
        rng = np.random.default_rng(1)
        tensor, coeffs, kv = _random_instance(rng, p=2)
        cs = CoefficientSet(coeffs, kv)
        traj = evaluate_trajectories(cs, tensor.time_grid)
        own = DissimilarityTensor(tensor.time_grid, traj.fitted_dissimilarities)
        assert stress(cs, own) <= 1e-20

    def test_hand_case(self):
        # one time point, scalar embedding, constant basis: (4 - 1)^2 = 9
        kv = make_knots((0.0, 1.0), (), order=1)
        coeffs = CoefficientSet(np.array([[[1.0]], [[0.0]]]), kv)
        tensor = DissimilarityTensor(np.array([0.5]), np.array([[[0.0, 2.0], [2.0, 0.0]]]))
        assert stress(coeffs, tensor) == 9.0

    @pytest.mark.parametrize("n", [2, 7, 40])
    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    def test_bitwise_equal_to_full_tensor_form(self, n, p):
        # the full (n, n, m, p) difference tensor, then its upper triangle;
        # p = 9 reaches numpy's unrolled summation over the last axis
        rng = np.random.default_rng(13 + n + p)
        tensor, coeffs, kv = _random_instance(rng, n=n, m=9, p=p)
        basis = basis_matrix(kv, tensor.time_grid).values
        dsq = tensor.values ** 2
        pos = np.einsum("ipq,kq->ikp", coeffs, basis)
        diff = pos[:, None] - pos[None, :]
        resid = np.moveaxis(dsq, 0, 2) - (diff * diff).sum(axis=-1)
        r = resid[np.triu_indices(tensor.n, 1)]
        assert _stress_value(coeffs, tensor._pairs, basis) == float((r * r).sum())

    @pytest.mark.parametrize("n, m, depth", [(120, 80, 4), (3, 70000, 2), (2, 70000, 1)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bitwise_equal_to_full_residual_sum_over_many_leaves(self, n, m, depth, p):
        # n=120, m=80 gives 571,200 residuals: leaves at depths 3 and 4 of
        # numpy's pairwise tree. At m > _LEAF one pair row spans leaves, and
        # at n = 3 leaves also start and end inside rows
        rng = np.random.default_rng(70 + p)
        tensor, coeffs, kv = _random_instance(rng, n=n, m=m, p=p, interior=6)
        basis = basis_matrix(kv, tensor.time_grid).values
        dsq = np.square(tensor._pairs)
        pos = np.einsum("ipq,kq->ikp", coeffs, basis)
        h, j = np.triu_indices(tensor.n, 1)
        diff = pos[h] - pos[j]
        sq = diff[..., 0] * diff[..., 0]
        for c in range(1, p):
            sq += diff[..., c] * diff[..., c]
        resid = dsq - sq
        assert _tree_depth(resid.size) == depth
        assert _stress_value(coeffs, tensor._pairs, basis) == float((resid * resid).sum())

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8, 9])
    def test_exactly_zero_at_own_squared_distances(self, p):
        # targets whose squares are numpy's own sums over the last axis leave
        # every residual exactly 0 only if the stress adds the p terms in that
        # order. Order-1 splines make each position one coefficient column,
        # exactly, and each column is redrawn until every pair's sum is the
        # square of a float.
        rng = np.random.default_rng(50 + p)
        kv = make_knots((0.0, 1.0), (0.25, 0.5, 0.75), order=1)
        basis = basis_matrix(kv, np.linspace(0.0, 1.0, 9)).values
        assert set(basis.sum(axis=1)) == {1.0} and set(basis.ravel()) == {0.0, 1.0}
        n = 3
        h, j = np.triu_indices(n, 1)
        coeffs = np.empty((n, p, kv.num_basis))
        roots = np.empty((len(h), kv.num_basis))
        reordered = []
        for k in range(kv.num_basis):
            while True:
                pos = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, (n, p))
                terms = (pos[h] - pos[j]) ** 2
                sums = terms.sum(axis=-1)
                root = np.sqrt(sums)
                for candidate in (np.nextafter(root, 0.0), np.nextafter(root, np.inf)):
                    root = np.where(np.square(root) == sums, root, candidate)
                if (np.square(root) == sums).all():
                    break
            coeffs[:, :, k], roots[:, k] = pos, root
            reordered.append(functools.reduce(np.add, terms.T[::-1]) != sums)
        pairs = roots[:, basis.argmax(axis=1)]
        assert _stress_value(coeffs, pairs, basis) == 0.0
        # the test can fail: another order of the terms moves some sums
        assert np.any(reordered) == (p > 2)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (780, 791), (79800, 50), (3, 70000)])
    def test_collapsed_stress_is_the_sum_of_fourth_powers(self, shape):
        # fit's divergence scale, bit for bit
        rng = np.random.default_rng(shape[1])
        pairs = rng.uniform(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
        assert _collapsed_stress(pairs) == np.sum(np.square(np.square(pairs)))

    def test_object_count_mismatch(self):
        rng = np.random.default_rng(2)
        tensor, coeffs, kv = _random_instance(rng, n=4)
        with pytest.raises(ShapeError):
            stress(CoefficientSet(coeffs[:3], kv), tensor)

    def test_grid_outside_domain(self):
        rng = np.random.default_rng(3)
        tensor, coeffs, kv = _random_instance(rng)
        small = make_knots((0.2, 0.8), (), order=4)
        bad = CoefficientSet(coeffs[:, :, :4], small)
        with pytest.raises(OutOfDomain):
            stress(bad, tensor)


def _tree_depth(size):
    half = size // 2 - size // 2 % 8
    return 0 if size <= _LEAF else 1 + max(_tree_depth(half), _tree_depth(size - half))


class TestPairwiseSum:
    """``_tree_sum`` rebuilds numpy's own pairwise summation tree, and
    ``_sum_rows`` sums a row array through it a leaf at a time; a numpy that
    sums in another order fails here before it moves the stress."""

    @staticmethod
    def _tree_sum(values):
        leaves = []

        def leaf_sum(start, size):
            leaves.append((start, size))
            return values[start:start + size].sum()

        total = _tree_sum(0, values.size, leaf_sum)
        # the leaves cover the values once, in order, each at most _LEAF long
        starts, sizes = zip(*leaves)
        assert list(starts) == [0, *itertools.accumulate(sizes[:-1])]
        assert sum(sizes) == values.size and max(sizes) <= _LEAF
        return total

    @staticmethod
    def _sum_rows(values):
        def fill(first, stop, out):
            assert stop - first == len(out) and 0 <= first <= stop <= len(values)
            out[:] = values[first:stop]

        return _sum_rows(values.shape, fill)

    def test_matches_np_sum_on_random_lengths(self):
        rng = np.random.default_rng(90)
        # every depth up to 6, lengths that are not multiples of 8, leaf edges
        sizes = [1, 7, 8, 127, 129, _LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 7, 2 * _LEAF + 9,
                 *rng.integers(1, 3 * 10**6, 24), *rng.integers(1, 3 * _LEAF, 8)]
        for size in sizes:
            values = rng.uniform(size=int(size)) * 10.0 ** rng.integers(-8, 9, int(size))
            assert self._tree_sum(values) == values.sum()
        assert {_tree_depth(int(size)) for size in sizes} == set(range(7))
        assert any(size % 8 for size in sizes if size > _LEAF)

    @pytest.mark.parametrize("shape", [(79800, 50), (780, 791), (4950, 60), (3, 5), (1, 1),
                                       (3, 70000)])
    def test_matches_np_sum_on_condensed_arrays(self, shape):
        rng = np.random.default_rng(shape[0])
        values = rng.uniform(size=shape) ** 4
        assert self._sum_rows(values) == values.sum()
        assert self._sum_rows(values * values) == (values * values).sum()

    def test_empty(self):
        assert _tree_sum(0, 0, lambda start, size: np.empty(0).sum()) == 0.0
        assert self._sum_rows(np.empty((0, 5))) == 0.0


class TestFullGradients:
    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_naive_loops(self, n, p):
        rng = np.random.default_rng(30 + 10 * n + p)
        tensor, coeffs, kv = _random_instance(rng, n=n, p=p, interior=2)
        basis = basis_matrix(kv, tensor.time_grid).values
        got = _full_gradients(coeffs, tensor._pairs, basis)
        _, expected = naive_stress_and_grad(CoefficientSet(coeffs, kv), tensor)
        npt.assert_allclose(got, np.stack(expected), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 9, 40])
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9])
    def test_bitwise_equal_to_row_walk(self, n, p):
        rng = np.random.default_rng(70 + 10 * n + p)
        kv = make_knots((0.0, 1.0), (0.3, 0.6), order=4)
        basis = basis_matrix(kv, np.linspace(0.0, 1.0, 11)).values
        coeffs = rng.normal(size=(n, p, kv.num_basis))
        pairs = rng.uniform(size=(n * (n - 1) // 2, len(basis)))
        # the row walk with numpy's own sum over the coordinates
        pos = np.einsum("ipq,kq->ikp", coeffs, basis)
        force = np.zeros(pos.shape)
        start = 0
        for h in range(n - 1):
            diff = pos[h] - pos[h + 1:]
            rows = np.square(pairs[start:start + n - 1 - h])
            start += n - 1 - h
            diff *= (rows - (diff * diff).sum(axis=-1))[..., None]
            force[h] += diff.sum(axis=0)
            force[h + 1:] -= diff
        expected = -4.0 * np.einsum("ikp,kq->ipq", force, basis)
        assert np.array_equal(_full_gradients(coeffs, pairs, basis), expected)

    def test_peak_memory_is_one_row_of_pairs(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        n, m = 200, 50
        kv = make_knots((0.0, 1.0), np.linspace(0, 1, 7)[1:-1], order=4)
        basis = basis_matrix(kv, np.linspace(0.0, 1.0, m)).values
        coeffs = rng.normal(size=(n, 2, kv.num_basis))
        pairs = rng.uniform(size=(n * (n - 1) // 2, m))
        tracemalloc.start()
        try:
            _full_gradients(coeffs, pairs, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (pairs, m, p) gathers of all pairs at once made 5.1x the targets
        assert peak <= 0.25 * pairs.nbytes


class TestPairStress:
    def test_identical_matrices(self):
        rng = np.random.default_rng(4)
        tensor, coeffs, kv = _random_instance(rng)
        expected = float((tensor.values[:, 0, 1] ** 4).sum())
        assert pair_stress(coeffs[0], coeffs[0], tensor, 0, 1, kv) == pytest.approx(expected)

    def test_decomposition_matches_stress(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tensor, coeffs, kv = _random_instance(rng)
            n = coeffs.shape[0]
            total = stress(CoefficientSet(coeffs, kv), tensor)
            parts = sum(
                pair_stress(coeffs[h], coeffs[j], tensor, h, j, kv)
                for h in range(n) for j in range(h + 1, n)
            )
            assert abs(parts - total) <= 1e-10 * (1 + abs(total))

    def test_hand_case(self):
        kv = make_knots((0.0, 1.0), (), order=1)
        tensor = DissimilarityTensor(np.array([0.5]), np.array([[[0.0, 2.0], [2.0, 0.0]]]))
        assert pair_stress(np.array([[1.0]]), np.array([[0.0]]), tensor, 0, 1, kv) == 9.0

    def test_equal_indices_rejected(self):
        rng = np.random.default_rng(6)
        tensor, coeffs, kv = _random_instance(rng)
        with pytest.raises(ShapeError):
            pair_stress(coeffs[0], coeffs[1], tensor, 1, 1, kv)


class TestPairGradients:
    def test_zero_at_coincidence(self):
        rng = np.random.default_rng(7)
        tensor, coeffs, kv = _random_instance(rng)
        g_h, g_j = pair_gradients(coeffs[0], coeffs[0], tensor, 0, 1, kv)
        npt.assert_array_equal(g_h, np.zeros_like(g_h))
        npt.assert_array_equal(g_j, np.zeros_like(g_j))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tensor, coeffs, kv = _random_instance(rng)
            n = coeffs.shape[0]
            h, j = 0, n - 1
            analytic, _ = pair_gradients(coeffs[h], coeffs[j], tensor, h, j, kv)
            numeric = central_difference_gradient(
                lambda mat: pair_stress(mat, coeffs[j], tensor, h, j, kv), coeffs[h]
            )
            npt.assert_allclose(analytic, numeric, atol=1e-5 * (1 + np.abs(numeric).max()))

    def test_exact_sign_flip(self):
        rng = np.random.default_rng(9)
        tensor, coeffs, kv = _random_instance(rng)
        g_h, g_j = pair_gradients(coeffs[0], coeffs[1], tensor, 0, 1, kv)
        assert np.array_equal(g_j, -g_h)


class TestWarmStart:
    def test_static_tensor_constant_trajectories(self):
        from fmds import classical_mds

        rng = np.random.default_rng(10)
        base = euclidean_dissimilarity(rng.normal(size=(6, 2)))
        grid = np.linspace(0.0, 1.0, 12)
        tensor = DissimilarityTensor(grid, np.stack([base.values] * 12))
        warm = init_from_cmds(tensor, FitConfig(p=2, interior_knots=2))
        expected = classical_mds(base, 2).configuration
        traj = evaluate_trajectories(warm, grid)
        assert np.abs(traj.positions - expected[None]).max() <= 1e-8

    def test_beats_random_initialization(self):
        scen = SyntheticScenario("smooth_rotation", n=5, m=24, seed=6)
        _, tensor, _ = generate(scen)
        warm_value = stress(init_from_cmds(tensor, FitConfig(p=2, interior_knots=2)), tensor)
        for seed in range(20):
            cfg = FitConfig(p=2, interior_knots=2, rng_seed=seed, init_mode="random")
            assert warm_value <= stress(init_random(tensor, cfg), tensor)

    def test_two_objects_reproduce_distance(self):
        grid = np.linspace(0.0, 1.0, 12)
        d12 = 1.0 + 0.5 * np.sin(2 * np.pi * grid)
        values = np.stack([np.array([[0.0, v], [v, 0.0]]) for v in d12])
        tensor = DissimilarityTensor(grid, values)
        warm = init_from_cmds(tensor, FitConfig(p=1, interior_knots=4))
        traj = evaluate_trajectories(warm, grid)
        fitted = traj.fitted_dissimilarities[:, 0, 1]
        # two points embed exactly in one dimension; only smoothing error remains
        assert np.abs(fitted - d12).max() <= 0.01

    def test_underdetermined_grid(self):
        rng = np.random.default_rng(11)
        tensor, _, _ = _random_instance(rng, m=5)
        with pytest.raises(Underdetermined):
            init_from_cmds(tensor, FitConfig(p=2, interior_knots=4))

    @pytest.mark.parametrize("kind, seed", [("smooth_rotation", 1), ("smooth_rotation", 3),
                                            ("static_cloud", 2)])
    def test_random_init_scale_is_mean_of_slice_means(self, kind, seed):
        # the scale as a mean of per-slice means; a single mean over all
        # pairs and times rounds differently on these tensors
        _, tensor, _ = generate(SyntheticScenario(kind, n=37, m=23, seed=seed, noise_sd=0.1))
        cfg = FitConfig(p=2, interior_knots=1, rng_seed=seed, init_mode="random")
        iu = np.triu_indices(tensor.n, 1)
        scale = float(np.mean([DissimilarityMatrix(s).values[iu].mean() for s in tensor.values]))
        expected = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(37, 2, 5)) * scale
        assert np.array_equal(init_random(tensor, cfg).coefficients, expected)

    def test_random_init_deterministic(self):
        rng = np.random.default_rng(12)
        tensor, _, _ = _random_instance(rng, m=8)
        cfg = FitConfig(p=2, interior_knots=1, rng_seed=5, init_mode="random")
        a = init_random(tensor, cfg)
        b = init_random(tensor, cfg)
        assert np.array_equal(a.coefficients, b.coefficients)


class TestAdamState:
    def test_first_step_closed_form(self):
        state = AdamState.zeros(1, 2, 3)
        g = np.array([[0.5, -2.0, 1e-3], [0.0, 3.0, -1e-6]])
        delta = state.step(0, g)
        expected = -0.001 * g / (np.abs(g) + 1e-8)
        npt.assert_allclose(delta, expected, atol=1e-15)

    def test_second_moment_nonnegative_and_bias_correction_grows(self):
        rng = np.random.default_rng(13)
        state = AdamState.zeros(2, 2, 2)
        for k in range(25):
            idx = k % 2
            state.step(idx, rng.normal(size=(2, 2)))
            assert np.all(state.second_moment >= 0)
            t = int(state.step_counts[idx])
            corrected = state.second_moment[idx] / (1.0 - state.gamma2 ** t)
            assert np.all(corrected >= state.second_moment[idx])

    def test_bitwise_equal_to_closed_form_updates(self):
        # the update written out as the textbook formulas, one moment at a time
        rng = np.random.default_rng(17)
        state = AdamState.zeros(2, 2, 3, alpha=0.01, gamma1=0.8, gamma2=0.99)
        m1, m2 = np.zeros((2, 2, 3)), np.zeros((2, 2, 3))
        counts = [0, 0]
        for k in range(30):
            idx = k % 3 % 2
            g = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-6, 3)
            m1[idx] = 0.8 * m1[idx] + (1.0 - 0.8) * g
            m2[idx] = 0.99 * m2[idx] + (1.0 - 0.99) * (g * g)
            counts[idx] += 1
            t = counts[idx]
            expected = -0.01 * (m1[idx] / (1.0 - 0.8 ** t)) / (
                np.sqrt(m2[idx] / (1.0 - 0.99 ** t)) + 1e-8)
            assert np.array_equal(state.step(idx, g), expected)
        assert np.array_equal(state.first_moment, m1)
        assert np.array_equal(state.second_moment, m2)
        npt.assert_array_equal(state.step_counts, counts)

    def test_counters_track_updates(self):
        state = AdamState.zeros(3, 1, 1)
        state.step(0, np.ones((1, 1)))
        state.step(0, np.ones((1, 1)))
        state.step(2, np.ones((1, 1)))
        npt.assert_array_equal(state.step_counts, [2, 0, 1])


class TestFit:
    def test_exact_recovery_line_fixture(self):
        tensor = _linear_line_tensor()
        iu = np.triu_indices(3, 1)
        quartic = sum(float((s[iu] ** 4).sum()) for s in tensor.values)
        result = fit(tensor, FitConfig(p=1, interior_knots=1, max_epochs=500, rng_seed=42))
        final = result.stress_per_epoch[-1]
        assert final <= 1e-6 * quartic
        # regression fixture recorded from the first successful run
        assert final == pytest.approx(8.430185133730479e-11, rel=1e-6)

    def test_zero_tensor_monotone_descent(self):
        grid = np.linspace(0.0, 1.0, 8)
        zero = DissimilarityTensor(grid, np.zeros((8, 3, 3)))
        result = fit(zero, FitConfig(p=2, interior_knots=1, max_epochs=300,
                                     rng_seed=7, init_mode="random"))
        increases = np.diff(result.stress_per_epoch)
        assert np.all(increases <= 1e-9)

    def test_divergence_reports_epoch(self):
        scen = SyntheticScenario("smooth_rotation", n=4, m=20, seed=1)
        _, tensor, _ = generate(scen)
        cfg = FitConfig(p=2, interior_knots=2, alpha=10.0, max_epochs=50,
                        rng_seed=0, init_mode="random", baseline="full_batch_gd")
        with pytest.raises(DivergedError) as exc_info:
            fit(tensor, cfg)
        assert exc_info.value.epoch >= 0

    def test_large_units_do_not_diverge(self):
        # stress far above 1e30 is still the warm start's when d is in large units
        scen = SyntheticScenario("smooth_rotation", n=5, p_true=2, m=40, seed=42)
        _, tensor, _ = generate(scen)
        big = DissimilarityTensor(tensor.time_grid, tensor.values * 1e10)
        result = fit(big, FitConfig(p=2, interior_knots=4, max_epochs=2, rng_seed=42))
        assert result.epochs_run == 2
        assert result.initial_stress > 1e30

    def test_deterministic_bit_for_bit(self):
        scen = SyntheticScenario("smooth_rotation", n=4, m=20, seed=2)
        _, tensor, _ = generate(scen)
        cfg = FitConfig(p=2, interior_knots=2, max_epochs=20, rng_seed=3)
        a = fit(tensor, cfg)
        b = fit(tensor, cfg)
        assert np.array_equal(a.coefficients.coefficients, b.coefficients.coefficients)
        assert np.array_equal(a.stress_per_epoch, b.stress_per_epoch)
        assert np.array_equal(a.max_displacement_per_epoch, b.max_displacement_per_epoch)

    def test_huge_tolerance_converges_after_one_epoch(self):
        scen = SyntheticScenario("smooth_rotation", n=4, m=20, seed=2)
        _, tensor, _ = generate(scen)
        result = fit(tensor, FitConfig(p=2, interior_knots=2, eps=1e30, max_epochs=50))
        assert result.converged and result.epochs_run == 1

    def test_best_iterate_of_criterion_7_data_is_the_warm_start(self):
        # Adam's first steps leave the warm start's stress, and 356 epochs
        # do not win it back; the result says so
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=5, p_true=2, m=40,
                                                  seed=42))
        result = fit(tensor, FitConfig(p=2, interior_knots=4, max_epochs=2000, rng_seed=42))
        assert result.epochs_run == 356
        assert result.best_epoch == 0 and result.best_stress == result.initial_stress
        assert result.initial_stress == pytest.approx(1.706e-9, rel=1e-3)
        assert result.stress_per_epoch[-1] == pytest.approx(8.796e-9, rel=1e-3)

    @pytest.mark.parametrize("initial, per_epoch, best", [
        (5.0, [3.0, 1.0, 1.0, 2.0], 2), (1.0, [1.0, 2.0], 0), (2.0, [3.0, 1.5], 2)])
    def test_best_epoch_is_the_first_lowest_stress(self, initial, per_epoch, best):
        kv = make_knots((0.0, 1.0), (), order=4)
        result = FitResult(CoefficientSet(np.zeros((2, 1, 4)), kv), np.array(per_epoch),
                           len(per_epoch), False, np.zeros(len(per_epoch)), initial)
        assert result.best_epoch == best
        assert result.best_stress == min(initial, *per_epoch)

    def test_single_object_rejected(self):
        tensor = DissimilarityTensor(np.linspace(0, 1, 6), np.zeros((6, 1, 1)))
        with pytest.raises(InsufficientObjects):
            fit(tensor, FitConfig(p=1, interior_knots=1))

    @pytest.mark.parametrize("start", [fit, init_from_cmds, init_random])
    def test_single_object_rejected_before_the_grid(self, start):
        # 3 time points cannot determine 5 coefficients either
        tensor = DissimilarityTensor(np.linspace(0, 1, 3), np.zeros((3, 1, 1)))
        with pytest.raises(InsufficientObjects):
            start(tensor, FitConfig(p=1, interior_knots=1))

    def test_stress_trajectory_shape(self):
        scen = SyntheticScenario("smooth_rotation", n=3, m=16, seed=4)
        _, tensor, _ = generate(scen)
        result = fit(tensor, FitConfig(p=2, interior_knots=1, max_epochs=10))
        assert result.stress_per_epoch.shape == (result.epochs_run,)
        assert result.max_displacement_per_epoch.shape == (result.epochs_run,)
        if result.converged:
            assert result.max_displacement_per_epoch[-1] < 1e-6

    def test_peak_memory_is_the_condensed_targets_and_one_stress(self):
        import tracemalloc

        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=200, m=50, seed=1))
        tracemalloc.start()
        try:
            result = fit(tensor, FitConfig(max_epochs=1))
            _, fit_peak = tracemalloc.get_traced_memory()
            basis = basis_matrix(result.coefficients.knots, tensor.time_grid).values
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _stress_value(result.coefficients.coefficients, tensor._pairs, basis)
            stress_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a squared copy of the full (m, n, n) tensor next to the stress
        # evaluation peaked at 46.6 MiB; with the stress's (pairs, m, p)
        # difference arrays, 38.7 MiB; with a squared copy of the 7.6 MiB
        # of condensed pairs, 9.4 MiB; 2.2 MiB now, the stress 1.9 MiB
        assert fit_peak <= 4 * 2**20
        assert stress_peak <= 4 * 2**20

    def test_peak_memory_at_n400_is_the_condensed_targets(self):
        import tracemalloc

        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=400, m=50, seed=1))
        targets = tensor._pairs.nbytes
        tracemalloc.start()
        try:
            fit(tensor, FitConfig(max_epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full residual array next to the targets made 2.04x, and the
        # divergence scale's (dsq * dsq) as much; a squared copy of the
        # targets 1.21x; 0.21x now, as every kernel squares d as it reads it
        assert peak <= 0.3 * targets

    def test_stress_peak_memory_is_one_residual_array(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        n, m = 400, 50
        kv = make_knots((0.0, 1.0), np.linspace(0, 1, 7)[1:-1], order=4)
        basis = basis_matrix(kv, np.linspace(0.0, 1.0, m)).values
        coeffs = rng.normal(size=(n, 2, kv.num_basis))
        pairs = rng.uniform(size=(n * (n - 1) // 2, m))
        tracemalloc.start()
        try:
            _stress_value(coeffs, pairs, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (pairs, m, p) difference array and its same-size gather made
        # 4x the targets, the residual array 1.02x; a leaf of residuals, one
        # of squared targets and a copy of a leaf spanning two of them 0.071x;
        # one leaf of residuals next to one object's rows is 0.044x
        assert peak <= 0.06 * pairs.nbytes

    def test_stress_scratch_is_sized_by_the_leaf(self):
        import tracemalloc

        rng = np.random.default_rng(5)
        n, m = 20, 13108
        kv = make_knots((0.0, 1.0), np.linspace(0, 1, 7)[1:-1], order=4)
        basis = basis_matrix(kv, np.linspace(0.0, 1.0, m)).values
        coeffs = rng.normal(size=(n, 2, kv.num_basis))
        pairs = rng.uniform(size=(n * (n - 1) // 2, m))
        tracemalloc.start()
        try:
            _stress_value(coeffs, pairs, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # with few objects and long rows, scratch for n - 1 rows of
        # differences made 0.54x the targets; for a leaf's 7 rows, 0.34x
        assert peak <= 0.4 * pairs.nbytes

    def test_full_batch_agreement_fixture(self):
        # both optimizers polish the same warm start toward the shared
        # basis-approximation floor; values recorded as regression numbers
        scen = SyntheticScenario("smooth_rotation", n=4, m=20, seed=3)
        _, tensor, _ = generate(scen)
        adam = fit(tensor, FitConfig(p=2, interior_knots=2, alpha=1e-4,
                                     max_epochs=2000, rng_seed=0))
        gd = fit(tensor, FitConfig(p=2, interior_knots=2, alpha=1e-4, max_epochs=2000,
                                   rng_seed=0, baseline="full_batch_gd"))
        assert adam.initial_stress == gd.initial_stress
        f_adam = adam.stress_per_epoch[-1]
        f_gd = gd.stress_per_epoch[-1]
        assert f_adam < adam.initial_stress
        assert f_gd < gd.initial_stress
        assert abs(f_adam - f_gd) / max(f_adam, f_gd) <= 0.10
        assert f_adam == pytest.approx(8.1221898708942547e-09, rel=1e-6)
        assert f_gd == pytest.approx(8.5520069554111781e-09, rel=1e-6)

    def test_full_batch_gd_builds_no_adam_state(self, monkeypatch):
        def no_adam(*args):
            raise AssertionError("full_batch_gd built the pairwise Adam state")

        monkeypatch.setattr("fmds.fitting._PairwiseAdam", no_adam)
        scen = SyntheticScenario("smooth_rotation", n=4, m=20, seed=3)
        _, tensor, _ = generate(scen)
        result = fit(tensor, FitConfig(p=2, interior_knots=2, alpha=1e-4, eps=1e-30,
                                       max_epochs=5, baseline="full_batch_gd"))
        assert result.epochs_run == 5

    def test_initial_stress_is_the_warm_starts_stress(self):
        # the warm start comes C-ordered, the layout fit's epochs run on
        # (numpy's products round differently on a strided one), and fit
        # starts from it as it is, so one start gives one stress
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=5, m=40, seed=42))
        config = FitConfig(p=2, interior_knots=4, max_epochs=1)
        start = init_from_cmds(tensor, config)
        assert start.coefficients.flags.c_contiguous
        assert fit(tensor, config).initial_stress == stress(start, tensor)


class TestPairwiseAdamKernel:
    @staticmethod
    def _reference_epochs(coeffs, pairs, basis, orders, config):
        n, p, q = coeffs.shape
        state = AdamState.zeros(n, p, q, alpha=config.alpha, gamma1=config.gamma1,
                                gamma2=config.gamma2)
        for rows in orders:
            for h in rows:
                for j in range(h + 1, n):
                    pair = h * (2 * n - h - 1) // 2 + j - h - 1
                    grad_h = _pair_grad(coeffs[h], coeffs[j], pairs[pair], basis)
                    delta_h = state.step(h, grad_h)
                    delta_j = state.step(j, -grad_h)
                    coeffs[h] += delta_h
                    coeffs[j] += delta_j
        return state

    @pytest.mark.parametrize(
        "n, p, init_mode",
        [(2, 1, "cmds_warm"), (2, 1, "random"), (2, 2, "random"), (2, 3, "random"),
         (11, 1, "cmds_warm"), (11, 2, "cmds_warm"), (11, 3, "cmds_warm"),
         (11, 1, "random"), (11, 2, "random"), (11, 3, "random"),
         (11, 7, "cmds_warm"), (11, 8, "random"), (11, 9, "random")],
    )
    def test_bitwise_equal_to_pair_by_pair_loop(self, n, p, init_mode):
        self._check_against_pair_loop(n, p, init_mode, m=12, interior_knots=2)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bitwise_equal_on_a_long_row(self, p):
        self._check_against_pair_loop(5, p, "random", m=200, interior_knots=20)

    def test_bitwise_equal_at_the_fit_adam_benchmark_shape(self):
        self._check_against_pair_loop(40, 2, "cmds_warm", m=40, interior_knots=4)

    def test_bitwise_equal_at_the_panel_corr_benchmark_shape(self):
        # q = 83: the rolling correlation's 791 slices, m // 10 interior knots
        self._check_against_pair_loop(40, 2, "cmds_warm", m=791, interior_knots=79)

    def _check_against_pair_loop(self, n, p, init_mode, m, interior_knots):
        scen = SyntheticScenario("random_walk_smoothed", n=n, p_true=3, m=m, seed=n + p)
        _, tensor, _ = generate(scen)
        config = FitConfig(p=p, interior_knots=interior_knots, alpha=0.01, rng_seed=p,
                           init_mode=init_mode)
        init = init_from_cmds if init_mode == "cmds_warm" else init_random
        start = init(tensor, config)
        basis = basis_matrix(start.knots, tensor.time_grid).values
        rng = np.random.default_rng(5)
        orders = [rng.permutation(n - 1) for _ in range(3)]

        expected = start.coefficients.copy()
        state = self._reference_epochs(expected, tensor._pairs, basis, orders, config)
        got = start.coefficients.copy()
        kernel = _PairwiseAdam(n, p, start.q, basis, config.alpha, config.gamma1, config.gamma2)
        # the -4 lives in the gains, so the basis is the kernel's one (m, q) array
        assert [name for name, value in vars(kernel).items()
                if np.shape(value) == basis.shape] == ["basis"]
        for rows in orders:
            kernel.epoch(got, tensor._pairs, rows)

        assert np.array_equal(got, expected)
        assert np.array_equal(kernel.moments[:, 0], state.first_moment)
        assert np.array_equal(kernel.moments[:, 1], state.second_moment)
        assert np.array_equal(kernel.step_counts, state.step_counts)


class TestObjectiveInvariances:
    def test_common_orthogonal_transform(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            tensor, coeffs, kv = _random_instance(rng, p=3)
            base = stress(CoefficientSet(coeffs, kv), tensor)
            gamma, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            rotated = np.einsum("ab,ibq->iaq", gamma, coeffs)
            assert abs(stress(CoefficientSet(rotated, kv), tensor) - base) <= 1e-10

    def test_common_translation(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            tensor, coeffs, kv = _random_instance(rng)
            base = stress(CoefficientSet(coeffs, kv), tensor)
            shift = rng.normal(size=coeffs.shape[1:])
            assert abs(stress(CoefficientSet(coeffs + shift, kv), tensor) - base) <= 1e-10


class TestEvaluateTrajectories:
    def test_constant_coefficients(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        coeffs = np.stack([np.full((2, 5), 1.0), np.full((2, 5), -1.0)])
        traj = evaluate_trajectories(CoefficientSet(coeffs, kv), np.linspace(0, 1, 7))
        for k in range(7):
            npt.assert_allclose(traj.positions[k], traj.positions[0], atol=1e-12)

    def test_stress_recomputable_from_fitted(self):
        rng = np.random.default_rng(16)
        tensor, coeffs, kv = _random_instance(rng)
        cs = CoefficientSet(coeffs, kv)
        traj = evaluate_trajectories(cs, tensor.time_grid)
        iu = np.triu_indices(tensor.n, 1)
        recomputed = 0.0
        for k in range(tensor.num_times):
            resid = (tensor.values[k][iu] ** 2
                     - traj.fitted_dissimilarities[k][iu] ** 2)
            recomputed += float((resid ** 2).sum())
        assert abs(recomputed - stress(cs, tensor)) <= 1e-10 * (1 + recomputed)

    def test_out_of_domain_grid(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        cs = CoefficientSet(np.zeros((2, 1, 4)), kv)
        with pytest.raises(OutOfDomain):
            evaluate_trajectories(cs, [0.0, 1.5])

    @pytest.mark.parametrize("n, p", [(40, 2), (7, 3), (5, 9), (2, 1), (6, 7), (6, 8)])
    def test_matches_whole_grid_expression(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        kv = make_knots((0.0, 1.0), (0.3, 0.6), order=4)
        cs = CoefficientSet(rng.normal(size=(n, p, kv.num_basis)), kv)
        grid = np.linspace(0.0, 1.0, 23)
        traj = evaluate_trajectories(cs, grid)
        # computed on first read, then kept
        assert "fitted_dissimilarities" not in vars(traj)
        fitted = traj.fitted_dissimilarities
        assert traj.fitted_dissimilarities is fitted
        # the former expression: one (points, n, n, p) difference tensor
        diff = traj.positions[:, :, None, :] - traj.positions[:, None, :, :]
        np.multiply(diff, diff, out=diff)
        assert np.array_equal(fitted, np.sqrt(diff.sum(axis=-1)))

    @pytest.mark.parametrize("p", [1, 2, 3, 9])
    def test_truth_positions_give_the_generated_tensor(self, p):
        _, tensor, truth = generate(SyntheticScenario("random_walk_smoothed", n=7, p_true=p,
                                                      m=15, seed=p))
        traj = EmbeddingTrajectory(tensor.time_grid, truth.transpose(1, 0, 2))
        assert np.array_equal(traj.fitted_dissimilarities, tensor.values)

    def test_one_object_has_no_fitted_distances(self):
        kv = make_knots((0.0, 1.0), (), order=4)
        traj = evaluate_trajectories(CoefficientSet(np.ones((1, 2, 4)), kv), [0.0, 1.0])
        with pytest.raises(ShapeError, match="at least 2 objects"):
            traj.fitted_dissimilarities

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_have_no_fitted_distances(self, bad):
        positions = np.zeros((3, 4, 2))
        positions[1, 2, 0] = bad
        traj = EmbeddingTrajectory(np.linspace(0.0, 1.0, 3), positions)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="^points contain non-finite entries$"):
                traj.fitted_dissimilarities

    def test_peak_memory_is_the_result(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        cs = CoefficientSet(rng.normal(size=(100, 2, kv.num_basis)), kv)
        grid = np.linspace(0.0, 1.0, 200)
        tracemalloc.start()
        try:
            traj = evaluate_trajectories(cs, grid)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fitted = traj.fitted_dissimilarities
            _, fitted_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (points, n, n, p) difference tensor alone was twice the
        # positions and distances; the distances are now built on first read
        assert peak < 1.25 * traj.positions.nbytes
        assert fitted_peak < 1.5 * fitted.nbytes


class TestFitConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0},
            {"eps": 0.0},
            {"max_epochs": 0},
            {"alpha": -1.0},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"rng_seed": -1},
            {"gamma1": 1.0},
            {"gamma2": -0.1},
            {"init_mode": "zeros"},
            {"baseline": "newton"},
            {"interior_knots": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            FitConfig(**kwargs)
