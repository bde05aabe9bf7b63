"""Tests for classical MDS: double centering, spectral recovery, determinism."""

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    DimError,
    DissimilarityMatrix,
    classical_mds,
    double_center,
    euclidean_dissimilarity,
    reconstructed_dissimilarity,
)


def _random_cloud_matrix(rng, n, p):
    return euclidean_dissimilarity(rng.normal(size=(n, p)))


class TestDoubleCenter:
    def test_zero_matrix(self):
        npt.assert_array_equal(double_center(DissimilarityMatrix(np.zeros((3, 3)))),
                               np.zeros((3, 3)))

    def test_two_points(self):
        d = DissimilarityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        npt.assert_allclose(double_center(d), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_equilateral_trace_and_row_sums(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
        b = double_center(euclidean_dissimilarity(pts))
        assert np.trace(b) == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(b.sum(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(b.sum(axis=1), 0.0, atol=1e-10)

    def test_symmetric_output(self):
        rng = np.random.default_rng(0)
        b = double_center(_random_cloud_matrix(rng, 8, 3))
        assert np.array_equal(b, b.T)

    def test_idempotence_through_reconstruction(self):
        rng = np.random.default_rng(1)
        d = _random_cloud_matrix(rng, 6, 2)
        b = double_center(d)
        recon = reconstructed_dissimilarity(classical_mds(d, 2))
        npt.assert_allclose(double_center(recon), b, atol=1e-8)


class TestClassicalMds:
    def test_exact_recovery_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(4, 12))
            p = int(rng.integers(1, 4))
            d = _random_cloud_matrix(rng, n, p)
            recon = reconstructed_dissimilarity(classical_mds(d, p))
            npt.assert_allclose(recon.values, d.values, atol=1e-8)

    def test_equilateral_spectrum(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
        sol = classical_mds(euclidean_dissimilarity(pts), 2)
        npt.assert_allclose(sol.eigenvalues, [0.5, 0.5, 0.0], atol=1e-12)
        recon = reconstructed_dissimilarity(sol)
        npt.assert_allclose(recon.values[np.triu_indices(3, 1)], 1.0, atol=1e-9)

    def test_zero_matrix(self):
        sol = classical_mds(DissimilarityMatrix(np.zeros((4, 4))), 1)
        npt.assert_array_equal(sol.configuration, np.zeros((4, 1)))
        npt.assert_array_equal(sol.eigenvalues, np.zeros(4))

    def test_centered_columns(self):
        rng = np.random.default_rng(3)
        sol = classical_mds(_random_cloud_matrix(rng, 9, 3), 3)
        npt.assert_allclose(sol.configuration.sum(axis=0), 0.0, atol=1e-9)

    def test_orthogonal_columns_carry_eigenvalues(self):
        rng = np.random.default_rng(4)
        sol = classical_mds(_random_cloud_matrix(rng, 9, 3), 3)
        gram = sol.configuration.T @ sol.configuration
        npt.assert_allclose(gram, np.diag(sol.eigenvalues[:3]), atol=1e-8)

    def test_eigenvalues_nonincreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sol = classical_mds(_random_cloud_matrix(rng, 7, 2), 2)
            assert np.all(np.diff(sol.eigenvalues) <= 1e-12)

    def test_trailing_eigenvalues_vanish(self):
        rng = np.random.default_rng(6)
        d = _random_cloud_matrix(rng, 10, 2)
        sol = classical_mds(d, 2)
        assert np.abs(sol.eigenvalues[2:]).max() <= 1e-8 * sol.eigenvalues[0]

    def test_negative_eigenvalues_clamped(self):
        # d13 = 3 > d12 + d23 = 2 is not embeddable: negative spectrum mass
        vals = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        sol = classical_mds(DissimilarityMatrix(vals), 2)
        assert sol.negative_mass > 0
        assert sol.eigenvalues[-1] < 0
        # the clamped column is identically zero
        assert np.all(sol.configuration[:, 1] == 0.0)

    def test_dim_out_of_range(self):
        d = DissimilarityMatrix(np.zeros((3, 3)))
        with pytest.raises(DimError):
            classical_mds(d, 0)
        with pytest.raises(DimError):
            classical_mds(d, 3)

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(7)
        d = _random_cloud_matrix(rng, 8, 2)
        a = classical_mds(d, 2)
        b = classical_mds(d, 2)
        assert np.array_equal(a.configuration, b.configuration)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        sol = classical_mds(_random_cloud_matrix(rng, 6, 2), 2)
        for k in range(2):
            col = sol.configuration[:, k]
            nz = col[np.abs(col) > 1e-9]
            assert nz[0] > 0

    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    def test_tie_breaking_matches_tuple_key_sort(self, n):
        def reference(matrix, p):
            # the column-by-column sign fix and tuple-key sort classical_mds replaced
            evals, evecs = np.linalg.eigh(double_center(matrix))
            for k in range(n):
                big = np.nonzero(np.abs(evecs[:, k]) > 1e-12)[0]
                if big.size and evecs[big[0], k] < 0:
                    evecs[:, k] = -evecs[:, k]
            order = sorted(range(n), key=lambda k: (-evals[k], tuple(evecs[:, k])))
            evals, evecs = evals[order], evecs[:, order]
            return evals, evecs[:, :p] * np.sqrt(np.maximum(evals[:p], 0.0))

        rng = np.random.default_rng(n)
        simplex = DissimilarityMatrix(1.0 - np.eye(n))
        assert len(np.unique(np.linalg.eigh(double_center(simplex))[0])) < n or n == 2
        for matrix in (simplex, DissimilarityMatrix(np.zeros((n, n))),
                       _random_cloud_matrix(rng, n, 3)):
            for p in {1, n - 1}:
                solution = classical_mds(matrix, p)
                evals, configuration = reference(matrix, p)
                assert np.array_equal(solution.eigenvalues, evals)
                assert np.array_equal(solution.configuration, configuration)

    def test_sign_fix_leaves_negligible_columns(self):
        from fmds.cmds import _fix_stacked_signs

        vectors = np.array([[-1e-13, -2e-13, 0.0], [5e-13, -3.0, -1e-14], [0.0, 1.0, -2.0]])
        stack = np.stack([vectors, -vectors])
        _fix_stacked_signs(stack)
        npt.assert_array_equal(stack, [vectors * [1.0, -1.0, -1.0], -vectors])

    def test_eigensolver_residual(self):
        from fmds import double_center

        rng = np.random.default_rng(12)
        for _ in range(10):
            b = double_center(_random_cloud_matrix(rng, 9, 3))
            evals, evecs = np.linalg.eigh(b)
            resid = np.abs(b @ evecs - evecs * evals).max()
            assert resid <= 1e-10 * np.linalg.norm(b)


class TestRigidMotionInvariance:
    def test_distances_unchanged_by_rotation_and_shift(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sol = classical_mds(_random_cloud_matrix(rng, 6, 3), 3)
            gamma, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            shift = rng.normal(size=3)
            moved = sol.configuration @ gamma.T + shift
            original = reconstructed_dissimilarity(sol).values
            transformed = euclidean_dissimilarity(moved).values
            npt.assert_allclose(transformed, original, atol=1e-10)


class TestReconstruction:
    def test_full_dimension_recovery(self):
        rng = np.random.default_rng(10)
        d = _random_cloud_matrix(rng, 7, 6)
        recon = reconstructed_dissimilarity(classical_mds(d, 6))
        npt.assert_allclose(recon.values, d.values, atol=1e-8)

    def test_zero_configuration(self):
        sol = classical_mds(DissimilarityMatrix(np.zeros((3, 3))), 1)
        recon = reconstructed_dissimilarity(sol)
        npt.assert_array_equal(recon.values, np.zeros((3, 3)))


def _per_slice_mds(values, p):
    """classical_mds as it ran before the stacked pass, one slice at a time:
    configuration, eigenvalues and negative mass."""
    a = -0.5 * values * values
    b = a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()
    evals, evecs = np.linalg.eigh((b + b.T) / 2.0)
    big = np.abs(evecs) > 1e-12
    cols = np.arange(evecs.shape[1])
    first = np.argmax(big, axis=0)
    evecs = np.where(big[first, cols] & (evecs[first, cols] < 0), -evecs, evecs)
    order = np.lexsort(np.vstack((evecs[::-1], -evals)))
    evals, evecs = evals[order], evecs[:, order]
    configuration = evecs[:, :p] * np.sqrt(np.maximum(evals[:p], 0.0))
    total = float(np.abs(evals).sum())
    negative = float(np.abs(evals[evals < 0]).sum()) / total if total > 0 else 0.0
    return configuration, evals, negative


class TestStackedPass:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_blocks_match_per_slice_algorithm(self, p, monkeypatch):
        from fmds import cmds
        from fmds.cmds import _mds_slices, _solution
        from fmds.dissimilarity import _block_items

        rng = np.random.default_rng(30 + p)
        n = 40
        step = _block_items(8 * n * n)
        noise = np.triu(rng.uniform(0.0, 2.0, (n, n)), 1)
        # exact ties (zero matrix, regular simplex) and negative mass land in
        # different blocks; the last block is short
        special = {1: np.zeros((n, n)), step + 1: 1.0 - np.eye(n), 3 * step: noise + noise.T}
        stack = np.stack([special.get(k, _random_cloud_matrix(rng, n, 3).values)
                          for k in range(3 * step + 1)])
        h, j = np.triu_indices(n, 1)
        blocks, solve = [], cmds._stacked_mds

        def recorded(values, p):
            blocks.append(solve(values, p))
            return blocks[-1]

        monkeypatch.setattr(cmds, "_stacked_mds", recorded)
        stacked = [_solution(c, e) for c, e in _mds_slices(stack.transpose(1, 2, 0)[h, j], n, p)]
        assert step > 1 and [len(c) for c, _ in blocks] == [step, step, step, 1]
        for values, solution in zip(stack, stacked):
            configuration, evals, negative = _per_slice_mds(values, p)
            single = classical_mds(DissimilarityMatrix(values), p)
            for got in (solution, single):
                assert np.array_equal(got.configuration, configuration)
                assert np.array_equal(got.eigenvalues, evals)
                assert got.negative_mass == negative
                # the Procrustes product source.T @ target takes another BLAS
                # path for a row-major configuration
                for layout in ("F_CONTIGUOUS", "C_CONTIGUOUS"):
                    assert got.configuration.flags[layout] == configuration.flags[layout]
        assert stacked[3 * step].negative_mass > 0

    def test_outputs_independent_of_block_size(self, tmp_path, monkeypatch):
        from fmds import (FitConfig, SyntheticScenario, dissimilarity, generate, init_from_cmds,
                          rolling_dissimilarity_tensor)
        from fmds.cli import main
        from fmds.io import write_tensor

        panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=40, p_true=1, m=60,
                                                 noise_sd=0.05, seed=4))
        source = tmp_path / "tensor.csv"
        write_tensor(rolling_dissimilarity_tensor(panel, "correlation", 10), source)
        out = tmp_path / "cmds"
        runs = []
        # 1 item per block, the rule's 10 per block at n = 40, and all 51 in one
        for budget in (0, dissimilarity._BLOCK_BYTES, 1 << 40):
            monkeypatch.setattr(dissimilarity, "_BLOCK_BYTES", budget)
            tensor = rolling_dissimilarity_tensor(panel, "correlation", 10)
            coefficients = init_from_cmds(tensor, FitConfig(p=2)).coefficients
            assert main(["cmds", "--input", str(source), "--dim", "2", "--out", str(out),
                         "--deterministic"]) == 0
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            runs.append((tensor._pairs, coefficients, files))
        (pairs, coefficients, files), *others = runs
        assert tensor.num_times == 51 and len(files) == 2 * 51 + 2
        for other_pairs, other_coefficients, other_files in others:
            assert np.array_equal(other_pairs, pairs)
            assert np.array_equal(other_coefficients, coefficients)
            assert other_files == files

    def test_warm_start_matches_per_slice_loop(self):
        from fmds import FitConfig, SyntheticScenario, generate, init_from_cmds
        from fmds import rolling_dissimilarity_tensor
        from fmds.bspline import _solve_least_squares, basis_matrix
        from fmds.fitting import _procrustes_rotation, _resolve_layout

        panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=40, p_true=1, m=80,
                                                 noise_sd=0.05, seed=3))
        tensor = rolling_dissimilarity_tensor(panel, "correlation", 10)
        for p in (1, 2, 3):
            config = FitConfig(p=p)
            knots, q = _resolve_layout(tensor, config)
            m, n = tensor.num_times, tensor.n
            aligned = np.empty((m, n, p))
            for k, values in enumerate(tensor.values):
                embedded = _per_slice_mds(values, p)[0]
                if k:
                    embedded = embedded @ _procrustes_rotation(embedded, aligned[k - 1])
                aligned[k] = embedded
            basis = basis_matrix(knots, tensor.time_grid).values
            expected = _solve_least_squares(basis, aligned.reshape(m, n * p)).T.reshape(n, p, q)
            assert np.array_equal(init_from_cmds(tensor, config).coefficients, expected)

    def test_warm_start_peak_memory(self):
        import tracemalloc

        from fmds import FitConfig, SyntheticScenario, generate, init_from_cmds
        from fmds import rolling_dissimilarity_tensor

        panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=40, p_true=1, m=800,
                                                 noise_sd=0.05, seed=1))
        tensor = rolling_dissimilarity_tensor(panel, "correlation", 10)
        assert tensor.values.shape == (791, 40, 40)
        tracemalloc.start()
        try:
            init_from_cmds(tensor, FitConfig(p=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.70 MiB, set by the least-squares smoothing; blocks of 54 slices
        # made 1.95 MiB and of 109 slices 3.4 MiB
        assert peak <= 0.2 * tensor.values.nbytes
