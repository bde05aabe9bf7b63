"""Cross-checks between the fast implementations and the brute-force
references, plus synthetic generator contracts."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    CoefficientSet,
    ConfigError,
    DissimilarityMatrix,
    DissimilarityTensor,
    SyntheticScenario,
    classical_mds,
    eval_basis,
    eval_basis_order1,
    euclidean_dissimilarity,
    generate,
    make_knots,
    pair_gradients,
    reconstructed_dissimilarity,
    stress,
    validate,
)
from fmds.reference import central_difference_gradient, naive_bspline
from naive_reference import naive_stress_and_grad


def _random_knots(rng):
    order = int(rng.integers(1, 5))
    count = int(rng.integers(0, 6))
    a = float(rng.uniform(-3.0, 3.0))
    b = a + float(rng.uniform(0.5, 4.0))
    interior = np.unique(rng.uniform(a, b, count))
    interior = interior[(interior > a) & (interior < b)]
    return make_knots((a, b), interior, order)


def _random_instance(rng):
    n = int(rng.integers(3, 6))
    m = int(rng.integers(4, 8))
    p = int(rng.integers(1, 4))
    kv = make_knots((0.0, 1.0), [0.4, 0.7], order=4)
    grid = np.linspace(0.0, 1.0, m)
    values = np.stack(
        [euclidean_dissimilarity(rng.uniform(size=(n, max(p, 2)))).values for _ in range(m)]
    )
    coeffs = rng.normal(size=(n, p, kv.num_basis)) * 0.5
    return DissimilarityTensor(grid, values), CoefficientSet(coeffs, kv)


class TestNaiveBspline:
    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            kv = _random_knots(rng)
            t = float(rng.uniform(*kv.domain))
            npt.assert_allclose(naive_bspline(kv, t), eval_basis(kv, t), atol=1e-12)

    def test_order1_reduces_to_indicator(self):
        kv = make_knots((0.0, 1.0), (0.3, 0.8), order=1)
        for t in (0.0, 0.1, 0.3, 0.5, 0.8, 0.99, 1.0):
            npt.assert_array_equal(naive_bspline(kv, t), eval_basis_order1(kv, t))

    def test_clamped_left_endpoint(self):
        kv = make_knots((0.0, 1.0), (0.5,), order=4)
        row = naive_bspline(kv, 0.0)
        npt.assert_array_equal(row, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_domain_endpoints(self):
        kv = make_knots((-1.0, 2.0), (0.0, 1.0), order=3)
        npt.assert_allclose(naive_bspline(kv, 2.0)[-1], 1.0, atol=1e-15)
        assert naive_bspline(kv, 2.0)[:-1].max() <= 1e-15

    def test_subnormal_knot_span(self):
        # (t - knot) / 5e-324 overflows to inf; the term it scales is zero
        kv = make_knots((0.0, 1.0), (5e-324, 0.5), order=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (0.0, 5e-324, 0.25, 0.5, 1.0):
                npt.assert_array_equal(naive_bspline(kv, t), eval_basis(kv, t))


class TestNaiveStressAndGrad:
    def test_stress_agrees(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            tensor, coeffs = _random_instance(rng)
            fast = stress(coeffs, tensor)
            slow, _ = naive_stress_and_grad(coeffs, tensor)
            assert abs(fast - slow) <= 1e-10 * (1 + abs(slow))

    def test_full_gradient_is_pair_sum(self):
        rng = np.random.default_rng(2)
        tensor, cs = _random_instance(rng)
        coeffs = cs.coefficients
        n = coeffs.shape[0]
        _, grads = naive_stress_and_grad(cs, tensor)
        for i in range(n):
            acc = np.zeros_like(grads[i])
            for j in range(n):
                if j == i:
                    continue
                g_i, _ = pair_gradients(coeffs[i], coeffs[j], tensor, i, j, cs.knots)
                acc += g_i
            npt.assert_allclose(grads[i], acc, atol=1e-10 * (1 + np.abs(acc).max()))

    def test_all_equal_coefficients_zero_gradient(self):
        rng = np.random.default_rng(3)
        tensor, cs = _random_instance(rng)
        same = np.repeat(cs.coefficients[:1], cs.n, axis=0)
        _, grads = naive_stress_and_grad(CoefficientSet(same, cs.knots), tensor)
        for g in grads:
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        tensor, cs = _random_instance(rng)
        coeffs = cs.coefficients
        _, grads = naive_stress_and_grad(cs, tensor)
        target = 0

        def objective(mat):
            stacked = coeffs.copy()
            stacked[target] = mat
            value, _ = naive_stress_and_grad(CoefficientSet(stacked, cs.knots), tensor)
            return value

        numeric = central_difference_gradient(objective, coeffs[target])
        npt.assert_allclose(grads[target], numeric,
                            atol=1e-5 * (1 + np.abs(numeric).max()))


class TestGenerate:
    def test_static_cloud_identical_slices(self):
        scen = SyntheticScenario("static_cloud", n=4, p_true=3, m=6, seed=0)
        _, tensor, truth = generate(scen)
        for s in tensor.values[1:]:
            npt.assert_array_equal(s, tensor.values[0])
        npt.assert_array_equal(truth[:, 0, :], truth[:, -1, :])

    def test_smooth_rotation_exactly_planar(self):
        scen = SyntheticScenario("smooth_rotation", n=3, p_true=2, m=10, seed=5)
        _, tensor, _ = generate(scen)
        for s in tensor.values:
            recon = reconstructed_dissimilarity(classical_mds(DissimilarityMatrix(s), 2))
            npt.assert_allclose(recon.values, s, atol=1e-8)

    def test_deterministic_under_seed(self):
        scen = SyntheticScenario("random_walk_smoothed", n=3, p_true=2, m=8, seed=9)
        panel_a, tensor_a, truth_a = generate(scen)
        panel_b, tensor_b, truth_b = generate(scen)
        npt.assert_array_equal(panel_a.values, panel_b.values)
        npt.assert_array_equal(truth_a, truth_b)
        for sa, sb in zip(tensor_a.values, tensor_b.values):
            npt.assert_array_equal(sa, sb)

    def test_tensor_passes_validation(self):
        for kind in ("static_cloud", "smooth_rotation", "random_walk_smoothed"):
            scen = SyntheticScenario(kind, n=4, p_true=2, m=6, noise_sd=0.1, seed=1)
            _, tensor, _ = generate(scen)
            for s in tensor.values:
                assert validate(DissimilarityMatrix(s)).passed

    def test_panel_rows_cover_coordinates(self):
        scen = SyntheticScenario("smooth_rotation", n=3, p_true=2, m=7, seed=2)
        panel, _, truth = generate(scen)
        assert panel.n == 6 and panel.num_times == 7
        npt.assert_array_equal(panel.values[0], truth[0, :, 0])
        npt.assert_array_equal(panel.values[1], truth[0, :, 1])
        assert panel.labels[:2] == ("o1_c1", "o1_c2")

    def test_scalar_scenario_panel(self):
        scen = SyntheticScenario("static_cloud", n=3, p_true=1, m=5, seed=3)
        panel, _, truth = generate(scen)
        assert panel.labels == ("o1", "o2", "o3")
        npt.assert_array_equal(panel.values, truth[:, :, 0])

    def test_noise_changes_slices(self):
        quiet = generate(SyntheticScenario("static_cloud", n=3, p_true=2, m=4, seed=4))
        noisy = generate(
            SyntheticScenario("static_cloud", n=3, p_true=2, m=4, noise_sd=0.2, seed=4)
        )
        assert not np.array_equal(noisy[1].values[0], noisy[1].values[1])
        npt.assert_array_equal(quiet[2], noisy[2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "mystery"},
            {"kind": "static_cloud", "n": 1},
            {"kind": "smooth_rotation", "p_true": 3},
            {"kind": "static_cloud", "m": 1},
            {"kind": "static_cloud", "noise_sd": -0.5},
            {"kind": "static_cloud", "noise_sd": float("nan")},
            {"kind": "static_cloud", "noise_sd": float("inf")},
            {"kind": "static_cloud", "seed": -1},
        ],
    )
    def test_invalid_scenarios_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticScenario(**kwargs)
