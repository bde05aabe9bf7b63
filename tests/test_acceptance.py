"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the observed deviations. Regression values recorded on the first
successful run are asserted alongside the stated tolerances.
"""

import hashlib
import time
from pathlib import Path

import numpy as np

from fmds import (
    CoefficientSet,
    DissimilarityTensor,
    FitConfig,
    SyntheticScenario,
    basis_matrix,
    classical_mds,
    euclidean_dissimilarity,
    eval_basis,
    evaluate_trajectories,
    fit,
    generate,
    init_random,
    make_knots,
    pair_gradients,
    pair_stress,
    reconstructed_dissimilarity,
    smooth_least_squares,
    stress,
)
from fmds.cli import main as cli_main
from naive_reference import AdamState


def _criterion(num: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


def _random_knots(rng, orders=(1, 2, 3, 4)):
    order = int(rng.choice(orders))
    count = int(rng.integers(0, 7))
    a = float(rng.uniform(-3.0, 3.0))
    b = a + float(rng.uniform(0.5, 4.0))
    interior = np.unique(rng.uniform(a, b, count))
    interior = interior[(interior > a) & (interior < b)]
    return make_knots((a, b), interior, order)


def _random_instance(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(4, 9))
    p = int(rng.integers(1, 4))
    interior = int(rng.integers(0, 3))  # q = 4 + interior <= 6
    kv = make_knots((0.0, 1.0), np.linspace(0, 1, interior + 2)[1:-1], order=4)
    grid = np.linspace(0.0, 1.0, m)
    values = np.stack(
        [euclidean_dissimilarity(rng.uniform(size=(n, max(p, 2)))).values for _ in range(m)]
    )
    coeffs = rng.normal(size=(n, p, kv.num_basis)) * 0.5
    return DissimilarityTensor(grid, values), coeffs, kv


def test_criterion_01_partition_of_unity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        kv = _random_knots(rng)
        t = float(rng.uniform(*kv.domain))
        worst = max(worst, abs(eval_basis(kv, t).sum() - 1.0))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"partition of unity over 1000 draws: max |sum - 1| = {worst:.3e} "
        f"(tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_02_polynomial_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    grid = np.linspace(0.0, 1.0, 50)
    kv = make_knots((0.0, 1.0), np.linspace(0.0, 1.0, 7)[1:-1], order=4)
    phi = basis_matrix(kv, grid)
    worst = 0.0
    for _ in range(10):
        samples = np.polyval(rng.normal(size=4), grid)
        curve = smooth_least_squares(samples, phi)
        worst = max(worst, np.abs(phi.values @ curve.coefficients - samples).max())
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        worst <= 1e-9 and elapsed < 1.0,
        f"degree-3 reproduction (m=50, 5 interior knots): max residual = "
        f"{worst:.3e} (tol 1e-9), {elapsed:.2f}s",
    )


def test_criterion_03_cmds_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_recon = 0.0
    worst_tail = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(1, 4))
        matrix = euclidean_dissimilarity(rng.normal(size=(n, p)))
        solution = classical_mds(matrix, p)
        recon = reconstructed_dissimilarity(solution)
        worst_recon = max(worst_recon, np.abs(recon.values - matrix.values).max())
        tail = np.abs(solution.eigenvalues[p:]).max() / solution.eigenvalues[0]
        worst_tail = max(worst_tail, tail)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        worst_recon <= 1e-8 and worst_tail <= 1e-8 and elapsed < 5.0,
        f"50 exact-recovery trials: max recon error = {worst_recon:.3e} (tol 1e-8), "
        f"max trailing eigenvalue ratio = {worst_tail:.3e} (tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    step_scale = 1e-6
    for _ in range(100):
        tensor, coeffs, kv = _random_instance(rng)
        n = coeffs.shape[0]
        h = int(rng.integers(0, n - 1))
        j = int(rng.integers(h + 1, n))
        analytic, negated = pair_gradients(coeffs[h], coeffs[j], tensor, h, j, kv)
        assert np.array_equal(negated, -analytic)
        numeric = np.zeros_like(analytic)
        for idx in np.ndindex(analytic.shape):
            width = step_scale * (1.0 + abs(coeffs[h][idx]))
            plus = coeffs[h].copy()
            plus[idx] += width
            minus = coeffs[h].copy()
            minus[idx] -= width
            numeric[idx] = (
                pair_stress(plus, coeffs[j], tensor, h, j, kv)
                - pair_stress(minus, coeffs[j], tensor, h, j, kv)
            ) / (2.0 * width)
        dev = np.abs(analytic - numeric).max() / (1.0 + np.abs(numeric).max())
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        worst <= 1e-5 and elapsed < 10.0,
        f"100 finite-difference trials: max relative deviation = {worst:.3e} "
        f"(tol 1e-5), sign flip exact, {elapsed:.2f}s",
    )


def test_criterion_05_objective_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(25):
        tensor, coeffs, kv = _random_instance(rng)
        n = coeffs.shape[0]
        total = stress(CoefficientSet(coeffs, kv), tensor)
        parts = sum(
            pair_stress(coeffs[h], coeffs[j], tensor, h, j, kv)
            for h in range(n) for j in range(h + 1, n)
        )
        worst = max(worst, abs(parts - total) / (1e-10 * (1.0 + total)))
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        worst <= 1.0 and elapsed < 1.0,
        f"pair decomposition over 25 instances: worst deviation = {worst:.3f} x "
        f"tolerance 1e-10*(1+F), {elapsed:.2f}s",
    )


def test_criterion_06_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(100):
        tensor, coeffs, kv = _random_instance(rng)
        base = stress(CoefficientSet(coeffs, kv), tensor)
        p = coeffs.shape[1]
        if trial % 2 == 0:
            gamma, _ = np.linalg.qr(rng.normal(size=(p, p)))
            moved = np.einsum("ab,ibq->iaq", gamma, coeffs)
        else:
            moved = coeffs + rng.normal(size=coeffs.shape[1:])
        worst = max(worst, abs(stress(CoefficientSet(moved, kv), tensor) - base))
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        worst <= 1e-10 and elapsed < 5.0,
        f"orthogonal/translation invariance over 100 trials: max |delta F| = "
        f"{worst:.3e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_07_end_to_end_recovery():
    start = time.perf_counter()
    scenario = SyntheticScenario("smooth_rotation", n=5, p_true=2, m=40,
                                 noise_sd=0.0, seed=42)
    _, tensor, _ = generate(scenario)
    config = FitConfig(p=2, interior_knots=4, alpha=0.001, gamma1=0.9,
                       gamma2=0.999, max_epochs=2000, rng_seed=42)
    result = fit(tensor, config)
    trajectory = evaluate_trajectories(result.coefficients, tensor.time_grid)
    observed = tensor.stacked()
    max_error = float(np.abs(trajectory.fitted_dissimilarities - observed).max())
    error_budget = 0.05 * observed.max()
    final = float(result.stress_per_epoch[-1])
    random_start = stress(init_random(tensor, config), tensor)
    elapsed = time.perf_counter() - start

    passed = (
        max_error <= error_budget
        and final <= 0.01 * random_start
        and result.epochs_run <= 2000
        and elapsed < 60.0
        # regression values recorded on the first successful run
        and np.isclose(final, 8.7960736436403684e-09, rtol=1e-6)
        and np.isclose(max_error, 4.8157507946955391e-06, rtol=1e-6)
    )
    _criterion(
        7,
        passed,
        f"end-to-end recovery: max |dhat - d| = {max_error:.3e} "
        f"(budget {error_budget:.3e}), final stress = {final:.3e} "
        f"(budget {0.01 * random_start:.3e}), {result.epochs_run} epochs, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_warm_start_value():
    start = time.perf_counter()
    scenario = SyntheticScenario("smooth_rotation", n=5, p_true=2, m=40,
                                 noise_sd=0.0, seed=42)
    _, tensor, _ = generate(scenario)
    wins = 0
    for seed in range(20):
        warm = fit(tensor, FitConfig(p=2, interior_knots=4, max_epochs=1,
                                     rng_seed=seed))
        random_init = fit(tensor, FitConfig(p=2, interior_knots=4, max_epochs=1,
                                            rng_seed=seed, init_mode="random"))
        if warm.stress_per_epoch[0] < random_init.stress_per_epoch[0]:
            wins += 1
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        wins >= 18 and elapsed < 120.0,
        f"warm start beats random init after the first epoch in {wins}/20 seeds "
        f"(need >= 18), {elapsed:.1f}s",
    )


def test_criterion_09_cli_determinism(tmp_path):
    start = time.perf_counter()
    synth_dir = tmp_path / "synth"
    code = cli_main(["synth", "--scenario", "smooth_rotation", "--n", "5", "--m", "40",
                     "--seed", "42", "--out", str(synth_dir)])
    assert code == 0
    out = tmp_path / "run"
    args = ["fmds", "--input", str(synth_dir / "tensor.csv"), "--dim", "2",
            "--knots", "4", "--max-epochs", "2000", "--seed", "42",
            "--out", str(out), "--deterministic"]
    assert cli_main(args) == 0
    first = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(out).iterdir())
    }
    assert cli_main(args) == 0
    second = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(out).iterdir())
    }
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        first == second and len(first) >= 7 and elapsed < 60.0,
        f"two deterministic runs produced byte-identical outputs "
        f"({len(first)} files), {elapsed:.1f}s",
    )


def test_criterion_10_adam_first_step():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(20):
        state = AdamState.zeros(1, 3, 4)
        gradient = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-6, 3)
        delta = state.step(0, gradient)
        expected = -state.alpha * gradient / (np.abs(gradient) + state.denom_shift)
        worst = max(worst, float(np.abs(delta - expected).max()))
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        worst <= 1e-15 and elapsed < 1.0,
        f"first update from zero moments: max |delta - closed form| = {worst:.3e} "
        f"(tol 1e-15), {elapsed:.2f}s",
    )
