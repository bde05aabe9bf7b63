"""Property tests: invariances of the correlation dissimilarity, the
B-spline basis, the stress and the full-batch fit, and the condensed storage
of tensors, over generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from fmds import (  # noqa: E402
    CoefficientSet,
    DissimilarityMatrix,
    DissimilarityTensor,
    FitConfig,
    ObjectPanel,
    SyntheticScenario,
    basis_matrix,
    classical_mds,
    euclidean_dissimilarity,
    fit,
    generate,
    make_knots,
    rolling_dissimilarity_tensor,
    stress,
)
from fmds.cmds import _mds_slices  # noqa: E402
from fmds.io import ingest_tensor  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)


def _random_panel(seed, n, m):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(n, m)), axis=1) + rng.normal(size=(n, m))
    return ObjectPanel(tuple(f"o{i}" for i in range(n)), values, np.arange(float(m)))


@st.composite
def affine_maps(draw):
    """A panel's (seed, n, m), a window and stride, and per-object scales and
    shifts."""
    seed, n, m = draw(SEEDS), draw(st.integers(2, 7)), draw(st.integers(3, 40))
    window, stride = draw(st.integers(2, m)), draw(st.integers(1, 4))
    scale = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    shift = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    return seed, n, m, window, stride, scale, shift


def _window_conditioning(values, window, stride):
    """||w|| / ||w - mean(w)|| of every object's window w, as (windows, n)."""
    windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=1)[:, ::stride]
    centred = windows - windows.mean(axis=2, keepdims=True)
    return (np.linalg.norm(windows, axis=2) / np.linalg.norm(centred, axis=2)).T


@settings(deadline=None, max_examples=60)
@given(affine_maps())
@example((0, 4, 37, 3, 1, [1.0, 1.0, 1.0, 1 / 64], [0.0, 0.0, 0.0, 65.0]))
def test_correlation_invariant_under_positive_affine_maps(case):
    seed, n, m, window, stride, scale, shift = case
    panel = _random_panel(seed, n, m)
    mapped = ObjectPanel(panel.labels,
                         np.array(scale)[:, None] * panel.values + np.array(shift)[:, None],
                         panel.time_grid)
    base = rolling_dissimilarity_tensor(panel, "correlation", window, stride).stacked()
    moved = rolling_dissimilarity_tensor(mapped, "correlation", window, stride).stacked()
    # Rounding scale * y + shift perturbs each entry by up to 2^-53 of its
    # magnitude, so a window's centred series moves by about kappa * 2^-53
    # relative, kappa = ||w|| / ||w - mean(w)||, before the correlation is
    # computed; a shift far above a window's spread makes kappa large.
    kappa = np.maximum(_window_conditioning(panel.values, window, stride),
                       _window_conditioning(mapped.values, window, stride))
    atol = 1e-12 + 16 * 2.0**-53 * (kappa[:, :, None] + kappa[:, None, :])
    np.testing.assert_array_less(np.abs(moved - base), atol)


@settings(deadline=None, max_examples=60)
@given(seed=SEEDS, n=st.integers(2, 8), m=st.integers(2, 30), data=st.data())
def test_relabelling_permutes_slices_exactly(seed, n, m, data):
    panel = _random_panel(seed, n, m)
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    window = data.draw(st.integers(2, m), label="window")
    relabelled = ObjectPanel(tuple(panel.labels[k] for k in perm), panel.values[perm],
                             panel.time_grid)
    base = rolling_dissimilarity_tensor(panel, "correlation", window, 1).stacked()
    moved = rolling_dissimilarity_tensor(relabelled, "correlation", window, 1).stacked()
    assert np.array_equal(moved, base[:, perm][:, :, perm])


@st.composite
def knots_and_points(draw):
    order = draw(st.integers(1, 5))
    a = draw(st.floats(-100.0, 100.0))
    b = a + draw(st.floats(1e-3, 100.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=8, unique=True))
    interior = np.unique(a + (b - a) * np.asarray(fractions, dtype=float))
    interior = interior[(interior > a) & (interior < b)]
    points = a + (b - a) * np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                                    max_size=30)))
    points = np.clip(np.concatenate([points, interior]), a, b)
    return make_knots((a, b), interior, order), points


@settings(deadline=None, max_examples=200)
@given(knots_and_points())
def test_basis_rows_are_a_local_partition_of_unity(case):
    kv, points = case
    values = basis_matrix(kv, points).values
    assert values.shape == (points.size, kv.num_basis)
    assert np.all(values >= 0.0)
    np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(np.count_nonzero(values, axis=1) <= kv.order)


def _correlation_slice(values):
    """(1 - R) / 2 of one window by an i < j pair loop, both triangles."""
    centered = values - values.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered * centered).sum(axis=1))
    out = np.zeros((len(values), len(values)))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            r = float(centered[i] @ centered[j]) / (scale[i] * scale[j])
            out[i, j] = out[j, i] = (1.0 - float(np.clip(r, -1.0, 1.0))) / 2.0
    return out


def _same_blocks(condensed, full, n):
    """``_mds_slices`` on the condensed pairs gives each slice the bits of
    ``classical_mds`` on the full (n, n) slice, for every embedding
    dimension up to 2."""
    for p in range(1, min(n - 1, 2) + 1):
        got = list(_mds_slices(condensed, n, p))
        assert len(got) == len(full)
        for (configuration, eigenvalues), values in zip(got, full):
            expected = classical_mds(DissimilarityMatrix(values), p)
            assert configuration.tobytes() == expected.configuration.tobytes()
            assert eigenvalues.tobytes() == expected.eigenvalues.tobytes()


@settings(deadline=None, max_examples=60)
@given(seed=SEEDS, n=st.integers(2, 7), m=st.integers(12, 30), data=st.data())
def test_rolling_tensor_pairs_rebuild_the_full_slices(seed, n, m, data):
    panel = _random_panel(seed, n, m)
    metric = data.draw(st.sampled_from(["correlation", "euclidean"]), label="metric")
    window = data.draw(st.integers(2, 12), label="window")
    stride = data.draw(st.integers(1, 3), label="stride")
    tensor = rolling_dissimilarity_tensor(panel, metric, window, stride)
    assert tensor._pairs.shape == (n * (n - 1) // 2, tensor.num_times)
    windows = [panel.values[:, s:s + window] for s in range(0, m - window + 1, stride)]
    if metric == "correlation":
        full = np.stack([_correlation_slice(w) for w in windows])
    else:
        full = np.stack([euclidean_dissimilarity(w).values for w in windows])
    condensed = tensor._pairs
    assert tensor.values.tobytes() == full.tobytes()
    _same_blocks(condensed, full, n)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_ingested_tensor_pairs_rebuild_the_full_slices(tmp_path_factory, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(2, 6), label="n")
    ids = sorted(data.draw(st.lists(st.integers(-50, 10**6), min_size=n, max_size=n,
                                    unique=True), label="ids"))
    times = sorted(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4,
                                      unique=True), label="times"))
    write_order = data.draw(st.booleans(), label="write_order")
    rows = []
    for t in times:
        for a in range(n):
            for b in range(a + 1, n):
                d = rnd.choice([0.0, rnd.uniform(0.0, 10.0)])
                i, j = rnd.sample((ids[a], ids[b]), 2)
                rows.append((t, i, j, d))
                if not write_order and rnd.random() < 0.3:
                    rows.append((t, j, i, d + rnd.uniform(0.0, 5e-11)))
    if not write_order:
        rnd.shuffle(rows)
    # the former ingest: a pair's first row in file order, in both triangles
    full = np.zeros((len(times), n, n))
    for t, i, j, d in reversed(rows):
        k, a, b = times.index(t), ids.index(i), ids.index(j)
        full[k, a, b] = full[k, b, a] = d
    path = tmp_path_factory.mktemp("pairs") / "t.csv"
    path.write_text("t,i,j,d\n" + "".join(f"{t!r},{i},{j},{d!r}\n" for t, i, j, d in rows))
    tensor = ingest_tensor(path)
    condensed = tensor._pairs
    assert condensed.shape == (n * (n - 1) // 2, len(times))
    assert tensor.values.tobytes() == full.tobytes()
    _same_blocks(condensed, full, n)


EPS = 2.0**-53


@st.composite
def stress_instances(draw):
    """Random coefficients and a random tensor of the same n objects, not
    fitted to each other: (coefficients, knots, tensor)."""
    rng = np.random.default_rng(draw(SEEDS))
    n, m, p = draw(st.integers(2, 8)), draw(st.integers(4, 12)), draw(st.integers(1, 4))
    interior = np.linspace(0.0, 1.0, draw(st.integers(0, 3)) + 2)[1:-1]
    knots = make_knots((0.0, 1.0), interior, order=4)
    coeffs = rng.normal(size=(n, p, knots.num_basis)) * 10.0 ** draw(st.integers(-3, 3))
    h, j = np.triu_indices(n, 1)
    values = np.zeros((m, n, n))
    values[:, h, j] = rng.uniform(size=(m, h.size)) * 10.0 ** draw(st.integers(-3, 3))
    values[:, j, h] = values[:, h, j]
    return coeffs, knots, DissimilarityTensor(np.linspace(0.0, 1.0, m), values)


def _stress_rounding(coeffs, knots, tensor):
    """A bound on |F - F'| for the stress F of ``coeffs`` and the stress F'
    of the same coefficients under an orthogonal map or a relabelling.

    a_i(t) = sum_k |B_k(t)| ||C_i[:, k]||_2 bounds ||x_i(t)||, and neither
    map changes it. Each computed coordinate difference of a pair is off by
    at most (p sqrt(p) + q + 2) eps (a_h + a_j): q for the basis product,
    p sqrt(p) for the map applied to the coefficients, 2 for the positions'
    subtraction. So a residual r = d^2 - ||x_h - x_j||^2 moves by at most
        delta = 4 p (p sqrt(p) + q + 2) eps (a_h + a_j)^2 + eps |r|,
    its square by 2 |r| delta + delta^2, and the pairwise sum of N squares
    by (ceil(log2 N) + 1) eps F. Both evaluations may be off, hence the 2.
    """
    n, p, q = coeffs.shape
    basis = basis_matrix(knots, tensor.time_grid).values
    a = np.abs(basis) @ np.linalg.norm(coeffs, axis=1).T
    h, j = np.triu_indices(n, 1)
    scale = (a[:, h] + a[:, j]).T
    pos = np.einsum("ipq,kq->ikp", coeffs, basis)
    r = np.abs(np.square(tensor._pairs) - ((pos[h] - pos[j]) ** 2).sum(axis=-1))
    delta = 4 * p * (p * np.sqrt(p) + q + 2) * EPS * scale**2 + EPS * r
    levels = np.ceil(np.log2(max(r.size, 2))) + 1
    return 2 * float((2 * r * delta + delta**2).sum() + levels * EPS * (r * r).sum())


@settings(deadline=None, max_examples=100)
@given(stress_instances(), SEEDS, st.booleans())
def test_stress_invariant_under_a_common_orthogonal_map(case, seed, reflect):
    coeffs, knots, tensor = case
    p = coeffs.shape[1]
    gamma, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))
    if reflect:
        gamma[:, 0] *= -1.0
    mapped = np.einsum("ab,ibq->iaq", gamma, coeffs)
    base = stress(CoefficientSet(coeffs, knots), tensor)
    moved = stress(CoefficientSet(mapped, knots), tensor)
    assert abs(moved - base) <= _stress_rounding(coeffs, knots, tensor)


@settings(deadline=None, max_examples=100)
@given(stress_instances(), st.data())
def test_stress_invariant_under_relabelling(case, data):
    coeffs, knots, tensor = case
    perm = np.array(data.draw(st.permutations(range(len(coeffs))), label="perm"))
    relabelled = DissimilarityTensor(tensor.time_grid, tensor.values[:, perm][:, :, perm])
    base = stress(CoefficientSet(coeffs, knots), tensor)
    moved = stress(CoefficientSet(coeffs[perm], knots), relabelled)
    assert abs(moved - base) <= _stress_rounding(coeffs, knots, tensor)


# The full-batch gradient step has no visiting order, so relabelling the
# objects or moving the time axis leaves its fit unchanged but for rounding.
GD_EPOCHS = FitConfig(p=2, alpha=1e-4, max_epochs=20, baseline="full_batch_gd")


def _gd_stress(tensor):
    """stress_per_epoch of 20 warm-started full-batch epochs."""
    result = fit(tensor, GD_EPOCHS)
    assert result.epochs_run == 20
    return result.stress_per_epoch


@st.composite
def walk_tensors(draw):
    """A warm-startable random_walk_smoothed tensor of 3 to 8 objects."""
    scenario = SyntheticScenario("random_walk_smoothed", n=draw(st.integers(3, 8)),
                                 m=draw(st.integers(6, 30)), seed=draw(SEEDS))
    return generate(scenario)[1]


@settings(deadline=None, max_examples=30)
@given(walk_tensors(), st.data())
def test_full_batch_fit_invariant_under_relabelling(tensor, data):
    perm = np.array(data.draw(st.permutations(range(tensor.n)), label="perm"))
    relabelled = DissimilarityTensor(tensor.time_grid, tensor.values[:, perm][:, :, perm])
    base, moved = _gd_stress(tensor), _gd_stress(relabelled)
    # relabelling reorders the sums of the stress and the gradient and the
    # rows of each slice's eigenproblem, each a rounding of about EPS
    # relative, which 20 steps carry forward: the worst of 120 cases was
    # 4.9e-15 relative, so 1e-12 leaves room for rounding and is far below
    # what the 20 steps change (a few percent)
    assert (np.abs(moved - base) / base).max() <= 1e-12


@settings(deadline=None, max_examples=30)
@given(walk_tensors(), st.floats(-1e3, 1e3), st.floats(-3.0, 3.0))
@example(generate(SyntheticScenario("random_walk_smoothed", n=5, m=19, seed=7))[1], 1e3, -3.0)
def test_full_batch_fit_invariant_under_a_time_affine_map(tensor, shift, log_scale):
    grid = shift + 10.0**log_scale * tensor.time_grid
    base = _gd_stress(tensor)
    moved = _gd_stress(DissimilarityTensor(grid, tensor.values))
    # the basis depends on t only through (t - t_0) / (t_last - t_0); the
    # mapped grid and its knots are each rounded to EPS of their magnitude,
    # which moves that ratio by about kappa * EPS, kappa = max |t'| / span.
    # The basis slopes and the fit's 20 steps scale it by a constant that
    # measured at most 26 over 120 cases (kappa up to 1e6); 2^10 leaves room
    kappa = np.abs(grid).max() / (grid[-1] - grid[0])
    assert (np.abs(moved - base) / base).max() <= 1e-13 + 2.0**10 * kappa * EPS
