"""Property tests: invariances of the correlation dissimilarity and the
B-spline basis over generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fmds import ObjectPanel, basis_matrix, make_knots, rolling_dissimilarity_tensor  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)


def _random_panel(seed, n, m):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(n, m)), axis=1) + rng.normal(size=(n, m))
    return ObjectPanel(tuple(f"o{i}" for i in range(n)), values, np.arange(float(m)))


@settings(deadline=None, max_examples=60)
@given(seed=SEEDS, n=st.integers(2, 7), m=st.integers(3, 40), data=st.data())
def test_correlation_invariant_under_positive_affine_maps(seed, n, m, data):
    panel = _random_panel(seed, n, m)
    window = data.draw(st.integers(2, m), label="window")
    stride = data.draw(st.integers(1, 4), label="stride")
    scale = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    shift = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    mapped = ObjectPanel(panel.labels, scale[:, None] * panel.values + shift[:, None],
                         panel.time_grid)
    base = rolling_dissimilarity_tensor(panel, "correlation", window, stride).stacked()
    moved = rolling_dissimilarity_tensor(mapped, "correlation", window, stride).stacked()
    np.testing.assert_allclose(moved, base, rtol=0.0, atol=1e-12)


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
