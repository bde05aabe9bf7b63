"""Property tests: invariances of the correlation dissimilarity and the
B-spline basis, and the condensed storage of tensors, over generated
inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fmds import (  # noqa: E402
    ObjectPanel,
    basis_matrix,
    euclidean_dissimilarity,
    make_knots,
    rolling_dissimilarity_tensor,
)
from fmds.cmds import _mds_blocks  # noqa: E402
from fmds.io import ingest_tensor  # noqa: E402

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
    """``_mds_blocks`` gives the same bits on the condensed pairs as on the
    full (m, n, n) array, for every embedding dimension up to 2."""
    for p in range(1, min(n - 1, 2) + 1):
        got, expected = list(_mds_blocks(condensed, p)), list(_mds_blocks(full, p))
        assert len(got) == len(expected)
        for (configurations, eigenvalues), (ref_configurations, ref_eigenvalues) in zip(
                got, expected):
            assert configurations.tobytes() == ref_configurations.tobytes()
            assert eigenvalues.tobytes() == ref_eigenvalues.tobytes()


@settings(deadline=None, max_examples=60)
@given(seed=SEEDS, n=st.integers(2, 7), m=st.integers(12, 30), data=st.data())
def test_rolling_tensor_pairs_rebuild_the_full_slices(seed, n, m, data):
    panel = _random_panel(seed, n, m)
    metric = data.draw(st.sampled_from(["correlation", "euclidean"]), label="metric")
    window = data.draw(st.integers(2, 12), label="window")
    stride = data.draw(st.integers(1, 3), label="stride")
    tensor = rolling_dissimilarity_tensor(panel, metric, window, stride)
    assert tensor._stored.shape == (n * (n - 1) // 2, tensor.num_times)
    windows = [panel.values[:, s:s + window] for s in range(0, m - window + 1, stride)]
    if metric == "correlation":
        full = np.stack([_correlation_slice(w) for w in windows])
    else:
        full = np.stack([euclidean_dissimilarity(w).values for w in windows])
    condensed = tensor._stored
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
    condensed = tensor._stored
    assert condensed.shape == (n * (n - 1) // 2, len(times))
    assert tensor.values.tobytes() == full.tobytes()
    _same_blocks(condensed, full, n)
