"""Tests for the exhaustive grid oracle and the random-search baseline."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basopt import oracle
from basopt.objectives import Objective, lookup_objective
from basopt.oracle import GridSpec, _axis, grid_search, random_search_baseline


def _constant_objective(value=0.0):
    return Objective(name="const", dimension=2,
                     fn=lambda x: np.sum(x * 0.0, axis=-1) + value,
                     init_box=((0.0, 1.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# GridSpec

def test_gridspec_counts_nodes():
    spec = GridSpec(box=((-2.0, 2.0), (-2.0, 2.0)), resolution=401)
    assert spec.dimension == 2
    assert spec.n_nodes == 401 * 401


def test_axis_hits_endpoints_and_rational_interior_nodes():
    axis = _axis(-2.0, 2.0, 401)
    assert axis[0] == -2.0 and axis[-1] == 2.0
    assert 0.0 in axis and -1.0 in axis
    assert axis.shape == (401,)
    assert np.all(np.diff(axis) > 0)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(box=((0.0, 1.0),), resolution=1)
    with pytest.raises(ValueError):
        GridSpec(box=((1.0, 0.0),), resolution=10)
    with pytest.raises(ValueError):
        GridSpec(box=(), resolution=10)
    # the width 1.6e308 is a double, but nine widths are not
    with pytest.raises(ValueError, match=r"box \(resolution - 1\) \* \(hi - lo\) overflows"):
        GridSpec(box=((-8e307, 8e307),), resolution=10)
    assert GridSpec(box=((-8e307, 8e307),), resolution=2).n_nodes == 2


def test_gridspec_node_cap_enforced_at_construction():
    assert oracle._MAX_NODES == 10 ** 8
    assert GridSpec(box=((-2.0, 2.0), (-2.0, 2.0)), resolution=10 ** 4).n_nodes == 10 ** 8
    with pytest.raises(ValueError) as exc:
        GridSpec(box=((-2.0, 2.0), (-2.0, 2.0)), resolution=10 ** 4 + 1)
    assert str(exc.value) == "grid of 100020001 nodes exceeds the cap of 100000000"


# ---------------------------------------------------------------------------
# grid_search

def test_grid_finds_goldstein_price_minimum_exactly():
    obj = lookup_objective("goldstein_price", 2)
    point, value = grid_search(obj, GridSpec(box=obj.init_box, resolution=401))
    assert value == 3.0
    assert np.array_equal(point, [0.0, -1.0])


def test_grid_sphere_origin():
    obj = lookup_objective("sphere", 3)
    point, value = grid_search(obj, GridSpec(box=obj.init_box, resolution=3))
    assert value == 0.0
    assert np.array_equal(point, [0.0, 0.0, 0.0])


def test_grid_constant_objective_lexicographic_tie_break():
    obj = _constant_objective(0.0)
    point, value = grid_search(obj, GridSpec(box=obj.init_box, resolution=5))
    assert value == 0.0
    assert np.array_equal(point, [0.0, 0.0])


def test_grid_matches_brute_force_enumeration():
    obj = lookup_objective("michalewicz", 2)
    spec = GridSpec(box=obj.init_box, resolution=13)
    point, value = grid_search(obj, spec)
    axes = [_axis(lo, hi, spec.resolution) for lo, hi in spec.box]
    best = None
    for coords in itertools.product(*axes):
        v = obj(np.array(coords))
        if best is None or v < best[1]:
            best = (coords, v)
    assert value == best[1]
    assert tuple(point) == best[0]


def _recording(obj, batches, edges):
    """``obj`` as the oracles use it, keeping a copy of every batch the
    oracle hands to ``batch``; with ``edges`` the first value of each batch
    is NaN and the last -inf. It records at ``batch``, not inside ``fn``,
    which ``Objective.batch`` may call once per row range of a batch."""
    def batch(points):
        batches.append(points.copy())
        values = obj.batch(points)
        if edges and len(points):
            values[0], values[-1] = np.nan, -np.inf
        return values
    return SimpleNamespace(name=obj.name, dimension=obj.dimension, batch=batch)


def _lattice(spec):
    """Every node of ``spec`` from one meshgrid, in C order."""
    axes = [_axis(lo, hi, spec.resolution) for lo, hi in spec.box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _single_pass(obj, points, non_finite):
    """The first smallest finite value of one batch over all of ``points``,
    entries listed in ``non_finite`` excluded: (point, value), both None
    when no value is finite."""
    values = obj.batch(points)
    values[non_finite] = np.nan
    values = np.where(np.isfinite(values), values, np.inf)
    j = int(np.argmin(values))
    if not np.isfinite(values[j]):
        return None, None
    return points[j], float(values[j])


def _edges(batches, edges):
    """Indices of the first and last point of every batch, if ``edges``."""
    sizes = np.array([len(b) for b in batches])
    ends = np.cumsum(sizes)
    return np.concatenate([ends - sizes, ends - 1]) if edges else []


def test_grid_chunk_boundaries_do_not_change_result(monkeypatch):
    """Wherever chunk boundaries fall, the chunked scan hands every node to
    ``Objective.batch`` exactly once in C order, no chunk holds more than
    ``_CHUNK`` nodes, and the result is the single-pass argmin, bit for bit,
    also when the nodes at every chunk edge are non-finite."""
    cases = [(lookup_objective("michalewicz", 2), 57), (lookup_objective("michalewicz", 3), 9),
             (_constant_objective(0.0), 13), (lookup_objective("sphere", 1), 40)]
    for (obj, r), edges in itertools.product(cases, [False, True]):
        spec = GridSpec(box=obj.init_box, resolution=r)
        for chunk in (1, 7, r - 1, r, r + 1, 3 * r + 2):
            where = f"{obj.name} k={obj.dimension} res={r} _CHUNK={chunk} edges={edges}"
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            batches = []
            try:
                result = grid_search(_recording(obj, batches, edges), spec)
            except ValueError as err:
                result = err

            sizes = np.array([len(b) for b in batches])
            assert sizes.max() <= chunk, where
            if r <= chunk:
                assert np.all(sizes % r == 0), where  # runs of whole rows
            points = _lattice(spec)
            want_point, want_value = _single_pass(obj, points, _edges(batches, edges))
            assert np.concatenate(batches).tobytes() == points.tobytes(), where
            if want_point is None:
                assert "not finite at any grid node" in str(result), where
            else:
                point, value = result
                assert point.tobytes() == want_point.tobytes(), where
                assert value.hex() == want_value.hex(), where


def test_grid_rows_longer_than_a_chunk_are_split():
    """A 1-D lattice of 2 * _CHUNK + 3 nodes at the real chunk size: three
    chunks, the minimum in the last one."""
    obj = Objective(name="slope", dimension=1, fn=lambda x: -np.add.reduce(x, axis=-1),
                    init_box=((0.0, 1.0),))
    spec = GridSpec(box=obj.init_box, resolution=2 * oracle._CHUNK + 3)
    batches = []
    point, value = grid_search(_recording(obj, batches, False), spec)
    assert [len(b) for b in batches] == [oracle._CHUNK, oracle._CHUNK, 3]
    assert point.tobytes() == np.array([1.0]).tobytes() and value == -1.0


def _hand_built(k):
    """A per-axis sum that is no registry function, so it is never summed
    per axis; its ``fn`` checks that it sees a plain array."""
    def fn(x):
        assert type(x) is np.ndarray
        return np.add.reduce(np.cos(x) * x, axis=-1)
    return Objective(name="hand", dimension=k, fn=fn, init_box=((0.0, 1.0),) * k)


# Box edges, one kind per example: ordinary coordinates; thirds, whose bits
# fill the mantissa, so that sums of 8 terms round differently pairwise than
# in index order; tiny negative ones and signed zeros, where every Michalewicz
# term is -0.0, so a sum that starts from its first term in place of 0.0
# gives +0.0 where it should give -0.0; huge ones, where squares and
# Michalewicz's i * x * x overflow; and all of these mixed.
_EDGES = {
    "ordinary": st.floats(-4.0, 4.0),
    "thirds": st.floats(-12.0, 12.0).map(lambda v: v / 3),
    "tiny": st.one_of(st.floats(100.0, 300.0).map(lambda e: -10.0 ** -e),
                      st.sampled_from([0.0, -0.0])),
    "huge": st.floats(150.0, 300.0).map(lambda e: 10.0 ** e).flatmap(
        lambda v: st.sampled_from([v, -v])),
}
_EDGES["mixed"] = st.one_of(*_EDGES.values())


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["michalewicz", "sphere", "goldstein_price", "hand"]),
       k=st.one_of(st.integers(1, 8), st.just(8)), data=st.data())
def test_grid_equals_the_argmin_of_one_plain_batch_bitwise(name, k, data):
    """On a lattice of at most 5000 nodes, with any chunk size, every chunk's
    values equal those of the same points as a plain array, bit for bit, the
    nodes reach ``batch`` once each in C order, and the result is the first
    argmin of one plain ``batch`` over the whole lattice: the same point
    bytes, a plain ``np.ndarray``, and the same value hex."""
    if name == "goldstein_price":
        k = 2
    obj = _hand_built(k) if name == "hand" else lookup_objective(name, k)
    r = data.draw(st.integers(2, max(2, int(5000 ** (1 / k)))), label="resolution")
    kind = _EDGES[data.draw(st.sampled_from(sorted(_EDGES)), label="edges")]
    edges = [sorted(data.draw(st.tuples(kind, kind), label="lo, hi")) for _ in range(k)]
    try:
        spec = GridSpec(box=edges, resolution=r)
    except ValueError:  # (r - 1) * (hi - lo) overflows
        assume(False)
    chunk = data.draw(st.one_of(st.integers(1, 64), st.sampled_from(
        [r - 1 or 1, r, r + 1, 3 * r + 2, 1 << 16])), label="_CHUNK")

    seen = []

    def batch(points):
        values = obj.batch(points)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = obj.batch(np.asarray(points))
        assert values.tobytes() == plain.tobytes()
        seen.append(np.array(points))
        return values

    checked = SimpleNamespace(name=obj.name, dimension=k, batch=batch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", chunk)
        try:
            result = grid_search(checked, spec)
        except ValueError as err:
            result = err

    points = _lattice(spec)
    assert np.concatenate(seen).tobytes() == points.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        values = obj.batch(points)
    values = np.where(np.isfinite(values), values, np.inf)
    i = int(np.argmin(values))
    if not np.isfinite(values[i]):
        assert "not finite at any grid node" in str(result)
    else:
        point, value = result
        assert type(point) is np.ndarray
        assert point.tobytes() == points[i].tobytes()
        assert value.hex() == float(values[i]).hex()


def test_grid_dimension_mismatch():
    obj = lookup_objective("goldstein_price", 2)
    with pytest.raises(ValueError):
        grid_search(obj, GridSpec(box=((0.0, 1.0),), resolution=4))


@pytest.mark.parametrize(
    "name,dim,coarse,fine",
    [
        ("michalewicz", 2, 50, 100),
        ("michalewicz", 2, 100, 200),
        ("goldstein_price", 2, 100, 200),
        ("goldstein_price", 2, 50, 100),
        ("sphere", 3, 4, 8),
        ("sphere", 3, 6, 12),
    ],
)
def test_grid_refinement_never_worse(name, dim, coarse, fine):
    obj = lookup_objective(name, dim)
    _, v_coarse = grid_search(obj, GridSpec(box=obj.init_box, resolution=coarse))
    _, v_fine = grid_search(obj, GridSpec(box=obj.init_box, resolution=fine))
    assert v_fine <= v_coarse


def test_grid_michalewicz_close_to_known_minimum():
    obj = lookup_objective("michalewicz", 2)
    _, value = grid_search(obj, GridSpec(box=obj.init_box, resolution=1000))
    assert abs(value - obj.known_optimum[1]) <= 1e-3


def _gappy_sphere():
    """Sphere on [0, 1]^2 that is NaN left of x_0 = 0.5 and -inf at x_0 = 1."""
    def fn(x):
        value = np.sum(x * x, axis=-1)
        value = np.where(x[..., 0] < 0.5, np.nan, value)
        return np.where(x[..., 0] == 1.0, -np.inf, value)
    return Objective(name="gappy", dimension=2, fn=fn, init_box=((0.0, 1.0), (0.0, 1.0)))


def test_non_finite_values_are_never_the_minimum():
    obj = _gappy_sphere()
    point, value = grid_search(obj, GridSpec(box=obj.init_box, resolution=11))
    assert np.array_equal(point, [0.5, 0.0]) and value == 0.25
    point, value = random_search_baseline(obj, obj.init_box, 1000, np.random.default_rng(0))
    assert 0.5 <= point[0] < 1.0 and value == np.sum(point * point)


def test_no_finite_value_is_an_error():
    obj = lookup_objective("sphere", 2)
    box = ((1e200, 1e201),) * 2  # every square overflows
    with pytest.raises(ValueError, match="not finite at any grid node"):
        grid_search(obj, GridSpec(box=box, resolution=10))
    with pytest.raises(ValueError, match="not finite at any sample"):
        random_search_baseline(obj, box, 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# random_search_baseline

def test_baseline_deterministic():
    obj = lookup_objective("michalewicz", 2)
    r1 = random_search_baseline(obj, obj.init_box, 500, np.random.default_rng(77))
    r2 = random_search_baseline(obj, obj.init_box, 500, np.random.default_rng(77))
    assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]


def test_baseline_samples_stay_inside_box():
    obj = lookup_objective("goldstein_price", 2)
    point, value = random_search_baseline(obj, obj.init_box, 1000,
                                          np.random.default_rng(3))
    assert np.all(point >= -2.0) and np.all(point <= 2.0)
    assert value == obj(point)


def test_baseline_degenerate_box():
    obj = lookup_objective("sphere", 2)
    point, value = random_search_baseline(obj, ((2.0, 2.0), (2.0, 2.0)), 10,
                                          np.random.default_rng(0))
    assert np.array_equal(point, [2.0, 2.0])
    assert value == 8.0


def test_baseline_improves_with_budget():
    obj = lookup_objective("michalewicz", 2)
    # A bigger draw from the same seed replays the same leading samples, so
    # the running minimum can only improve.
    _, small = random_search_baseline(obj, obj.init_box, 10,
                                      np.random.default_rng(5))
    _, large = random_search_baseline(obj, obj.init_box, 10000,
                                      np.random.default_rng(5))
    assert large <= small


def test_baseline_chunk_boundaries_do_not_change_result(monkeypatch):
    """Wherever chunk boundaries fall, the samples are one ``rng.uniform``
    draw of all ``n`` in order, no chunk holds more than ``_CHUNK`` of them,
    and the result is the single-pass argmin, bit for bit, also when the
    samples at every chunk edge are non-finite."""
    n = 40
    objectives = [lookup_objective("michalewicz", 2), lookup_objective("sphere", 3),
                  _constant_objective(0.0)]
    for obj, edges in itertools.product(objectives, [False, True]):
        box = np.asarray(obj.init_box)
        points = np.random.default_rng(11).uniform(box[:, 0], box[:, 1],
                                                   size=(n, obj.dimension))
        for chunk in (1, 7, n - 1, n, n + 1):
            where = f"{obj.name} k={obj.dimension} _CHUNK={chunk} edges={edges}"
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            batches = []
            try:
                result = random_search_baseline(_recording(obj, batches, edges), obj.init_box,
                                                n, np.random.default_rng(11))
            except ValueError as err:
                result = err

            assert max(len(b) for b in batches) <= chunk, where
            assert np.concatenate(batches).tobytes() == points.tobytes(), where
            want_point, want_value = _single_pass(obj, points, _edges(batches, edges))
            if want_point is None:
                assert "not finite at any sample" in str(result), where
            else:
                point, value = result
                assert point.tobytes() == want_point.tobytes(), where
                assert value.hex() == want_value.hex(), where


def test_baseline_validates_count():
    obj = lookup_objective("sphere", 1)
    with pytest.raises(ValueError):
        random_search_baseline(obj, ((0.0, 1.0),), 0, np.random.default_rng(0))
