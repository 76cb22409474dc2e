"""Tests for the exhaustive grid oracle and the random-search baseline."""

import itertools

import numpy as np
import pytest

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
    with pytest.raises(ValueError) as exc:
        GridSpec(box=((-2.0, 2.0), (-2.0, 2.0)), resolution=100000,
                 max_nodes=10 ** 6)
    assert "cap" in str(exc.value)


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
    """``obj`` keeping a copy of every batch it evaluates; with ``edges`` the
    first node of each batch is NaN and the last -inf."""
    def fn(x):
        values = obj.fn(x)
        if x.ndim == 2:
            batches.append(x.copy())
            if edges and len(x):
                values = np.array(values, dtype=float)
                values[0], values[-1] = np.nan, -np.inf
        return values
    return Objective(name=obj.name, dimension=obj.dimension, fn=fn, init_box=obj.init_box)


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
            # Every lattice node from one meshgrid in C order.
            axes = [_axis(lo, hi, spec.resolution) for lo, hi in spec.box]
            points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
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
