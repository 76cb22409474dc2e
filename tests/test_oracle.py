"""Tests for the exhaustive grid oracle and the random-search baseline."""

import itertools
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basopt import objectives, oracle
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


def _plain_argmin(obj, spec):
    """The first argmin of one plain-array ``batch`` over every node of
    ``spec``: (point, value), both None when no value is finite."""
    points = _lattice(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        values = obj.batch(points)
    values = np.where(np.isfinite(values), values, np.inf)
    i = int(np.argmin(values))
    if not np.isfinite(values[i]):
        return None, None
    return points[i], float(values[i])


def _assert_plain_argmin(obj, spec, result):
    """``result``, a ``grid_search`` result or its error, is the first argmin
    of one plain batch: the same point bytes, a plain ``np.ndarray``, and
    the same value hex."""
    want_point, want_value = _plain_argmin(obj, spec)
    if want_point is None:
        assert "not finite at any grid node" in str(result)
    else:
        point, value = result
        assert type(point) is np.ndarray
        assert point.tobytes() == want_point.tobytes()
        assert value.hex() == want_value.hex()


# The shipped chunk size, read before any test replaces it.
_DEFAULT_CHUNK = oracle._CHUNK

# How chunks fall, one kind per example: any _CHUNK; pieces of rows
# (_CHUNK below the resolution, k = 1 to 3, or 2 for Goldstein-Price), plain
# batches that must not share the last axis's column; a _CHUNK of exactly
# the resolution, one whole row a chunk; and runs of whole rows with a last
# chunk of fewer runs (k >= 2).
_CHUNKINGS = ("any", "pieces", "exact", "ragged")


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["michalewicz", "sphere", "goldstein_price", "hand"]),
       k=st.one_of(st.integers(1, 8), st.just(8)), chunking=st.sampled_from(_CHUNKINGS),
       data=st.data())
def test_grid_equals_the_argmin_of_one_plain_batch_bitwise(name, k, chunking, data):
    """On a lattice of at most about 6600 nodes, with any chunk size, every
    chunk is read-only and its values equal those of the same points as a
    plain array, bit for bit, the nodes reach ``batch`` once each in C order,
    and the result is the first argmin of one plain ``batch`` over the whole
    lattice."""
    if name == "goldstein_price":
        k = 2
    elif chunking == "pieces":
        k = data.draw(st.integers(1, 3), label="k")
    elif chunking == "ragged":
        k = max(k, 2)
    obj = _hand_built(k) if name == "hand" else lookup_objective(name, k)
    least = 3 if chunking == "ragged" else 2
    r = data.draw(st.integers(least, max(least, int(5000 ** (1 / k)))), label="resolution")
    kind = _EDGES[data.draw(st.sampled_from(sorted(_EDGES)), label="edges")]
    edges = [sorted(data.draw(st.tuples(kind, kind), label="lo, hi")) for _ in range(k)]
    try:
        spec = GridSpec(box=edges, resolution=r)
    except ValueError:  # (r - 1) * (hi - lo) overflows
        assume(False)
    if chunking == "pieces":
        chunk = data.draw(st.integers(1, r - 1), label="_CHUNK")
    elif chunking == "exact":
        chunk = r
    elif chunking == "ragged":
        n_rows = r ** (k - 1)
        runs = data.draw(st.integers(2, n_rows - 1), label="runs per chunk")
        if n_rows % runs == 0:
            runs = n_rows - 1
        chunk = runs * r + data.draw(st.integers(0, r - 1), label="spare nodes")
    else:
        chunk = data.draw(st.one_of(st.integers(1, 64), st.sampled_from(
            [r - 1 or 1, r, r + 1, 3 * r + 2, _DEFAULT_CHUNK])), label="_CHUNK")

    seen = []

    def batch(points):
        assert not points.flags.writeable
        values = obj.batch(points)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = obj.batch(np.array(points))
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

    sizes = [len(points) for points in seen]
    assert max(sizes) <= chunk
    if chunking == "pieces":
        assert len(seen) == r ** (k - 1) * -(-r // chunk)
    elif chunking == "ragged":
        assert sizes[-1] < sizes[0]
    assert np.concatenate(seen).tobytes() == _lattice(spec).tobytes()
    _assert_plain_argmin(obj, spec, result)


@pytest.mark.parametrize("name", ["michalewicz", "sphere"])
def test_each_axis_terms_are_computed_once_per_search(monkeypatch, name):
    """Over runs of whole rows of 2 to 7 axes a search calls the terms
    function once per axis, k calls whatever the number of chunks, and never
    ``fn``. A 1-D grid, whether one row or pieces, rows cut into pieces and
    8 axes make no terms call: each chunk is one ``fn`` call. A second
    search calls the terms again: nothing is kept across searches."""
    lattice, plain = [], []

    def counted(terms, calls):
        def wrapped(x, *args):
            calls.append(args[0] if args else None)
            return terms(x, *args)
        return wrapped

    # The lattice sums take their terms from _PER_AXIS, fn from the module.
    monkeypatch.setattr(objectives, "_PER_AXIS", tuple(
        (fn, counted(terms, lattice), negate) for fn, terms, negate in objectives._PER_AXIS))
    fn_terms = f"_{name}_terms"
    monkeypatch.setattr(objectives, fn_terms, counted(getattr(objectives, fn_terms), plain))
    sizes = [120, 1000, _DEFAULT_CHUNK]
    # k = 2 and 3 are runs of whole rows at these sizes; k = 1 at 2500 nodes
    # is one row at the default chunk and pieces below it; chunks of 7 and
    # 30 cut the k = 2 rows into pieces.
    for (k, r), chunk in [*itertools.product([(2, 50), (3, 20), (1, 2500)], sizes),
                          ((2, 50), 7), ((2, 50), 30), ((8, 3), 120), ((8, 3), _DEFAULT_CHUNK)]:
        obj = lookup_objective(name, k)
        spec = GridSpec(box=obj.init_box, resolution=r)
        batches = []
        counted_obj = SimpleNamespace(name=obj.name, dimension=k,
                                      batch=lambda p, obj=obj, batches=batches:
                                      batches.append(len(p)) or obj.batch(p))
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for _ in range(2):
            where = f"k={k} res={r} _CHUNK={chunk}"
            lattice.clear()
            plain.clear()
            batches.clear()
            result = grid_search(counted_obj, spec)
            per_axis = 1 < k < 8 and r <= chunk
            assert lattice == (list(map(float, range(1, k + 1))) if per_axis else []), where
            assert len(plain) == (0 if per_axis else len(batches)), where
            assert len(batches) == (r ** (k - 1) * -(-r // chunk) if r > chunk
                                    else -(-r ** (k - 1) // (chunk // r))), where
            _assert_plain_argmin(obj, spec, result)


def test_the_1000_squared_grid_is_32_batches():
    """At the shipped chunk size the 1000^2 grid is ceil(1000 / 32) = 32
    chunks of whole rows, one ``batch`` call each."""
    obj = lookup_objective("michalewicz", 2)
    sizes = []
    counted = SimpleNamespace(name=obj.name, dimension=2,
                              batch=lambda p: sizes.append(len(p)) or obj.batch(p))
    grid_search(counted, GridSpec(box=obj.init_box, resolution=1000))
    assert len(sizes) == math.ceil(1000 / (oracle._CHUNK // 1000)) == 32
    assert sum(sizes) == 10 ** 6 and max(sizes) == 32_000


def test_grid_chunks_share_no_terms_across_searches_or_objectives():
    """Every axis's terms are kept for one ``grid_search`` call and one
    per-axis sum: back-to-back searches of one objective on two boxes, then
    of Michalewicz and sphere on one box, and a search whose objective sums
    both on every chunk, each give the first argmin of a fresh plain batch."""
    mich, sph = lookup_objective("michalewicz", 2), lookup_objective("sphere", 2)
    first, second = GridSpec(((0.0, 3.0),) * 2, 40), GridSpec(((0.5, 2.5),) * 2, 40)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", 120)  # 14 chunks of 3 rows, the last of 1
        for obj, spec in ((mich, first), (mich, second), (mich, second), (sph, second)):
            _assert_plain_argmin(obj, spec, grid_search(obj, spec))
        both = SimpleNamespace(name="both", dimension=2,
                               batch=lambda points: mich.batch(points) + sph.batch(points))
        plain = Objective(name="both", dimension=2, init_box=second.box,
                          fn=lambda x: mich.batch(x) + sph.batch(x))
        _assert_plain_argmin(plain, second, grid_search(both, second))


def test_an_objective_cannot_write_into_the_grid_chunks():
    """Every chunk is read-only, so no objective can change the last axis's
    column that the chunks after it reuse."""
    def scribble(x):
        x[:, -1] = 0.0
        return np.add.reduce(x * x, axis=-1)

    obj = Objective(name="scribble", dimension=2, fn=scribble, init_box=((0.0, 1.0),) * 2)
    with pytest.raises(ValueError, match="read-only"):
        grid_search(obj, GridSpec(box=obj.init_box, resolution=5))


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


class _OneChunkInFlight:
    """``obj`` as the oracles use it, and ``rng``'s ``uniform``, keeping a
    weak reference to each chunk drawn or handed to ``batch`` and to each
    array ``batch`` returns. Each draw and each call asserts that every
    earlier chunk's are dead."""

    def __init__(self, obj, rng=None):
        self.obj, self.rng, self.refs = obj, rng, []
        self.name, self.dimension = obj.name, obj.dimension
        self.draws = self.calls = 0

    def _arrive(self, chunk):
        alive = [i for i, ref in self.refs if i < chunk and ref() is not None]
        assert not alive, f"chunks {alive} are alive at chunk {chunk}"
        self.refs = [(i, ref) for i, ref in self.refs if i >= chunk]

    def uniform(self, *args, **kwargs):
        self._arrive(self.draws)
        draw = self.rng.uniform(*args, **kwargs)
        self.refs.append((self.draws, weakref.ref(draw)))
        self.draws += 1
        return draw

    def batch(self, points):
        self._arrive(self.calls)
        values = self.obj.batch(points)
        self.refs += [(self.calls, weakref.ref(points)), (self.calls, weakref.ref(values))]
        self.calls += 1
        return values


@pytest.mark.parametrize("obj", [lookup_objective("michalewicz", 2), _gappy_sphere()],
                         ids=["michalewicz", "non-finite"])
def test_the_oracles_hold_one_chunk_at_a_time(monkeypatch, obj):
    """A chunk and its values are dead before the next chunk is drawn or
    evaluated: grid runs of whole rows and pieces of one row, and random
    draws, each spread over several chunks."""
    monkeypatch.setattr(oracle, "_CHUNK", 120)
    for resolution in (40, 300):  # 3 rows a chunk; 3 pieces a row
        flight = _OneChunkInFlight(obj)
        grid_search(flight, GridSpec(box=obj.init_box, resolution=resolution))
        assert flight.calls > 10
    flight = _OneChunkInFlight(obj, np.random.default_rng(3))
    random_search_baseline(flight, obj.init_box, 1000, flight)
    assert flight.draws == flight.calls == 9


def test_the_1000_squared_grid_peaks_at_one_chunk_of_values():
    """The 1000^2 Michalewicz grid's ``tracemalloc`` peak stays below its
    lattice buffer plus one chunk's values plus 256 KiB; holding a chunk's
    values while the next chunk's are made peaked one values array higher."""
    obj = lookup_objective("michalewicz", 2)
    spec = GridSpec(box=obj.init_box, resolution=1000)
    nodes = oracle._CHUNK // spec.resolution * spec.resolution
    tracemalloc.start()
    try:
        grid_search(obj, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nodes * 8 * (spec.dimension + 1) + (256 << 10), peak


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
