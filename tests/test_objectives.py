"""Tests for the benchmark objectives and the registry."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from basopt import objectives
from basopt.objectives import (
    MICHALEWICZ_2D_ARGMIN,
    MICHALEWICZ_2D_MIN,
    goldstein_price,
    lookup_objective,
    michalewicz,
    objective_names,
    sphere,
)
from basopt.oracle import GridSpec, grid_search, random_search_baseline


# ---------------------------------------------------------------------------
# michalewicz

def test_michalewicz_known_minimum():
    x = np.array(MICHALEWICZ_2D_ARGMIN)
    assert michalewicz(x) == pytest.approx(MICHALEWICZ_2D_MIN, abs=1e-12)


def test_michalewicz_matches_published_rounding():
    # Coordinates rounded to the precision commonly quoted for this function.
    x = np.array([2.2029, 1.5708])
    assert michalewicz(x) == pytest.approx(-1.8013, abs=1e-3)


def test_michalewicz_zero_at_origin():
    assert michalewicz(np.zeros(2)) == 0.0
    assert michalewicz(np.zeros(7)) == 0.0


def test_michalewicz_1d_scan_oracle():
    # Dense 1-D scan over [0, pi) locates the single-variable minimum.
    xs = np.arange(0.0, np.pi, 1e-5)
    vals = michalewicz(xs[:, None])
    i = int(np.argmin(vals))
    assert vals[i] == pytest.approx(-0.8013, abs=1e-3)
    assert xs[i] == pytest.approx(2.2029, abs=1e-3)


def test_michalewicz_bounded_on_box():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5):
        pts = rng.uniform(0.0, np.pi, size=(500, k))
        vals = michalewicz(pts)
        assert np.all(vals <= 0.0)
        assert np.all(vals >= -k)


def test_michalewicz_batch_matches_scalar_bitwise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, np.pi, size=(200, 2))
    batch = michalewicz(pts)
    for p, v in zip(pts, batch):
        assert michalewicz(p) == v


def _michalewicz_reference(x, m):
    """Michalewicz as plain expressions, temporaries and all, with the power
    as the textbook left-to-right binary exponentiation of 2m."""
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    t = np.sin(i * x * x / np.pi)
    p = t
    for bit in bin(2 * m)[3:]:
        p = p * p
        if bit == "1":
            p = p * t
    return -np.sum(np.sin(x) * p, axis=-1)


def _nan_canonical_bytes(values):
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


# Memory layouts of the same values that an objective must accept.
_LAYOUTS = {
    "C": lambda x: x,
    "Fortran": np.asfortranarray,
    "rows[::2]": lambda x: np.repeat(x, 2, axis=0)[::2],
    "read-only": _read_only,
}


# k = 1..33, with 7 and 8 drawn more often: the widest rows that numpy adds
# left to right, as the column layout does, and the narrowest it sums pairwise.
_WIDTHS = st.one_of(st.integers(1, 33), st.sampled_from([7, 8]))


@settings(max_examples=300, deadline=None)
@given(k=_WIDTHS, n=st.one_of(st.none(), st.integers(0, 300)),
       m=st.sampled_from([1, 2, 10]), layout=st.sampled_from(sorted(_LAYOUTS)), data=st.data())
def test_michalewicz_in_place_matches_reference_bitwise(k, n, m, layout, data):
    coords = st.one_of(st.floats(-1e6, 1e6),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
    values = data.draw(arrays(np.float64, (k,) if n is None else (n, k), elements=coords))
    x = _LAYOUTS[layout](values)
    before = x.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        got = michalewicz(x, m)
        want = _michalewicz_reference(values, m)
    assert x.tobytes() == before
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 33), m=st.integers(1, 20), data=st.data())
def test_michalewicz_power_chain_close_to_np_power(k, m, data):
    # Each multiply of the chain rounds once and np.power is within an ulp,
    # so a term of magnitude <= 1 differs by a few ulps of 1 at most.
    x = data.draw(arrays(np.float64, (k,), elements=st.floats(-1e3, 1e3)))
    i = np.arange(1, k + 1, dtype=float)
    want = -np.sum(np.sin(x) * np.power(np.sin(i * x * x / np.pi), 2 * m))
    assert abs(michalewicz(x, m) - want) <= 1e-14 * k


# ---------------------------------------------------------------------------
# goldstein_price

def test_goldstein_price_global_minimum_exact():
    assert goldstein_price(np.array([0.0, -1.0])) == 3.0


def test_goldstein_price_hand_values():
    assert goldstein_price(np.array([0.0, 0.0])) == 600.0
    assert goldstein_price(np.array([1.0, 1.0])) == 1876.0


def test_goldstein_price_grid_minimum_unique():
    # On the exact 401x401 lattice over [-2, 2]^2 the only value equal to 3
    # is at (0, -1), and nothing dips below it.
    axis = -2.0 + (np.arange(401) * 4.0) / 400
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    vals = goldstein_price(pts)
    assert vals.min() == 3.0
    hits = pts[vals == 3.0]
    assert hits.shape == (1, 2)
    assert np.array_equal(hits[0], [0.0, -1.0])


def test_goldstein_price_agrees_with_symbolic_form():
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    expr = (
        1 + (x1 + x2 + 1) ** 2
        * (19 - 14 * x1 + 3 * x1 ** 2 - 14 * x2 + 6 * x1 * x2 + 3 * x2 ** 2)
    ) * (
        30 + (2 * x1 - 3 * x2) ** 2
        * (18 - 32 * x1 + 12 * x1 ** 2 + 48 * x2 - 36 * x1 * x2 + 27 * x2 ** 2)
    )
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = rng.uniform(-2.0, 2.0, size=2)
        exact = float(expr.subs({x1: p[0], x2: p[1]}))
        got = goldstein_price(p)
        assert got == pytest.approx(exact, rel=1e-12)


def test_goldstein_price_batch_matches_scalar_bitwise():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, size=(200, 2))
    batch = goldstein_price(pts)
    for p, v in zip(pts, batch):
        assert goldstein_price(p) == v


# ---------------------------------------------------------------------------
# sphere

def test_sphere_values():
    assert sphere(np.zeros(4)) == 0.0
    assert sphere(np.array([3.0, 4.0])) == 25.0
    assert np.array_equal(sphere(np.array([[1.0, 0.0], [1.0, 1.0]])), [1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(k=_WIDTHS, n=st.one_of(st.none(), st.integers(0, 300)), data=st.data())
def test_sphere_matches_reduce_of_squares_bitwise(k, n, data):
    coords = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
    x = data.draw(arrays(np.float64, (k,) if n is None else (n, k), elements=coords))
    with np.errstate(invalid="ignore", over="ignore"):
        got = sphere(x)
        want = np.add.reduce(x * x, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want)


# ---------------------------------------------------------------------------
# column layout

_MAGNITUDES = st.floats(0.0, 16.0).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("k", range(1, 10))
def test_every_batch_of_2_to_7_coordinates_is_in_column_layout(monkeypatch, k):
    """Whatever its rows, from one on, a batch of k = 2 to 7 coordinates
    reaches the terms of ``michalewicz`` and ``sphere`` as the (k, n) view
    ``x.T``; other widths and single points keep their own shape."""
    shapes = []
    for name in ("_michalewicz_terms", "_sphere_terms"):
        monkeypatch.setattr(objectives, name, lambda x, *args, terms=getattr(objectives, name):
                            shapes.append(x.shape) or terms(x, *args))
    for shape in ((1, k), (2, k), (300, k), (k,)):
        shapes.clear()
        michalewicz(np.full(shape, 0.5))
        sphere(np.full(shape, 0.5))
        columns = len(shape) == 2 and 1 < k < 8
        assert shapes == [shape[::-1] if columns else shape] * 2, shape


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 7), n=st.integers(0, 50), data=st.data())
def test_column_sums_add_in_the_order_of_reduce(k, n, data):
    """Reduced along axis 0 of the C-ordered ``x.T``, as the column layout
    sums its terms, the rows of ``x`` give the bits of ``np.add.reduce``
    along the last axis; terms of either sign between 1 and 1e16 round
    differently in almost any other order, and signed zeros check the 0.0
    the sums start from."""
    terms = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.sampled_from([0.0, -0.0]))
    x = data.draw(arrays(np.float64, (n, k), elements=terms))
    got = np.add.reduce(np.ascontiguousarray(x.T), axis=0)
    assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes()


def _signed_terms(shape, seed):
    """Terms of either sign between 1 and 1e16, a tenth of them signed zeros,
    whose sums round differently in almost any order but index order."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(0.0, 16.0, shape)
    return np.where(rng.random(shape) < 0.1, np.copysign(0.0, x), x)


@pytest.mark.parametrize("k", range(1, 8))
def test_numpy_adds_fewer_than_8_terms_of_a_row_in_index_order(k):
    """``np.add.reduce`` along the last axis adds a row of fewer than 8
    float64 terms from 0.0 in index order: the sums of sequential column
    adds, bit for bit. The objectives' column layout and the column-add norms
    of ``sample_directions`` (whose squares make the leading 0.0 a no-op)
    rest on this, so a numpy that changes it fails here first."""
    for shape in ((5000, k), (4, 100, k), (k,)):
        x = _signed_terms(shape, k)
        want = np.add(0.0, x[..., 0])
        for j in range(1, k):
            want = want + x[..., j]
        assert np.add.reduce(x, axis=-1).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# registry

def test_registry_names():
    assert objective_names() == ("goldstein_price", "michalewicz", "sphere")


def test_lookup_michalewicz_default_dim():
    obj = lookup_objective("michalewicz", 2)
    assert obj.dimension == 2
    assert np.array_equal(obj.init_box, ((0.0, np.pi), (0.0, np.pi)))
    coords, value = obj.known_optimum
    assert obj(np.array(coords)) == pytest.approx(value, rel=1e-6)


def test_lookup_michalewicz_other_dims():
    obj = lookup_objective("michalewicz", 5)
    assert obj.dimension == 5
    assert np.array_equal(obj.init_box, ((0.0, np.pi),) * 5)
    assert obj.known_optimum is None


def test_lookup_goldstein_price():
    obj = lookup_objective("goldstein_price", 2)
    assert np.array_equal(obj.init_box, ((-2.0, 2.0), (-2.0, 2.0)))
    coords, value = obj.known_optimum
    assert coords == (0.0, -1.0) and value == 3.0
    assert obj(np.array([0.0, -1.0])) == 3.0


def test_lookup_sphere():
    obj = lookup_objective("sphere", 3)
    assert np.array_equal(obj.init_box, ((-1.0, 1.0),) * 3)
    coords, value = obj.known_optimum
    assert obj(np.array(coords)) == value == 0.0


def test_registry_optima_consistent():
    for name in objective_names():
        obj = lookup_objective(name, 2)
        if obj.known_optimum is None:
            continue
        coords, value = obj.known_optimum
        got = obj(np.array(coords))
        assert got == pytest.approx(value, rel=1e-6, abs=1e-12)


def test_lookup_unknown_name_lists_choices():
    with pytest.raises(ValueError) as exc:
        lookup_objective("rosenbrock", 2)
    msg = str(exc.value)
    assert msg.startswith("objective 'rosenbrock' is unknown; valid names: ")
    assert "michalewicz" in msg and "goldstein_price" in msg and "sphere" in msg


def test_lookup_fixed_dimension_mismatch():
    with pytest.raises(ValueError, match="^dimension must be 2 for goldstein_price, got 3$"):
        lookup_objective("goldstein_price", 3)


def test_objective_call_validates_shape():
    obj = lookup_objective("sphere", 2)
    with pytest.raises(ValueError):
        obj(np.zeros(3))
    with pytest.raises(ValueError):
        obj.batch(np.zeros((4, 3)))


def test_objective_batch_shape():
    obj = lookup_objective("michalewicz", 2)
    out = obj.batch(np.zeros((5, 2)))
    assert out.shape == (5,)
    assert np.array_equal(out, np.zeros(5))


# ---------------------------------------------------------------------------
# Objective.batch on the calling thread

def test_no_workload_starts_a_thread():
    """The 1000^2 grid and a random search over several 32,768-point chunks
    evaluate every batch on the calling thread."""
    mich2 = lookup_objective("michalewicz", 2)
    with mock.patch.object(threading.Thread, "start",
                           side_effect=AssertionError("a thread was started")):
        grid_search(mich2, GridSpec(box=mich2.init_box, resolution=1000))
        random_search_baseline(mich2, mich2.init_box, 200_000, np.random.default_rng(0))
