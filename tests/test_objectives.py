"""Tests for the benchmark objectives and the registry."""

import dataclasses
import os
import sys
import threading
import time
import warnings
from contextlib import contextmanager
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
    Objective,
    goldstein_price,
    lookup_objective,
    michalewicz,
    objective_names,
    sphere,
)


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


@contextmanager
def _column_rows(rows):
    """``michalewicz`` and ``sphere`` taking the column layout from ``rows``
    rows per coordinate (0: every batch of 2 to 7 coordinates)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objectives, "_COLUMN_ROWS", rows)
        yield


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
       m=st.sampled_from([1, 2, 10]), layout=st.sampled_from(sorted(_LAYOUTS)),
       column_rows=st.sampled_from([0, objectives._COLUMN_ROWS]), data=st.data())
def test_michalewicz_in_place_matches_reference_bitwise(k, n, m, layout, column_rows, data):
    coords = st.one_of(st.floats(-1e6, 1e6),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
    values = data.draw(arrays(np.float64, (k,) if n is None else (n, k), elements=coords))
    x = _LAYOUTS[layout](values)
    before = x.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):
        with _column_rows(column_rows):
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
@given(k=_WIDTHS, n=st.one_of(st.none(), st.integers(0, 300)),
       column_rows=st.sampled_from([0, objectives._COLUMN_ROWS]), data=st.data())
def test_sphere_matches_reduce_of_squares_bitwise(k, n, column_rows, data):
    coords = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
    x = data.draw(arrays(np.float64, (k,) if n is None else (n, k), elements=coords))
    with np.errstate(invalid="ignore", over="ignore"):
        with _column_rows(column_rows):
            got = sphere(x)
        want = np.add.reduce(x * x, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want)


# ---------------------------------------------------------------------------
# column layout

_MAGNITUDES = st.floats(0.0, 16.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 7), n=st.integers(0, 50), data=st.data())
def test_column_sums_add_in_the_order_of_reduce(k, n, data):
    """Summed as the columns of ``x.T``, the rows of ``x`` give the bits of
    ``np.add.reduce``; terms of either sign between 1 and 1e16 round
    differently in almost any other order, and signed zeros check the 0.0
    the sums start from."""
    terms = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.sampled_from([0.0, -0.0]))
    x = data.draw(arrays(np.float64, (n, k), elements=terms))
    got = objectives._column_sums(np.ascontiguousarray(x.T))
    assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes()


# ---------------------------------------------------------------------------
# registry

def test_registry_names():
    assert objective_names() == ("goldstein_price", "michalewicz", "sphere")


def test_lookup_michalewicz_default_dim():
    obj = lookup_objective("michalewicz", 2)
    assert obj.dimension == 2
    assert obj.init_box == ((0.0, np.pi), (0.0, np.pi))
    coords, value = obj.known_optimum
    assert obj(np.array(coords)) == pytest.approx(value, rel=1e-6)


def test_lookup_michalewicz_other_dims():
    obj = lookup_objective("michalewicz", 5)
    assert obj.dimension == 5
    assert obj.init_box == ((0.0, np.pi),) * 5
    assert obj.known_optimum is None


def test_lookup_goldstein_price():
    obj = lookup_objective("goldstein_price", 2)
    assert obj.init_box == ((-2.0, 2.0), (-2.0, 2.0))
    coords, value = obj.known_optimum
    assert coords == (0.0, -1.0) and value == 3.0
    assert obj(np.array([0.0, -1.0])) == 3.0


def test_lookup_sphere():
    obj = lookup_objective("sphere", 3)
    assert obj.init_box == ((-1.0, 1.0),) * 3
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
    assert "michalewicz" in msg and "goldstein_price" in msg and "sphere" in msg


def test_lookup_fixed_dimension_mismatch():
    with pytest.raises(ValueError):
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
# Objective.batch split across threads

@contextmanager
def _split_at(cpus):
    """``Objective.batch`` seeing ``cpus`` usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objectives, "_usable_cpus", lambda: cpus)
        yield


def _counting(obj, split_from):
    """``obj`` splitting from ``split_from`` elements, with an ``fn`` that
    records the row count of every call."""
    calls = []

    def fn(x):
        calls.append(len(x))
        return obj.fn(x)
    return Objective(name=obj.name, dimension=obj.dimension, fn=fn,
                     init_box=obj.init_box, split_from=split_from), calls


_SPLIT_CASES = ([("michalewicz", k) for k in (1, 2, 3, 8, 9, 10, 33)]
                + [("sphere", k) for k in (1, 2, 3, 8, 9, 10, 33)]
                + [("goldstein_price", 2)])


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_SPLIT_CASES),
       n=st.one_of(st.sampled_from([0, 1, 9, 17, 23]), st.integers(0, 60)),
       min_part=st.sampled_from([1, 2, 5, 16]), cpus=st.sampled_from([2, 8]), data=st.data())
def test_split_batch_matches_one_fn_call_bit_for_bit(case, n, min_part, cpus, data):
    """Cut into ranges or not, ``batch`` returns the bits of one ``fn`` call
    over all rows, NaN payloads aside, with overflowing, infinite, NaN and
    signed-zero coordinates."""
    name, k = case
    plain = lookup_objective(name, k)
    obj, calls = _counting(plain, 2 * min_part)
    coords = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
    points = data.draw(arrays(np.float64, (n, k), elements=coords))
    with np.errstate(all="ignore"):
        want = np.asarray(plain.fn(points), dtype=float)
        with _split_at(cpus):
            got = obj.batch(points)
    assert len(calls) == max(1, min(n * k // min_part, n, cpus))
    assert sum(calls) == n and max(calls) - min(calls) <= 1
    assert got.shape == (n,)
    assert _nan_canonical_bytes(got) == _nan_canonical_bytes(want)


def test_split_batch_under_frequent_thread_switches():
    """More ranges than CPUs and a thread switch every microsecond, for at
    most two seconds: every batch is one ``fn`` call's bits and its ranges
    cover each row once."""
    plain = lookup_objective("michalewicz", 3)
    obj, calls = _counting(plain, 32)
    points = np.random.default_rng(0).uniform(0.0, np.pi, size=(8 * 257 + 5, 3))
    want = plain.fn(points).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds, deadline = 0, time.monotonic() + 2.0
        with _split_at(8):
            while rounds < 100 and time.monotonic() < deadline:
                calls.clear()
                assert obj.batch(points).tobytes() == want
                assert len(calls) == 8 and sum(calls) == len(points)
                rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 1


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("failing", ["later", "first"])
def test_split_batch_raises_the_first_failing_range(cpus, failing):
    """Only the first range, or every range but the first, raises: the
    caller gets the exception of the first range that failed, after every
    thread has ended."""
    starts = []

    def fn(x):
        start = int(x[0, 0])
        starts.append(start)
        if (start > 0) == (failing == "later"):
            raise ValueError(f"range from row {start}")
        return np.add.reduce(x, axis=-1)
    obj = Objective(name="ranges", dimension=1, fn=fn, init_box=((0.0, 1.0),), split_from=2)
    before = threading.active_count()
    with _split_at(cpus), pytest.raises(ValueError) as exc:
        obj.batch(np.arange(10.0)[:, None])
    assert threading.active_count() == before
    assert len(starts) == cpus
    assert str(exc.value) == f"range from row {sorted(starts)[failing == 'later']}"


def test_split_batch_runs_under_the_callers_error_state():
    """A new thread starts from numpy's default error state: only the second
    range overflows, and it raises or stays silent as the caller asked."""
    obj = dataclasses.replace(lookup_objective("sphere", 3),
                              split_from=2 * objectives._MIN_PART)
    points = np.zeros((2 * objectives._MIN_PART, 3))
    points[objectives._MIN_PART:] = 1e200
    with _split_at(2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            obj.batch(points)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            values = obj.batch(points)
    assert np.all(values[:objectives._MIN_PART] == 0.0)
    assert np.all(values[objectives._MIN_PART:] == np.inf)


def test_one_usable_cpu_makes_one_fn_call():
    obj, calls = _counting(lookup_objective("michalewicz", 2), 2 * objectives._MIN_PART)
    with _split_at(1):
        obj.batch(np.zeros((8 * objectives._MIN_PART, 2)))
    assert calls == [8 * objectives._MIN_PART]


def _thread_starts(obj, rows):
    """Threads started by ``obj.batch`` over ``rows`` points."""
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=start) as spy:
        assert obj.batch(np.zeros((rows, obj.dimension))).shape == (rows,)
    return spy.call_count


@pytest.mark.parametrize("name,k,split_from", [
    ("michalewicz", 2, 2 * objectives._MIN_PART), ("goldstein_price", 2, 1 << 17),
    ("sphere", 2, 1 << 19), ("sphere", 8, 1 << 19)])
def test_registry_batches_split_from_their_threshold(name, k, split_from):
    """Each objective splits only batches large enough to gain from a second
    thread: a 2^17-element sphere batch starts none."""
    obj = lookup_objective(name, k)
    assert obj.split_from == split_from
    with _split_at(2):
        assert _thread_starts(obj, (1 << 17) // k) == (split_from <= 1 << 17)
        assert _thread_starts(obj, split_from // k - 1) == 0
        assert _thread_starts(obj, split_from // k) == 1


def test_hand_built_objective_splits_from_the_default_threshold():
    """An ``Objective`` not from the registry splits from ``2 * _MIN_PART``
    elements, as every objective did before thresholds per objective."""
    obj = Objective(name="sum", dimension=2, fn=lambda x: np.add.reduce(x, axis=-1),
                    init_box=((0.0, 1.0),) * 2)
    assert obj.split_from == 2 * objectives._MIN_PART
    with _split_at(2):
        assert _thread_starts(obj, objectives._MIN_PART - 1) == 0
        assert _thread_starts(obj, objectives._MIN_PART) == 1


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert objectives._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert objectives._usable_cpus() == 1
