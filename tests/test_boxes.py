"""Tests for the one box format and the integer counts.

A validated box is a read-only, C-contiguous ``(k, 2)`` float64 array and a
validated start point a read-only ``(k,)`` one, each a copy of its input.
``BasConfig``, ``GridSpec`` and ``Objective`` compare and hash by identity.
"""

import re
import tracemalloc

import numpy as np
import pytest

from basopt import BasConfig, GridSpec, grid_search, lookup_objective, random_search_baseline, run
from basopt.cli import parse_config
from basopt.core import init_position

_BOX = ((0.25, 2.5), (-1.0, 3.0))


def _is_held(arr, shape) -> bool:
    return (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == shape
            and not arr.flags.writeable)


def test_every_box_and_point_is_a_read_only_float64_array():
    boxed = BasConfig(dimension=2, init_box=[[0, 1], [2, 3]], clamp_box=_BOX)
    started = BasConfig(dimension=2, x0=[1, 2])
    grid = GridSpec(box=[(0, 1)], resolution=3)
    for arr, shape in ((boxed.init_box, (2, 2)), (boxed.clamp_box, (2, 2)),
                       (started.x0, (2,)), (grid.box, (1, 2))):
        assert _is_held(arr, shape)
        assert arr.flags.c_contiguous
    assert _is_held(lookup_objective("michalewicz", 5).init_box, (5, 2))
    cfg = parse_config(["--objective", "sphere", "--dim", "3", "--init-box=-1:2", "--clamp"])
    for arr in (cfg.search.init_box, cfg.search.clamp_box):
        assert _is_held(arr, (3, 2)) and arr.tolist() == [[-1.0, 2.0]] * 3


def test_a_fresh_start_point_is_writable():
    cfg = BasConfig(dimension=2, x0=(1.0, 2.0))
    x = init_position(cfg, np.random.default_rng(0))
    x[0] = 5.0
    assert cfg.x0.tolist() == [1.0, 2.0]


def test_changing_the_input_afterwards_changes_no_config():
    box, x0 = np.array(_BOX), np.array([1.0, 2.0])
    boxed = BasConfig(dimension=2, init_box=box, clamp_box=box)
    started = BasConfig(dimension=2, x0=x0)
    grid = GridSpec(box=box, resolution=3)
    box[:] = 0.0
    x0[:] = 0.0
    for arr in (boxed.init_box, boxed.clamp_box, grid.box):
        assert arr.tolist() == [list(pair) for pair in _BOX]
    assert started.x0.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("layout", [np.array, np.asfortranarray,
                                    lambda box: np.repeat(box, 2, axis=0)[::2]],
                         ids=["C", "Fortran", "strided"])
def test_a_run_from_arrays_equals_the_run_from_tuples(layout):
    obj = lookup_objective("michalewicz", 2)
    common = dict(dimension=2, seed=11, max_iters=40, delta0=2.0)
    from_tuples = run(BasConfig(init_box=_BOX, clamp_box=_BOX, **common), obj)
    from_arrays = run(BasConfig(init_box=layout(_BOX), clamp_box=layout(_BOX), **common), obj)
    assert from_arrays == from_tuples
    assert from_arrays.trajectory.tobytes() == from_tuples.trajectory.tobytes()
    x0 = (1.0, 0.5)
    assert (run(BasConfig(x0=np.array(x0), **common), obj).trajectory.tobytes()
            == run(BasConfig(x0=x0, **common), obj).trajectory.tobytes())
    for search in (lambda box: grid_search(obj, GridSpec(box=box, resolution=9)),
                   lambda box: random_search_baseline(obj, box, 50, np.random.default_rng(3))):
        (x_t, f_t), (x_a, f_a) = search(_BOX), search(layout(_BOX))
        assert x_t.tobytes() == x_a.tobytes() and f_t == f_a


def test_configs_grids_and_objectives_compare_and_hash_by_identity():
    made = [lambda: BasConfig(dimension=2, init_box=_BOX),
            lambda: GridSpec(box=_BOX, resolution=3),
            lambda: lookup_objective("sphere", 2)]
    for make in made:
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_parsing_a_million_axes_stays_small():
    """One pair per axis, once as the init box and once as the clamp box: the
    parse held them as tuples of float pairs, with a peak of 282 MiB."""
    tracemalloc.start()
    try:
        parse_config(["--objective", "sphere", "--dim", "1000000", "--init-box=-1:1", "--clamp"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100 << 20


def _sample(n_evals) -> None:
    random_search_baseline(lookup_objective("sphere", 1), ((0, 1),), n_evals,
                           np.random.default_rng(0))


# Each count, and the value it is held as (None for random_search_baseline's).
_COUNTS = {
    "dimension": lambda v: BasConfig(dimension=v, x0=(0.0,) * 3).dimension,
    "max_iters": lambda v: BasConfig(dimension=1, x0=(0.0,), max_iters=v).max_iters,
    "stall_iters": lambda v: BasConfig(dimension=1, x0=(0.0,), stall_iters=v).stall_iters,
    "resolution": lambda v: GridSpec(box=((0, 1),), resolution=v).resolution,
    "n_evals": _sample,
    "lookup dimension": lambda v: lookup_objective("sphere", v).dimension,
}


@pytest.mark.parametrize("value", [2.5, 3.0, "3", (3,), np.float64(3)],
                         ids=["2.5", "3.0", "str", "tuple", "np.float64"])
@pytest.mark.parametrize("count", list(_COUNTS))
def test_a_count_is_an_int_or_a_numpy_integer(count, value):
    """The seed's rule: each count is an ``int`` or an ``np.integer``, held as
    an ``int``, and anything else is one ``ValueError`` that begins with its
    name."""
    make = _COUNTS[count]
    held = make(np.int32(3))
    assert held is None or (type(held) is int and held == 3)
    name = count.split()[-1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        make(value)
