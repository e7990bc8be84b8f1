import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sppm.errors import ValidationError
from sppm.regularizers import Box, L1, L1Box, L2Ball, Zero, prox_map
from sppm.rng import RngStream

ALL = [
    Zero(),
    L2Ball(center=np.zeros(4), radius=1.0),
    Box.symmetric(0.8, 4),
    L1(weight=0.3),
    L1Box(weight=0.3, box=Box.symmetric(0.8, 4)),
]

NON_FINITE = [
    [np.nan, 0.0, 0.0, 0.0],
    [0.0, -np.inf, 0.0, 0.0],
    [0.0, 0.0, 0.0, np.inf],
    [np.nan, np.inf, -np.inf, np.nan],
]


def test_ball_projection_closed_form():
    h = L2Ball(center=np.zeros(2), radius=1.0)
    # (3,4) has norm 5, so the projection is (0.6, 0.8).
    assert np.allclose(h.prox(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-12)
    inside = np.array([0.1, -0.2])
    assert np.array_equal(h.prox(inside, 2.0), inside)


def test_soft_threshold_closed_form():
    h = L1(weight=0.5)
    # threshold t*w = 1.0
    y = np.array([2.5, -0.3, -1.75, 0.0])
    assert np.allclose(h.prox(y, 2.0), [1.5, 0.0, -0.75, 0.0], atol=1e-12)


def test_box_clip_closed_form():
    h = Box.symmetric(1.0, 3)
    assert np.allclose(h.prox(np.array([2.0, -5.0, 0.25]), 1.0), [1.0, -1.0, 0.25])


def test_l1box_composes_shrink_then_clip():
    h = L1Box(weight=1.0, box=Box.symmetric(1.0, 2))
    # soft(3.5, 1) = 2.5, clipped to 1; soft(-0.5, 1) = 0
    assert np.allclose(h.prox(np.array([3.5, -0.5]), 1.0), [1.0, 0.0])


def test_zero_prox_is_identity():
    y = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(Zero().prox(y, 5.0), y)


@pytest.mark.parametrize("h", ALL, ids=lambda h: type(h).__name__)
def test_prox_minimizes_objective(h):
    # prox(y, t) minimizes h(x) + ||x-y||^2/(2t): no random probe beats it.
    gen = RngStream(31).child("probe").generator()
    for _ in range(40):
        y = 2.0 * gen.standard_normal(4)
        t = float(10.0 ** gen.uniform(-1.0, 0.7))
        p = h.prox(y, t)
        base = h.value(p) + float(np.sum((p - y) ** 2)) / (2.0 * t)
        assert h.contains(p)
        for _ in range(12):
            x = p + 0.3 * gen.standard_normal(4)
            if not h.contains(x):
                continue
            cand = h.value(x) + float(np.sum((x - y) ** 2)) / (2.0 * t)
            assert cand >= base - 1e-9


@pytest.mark.parametrize("h", ALL, ids=lambda h: type(h).__name__)
def test_prox_rows_matches_prox(h):
    gen = RngStream(32).child("rows").generator()
    Y = 3.0 * gen.standard_normal((7, 4))
    t = 0.6
    batch = h.prox_rows(Y, t)
    for j in range(7):
        assert np.allclose(batch[j], h.prox(Y[j], t), atol=1e-14)


@pytest.mark.parametrize("h", ALL, ids=lambda h: type(h).__name__)
def test_value_and_contains_rows_match_one_row_calls(h):
    # on an (m, d) matrix, value and contains give the m one-row results
    # bit for bit: inside, on the boundary (prox outputs), outside and
    # non-finite rows alike
    gen = RngStream(34).child("vrows").generator()
    X = np.concatenate([
        0.3 * gen.standard_normal((9, 4)),
        h.prox_rows(3.0 * gen.standard_normal((9, 4)), 0.5),
        3.0 * gen.standard_normal((9, 4)),
        [[-0.0, 0.0, -0.0, 0.0]],
        NON_FINITE,
    ])
    values, inside = h.value(X), h.contains(X)
    assert values.shape == inside.shape == (len(X),) and inside.dtype == bool
    assert values.tobytes() == np.array([h.value(x) for x in X]).tobytes()
    assert inside.tolist() == [bool(h.contains(x)) for x in X]
    # no point with a NaN or infinite coordinate lies in any dom h, and
    # h is +inf wherever it is outside
    assert not inside[-len(NON_FINITE):].any()
    assert (values[~inside] == math.inf).all()


@pytest.mark.parametrize("h", ALL, ids=lambda h: type(h).__name__)
def test_interior_point_in_domain(h):
    assert h.contains(h.interior_point(4))


def test_diameters():
    assert L2Ball(center=np.zeros(3), radius=0.5).diameter() == 1.0
    assert Box.symmetric(1.0, 4).diameter() == pytest.approx(4.0)  # 2*sqrt(4)
    assert Zero().diameter() == np.inf
    assert L1(weight=1.0).diameter() == np.inf


def test_prox_map_dispatch_and_validation():
    y = np.array([3.0, 4.0])
    h = L2Ball(center=np.zeros(2), radius=1.0)
    assert np.allclose(prox_map(h, y, 1.0), [0.6, 0.8])
    with pytest.raises(ValidationError):
        prox_map(h, y, 0.0)


def test_box_contains_matches_slack_formula():
    # the bounds widened once in __post_init__ decide membership exactly
    # as the per-call formula did, at and one ulp beyond each edge
    lo = np.array([-2.0, 0.5, -1e-3, -1e6])
    hi = np.array([3.0, 0.5, 7.0, 2e6])
    box = Box(lo, hi)

    def old(x):
        slack = 1e-9 * np.maximum(1.0, np.abs(hi) + np.abs(lo))
        return bool(np.all(x >= lo - slack) and np.all(x <= hi + slack))

    slack = 1e-9 * np.maximum(1.0, np.abs(hi) + np.abs(lo))
    mid = box.interior_point(4)
    for i in range(4):
        edges = (lo[i] - slack[i], hi[i] + slack[i])
        for edge, outward in zip(edges, (-np.inf, np.inf)):
            for value, inside in ((edge, True), (np.nextafter(edge, outward), False),
                                  (np.nextafter(edge, -outward), True)):
                x = mid.copy()
                x[i] = value
                assert box.contains(x) == old(x) == inside, (i, value)


def test_box_contains_rejects_nan():
    # the one fused comparison keeps the per-coordinate semantics: a NaN
    # coordinate is outside, and a list is a point like an array
    box = Box.symmetric(1.0, 3)
    assert box.contains([0.0, 1.0, -1.0])
    assert not box.contains(np.array([0.0, np.nan, 0.0]))
    assert not box.contains(np.array([0.0, 0.0, 1.5]))
    assert L1Box(weight=0.1, box=box).value(np.array([np.nan, 0.0, 0.0])) == math.inf


def test_ball_validation():
    with pytest.raises(ValidationError):
        L2Ball(center=np.zeros(2), radius=0.0)


@given(arrays(np.float64, 3, elements=st.floats(-50, 50)),
       st.floats(0.01, 10.0))
def test_ball_prox_never_leaves_ball(y, t):
    h = L2Ball(center=np.zeros(3), radius=1.0)
    assert h.contains(h.prox(y, t))


@given(arrays(np.float64, 3, elements=st.floats(-50, 50)),
       st.floats(0.01, 10.0))
def test_l1_prox_shrinks_toward_zero(y, t):
    h = L1(weight=0.25)
    p = h.prox(y, t)
    assert np.all(np.abs(p) <= np.abs(y) + 1e-12)
    assert np.all(p * y >= -1e-12)
