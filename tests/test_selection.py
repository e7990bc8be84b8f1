import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sppm import problems, selection
from sppm.config import ProblemSpec
from sppm.errors import DomainError, ValidationError
from sppm.generate import generate_problem
from sppm.noise import NoiseModel
from sppm.problems import sample_gradient_batch
from sppm.props import CountingNoise
from sppm.selection import (
    bregman_dh,
    dh_potentials,
    euclidean_rows,
    gap_rows,
    rge,
    sts,
)
from sppm.regularizers import L1, L2Ball, Zero
from sppm.rng import RngStream


@given(st.integers(1, 60))
def test_sts_always_more_than_two_thirds(n):
    gen = RngStream(22).child("prop", n).generator(shared=False)
    idx = sts(gen.standard_normal((n, 2)))
    assert 3 * len(idx) > 2 * n
    assert np.all(np.diff(idx) > 0)


def test_euclidean_rows_match_norm_pairs():
    gen = RngStream(23).child("pair").generator(shared=False)
    pts = gen.standard_normal((12, 4))
    for lo, hi in ((0, 12), (3, 7), (11, 12)):
        D = euclidean_rows(pts, lo, hi)
        assert D.shape == (hi - lo, 12)
        for i in range(lo, hi):
            for j in range(12):
                assert D[i - lo, j] == pytest.approx(np.linalg.norm(pts[i] - pts[j]), abs=1e-12)


def test_dh_potentials_hand_formula():
    h = L2Ball(center=np.zeros(3), radius=2.0)
    args = (np.array([1.0, 0.0, -1.0]), np.array([0.5, 0.0, 0.0]), np.zeros(3), 2.0)
    v = np.array([1.25, 0.0, -1.0])  # s_bar + (w_tilde - z_bar) / lam
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([-0.3, 0.0, 0.5])
    pots = dh_potentials(h, *args, np.stack([x, y]))
    assert pots == pytest.approx([v @ x, v @ y], abs=1e-12)  # h vanishes inside the ball
    gaps = gap_rows(pots[:, None], 0, 2)
    assert gaps[0, 1] == gaps[1, 0] == pytest.approx(abs(float(v @ (x - y))), abs=1e-12)
    l1 = L1(weight=0.5)
    assert dh_potentials(l1, *args, x[None, :]) == pytest.approx([0.5 * 0.6 + v @ x], abs=1e-12)
    with pytest.raises(DomainError, match="outside dom h"):
        dh_potentials(h, *args, np.stack([x, np.array([5.0, 0.0, 0.0])]))


def test_dh_rejects_non_finite_shift():
    with pytest.raises(ValidationError, match="not finite"):
        dh_potentials(Zero(), np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2), 1.0, np.zeros((3, 2)))


def _full_matrix_sts(dist):
    """sts from a whole n x n distance matrix, as selection did before blocking."""
    n = len(dist)
    m = (2 * n) // 3 + 1
    np.fill_diagonal(dist, 0.0)
    rho = np.partition(dist, m - 1, axis=1)[:, m - 1]
    return np.flatnonzero(rho <= np.partition(rho, m - 1)[m - 1])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 288])
def test_blocking_does_not_change_selection(n):
    gen = RngStream(28).child("blocks", n).generator(shared=False)
    distinct = gen.standard_normal((max(1, n // 3), 3))
    cases = [
        gen.standard_normal((n, 3)),
        distinct[gen.integers(0, len(distinct), size=n)],  # duplicated points
    ]
    for P in cases:
        diff = P[:, None, :] - P[None, :, :]
        full = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        assert np.array_equal(sts(P), _full_matrix_sts(full))
    for pots in (gen.standard_normal(n), gen.integers(0, 4, size=n).astype(float)):  # equal potentials
        full = np.abs(pots[:, None] - pots[None, :])
        assert np.array_equal(sts(pots, gap_rows), _full_matrix_sts(full))


@pytest.mark.parametrize("rows, shape", [(euclidean_rows, (4096, 2)), (gap_rows, (4096,))])
def test_sts_memory_is_linear_in_n(rows, shape):
    # the full 4096 x 4096 distance matrix alone would be 128 MiB
    points = RngStream(29).child("mem").generator(shared=False).standard_normal(shape)
    tracemalloc.start()
    try:
        sts(points, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_bregman_dh_zero_at_anchor():
    h = Zero()
    z = np.array([0.3, -0.4])
    g = np.array([1.0, 2.0])
    assert bregman_dh(h, z, z, g) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 8, 10, 17])
def test_rge_means_are_bitwise_batch_means(monkeypatch, dim):
    # rge's in-order row sums divided by q must equal mean(axis=0) bit
    # for bit, on every family of batch the booster draws
    quad = generate_problem(ProblemSpec(kind="quadratic-ball", dim=dim, mu=1.0, L=4.0,
                                        radius=0.5, instance_seed=dim), dim)
    ridge = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=dim, mu=1.0, L=3.0,
                                         box_halfwidth=1.0, components=40, instance_seed=dim), dim)
    cases = [
        (quad, NoiseModel(family="gaussian", sigma=1.0)),
        (quad, NoiseModel(family="student_t", sigma=1.0, nu=3.0)),
        (ridge, ridge.meta["oracle"]),
    ]
    seen = []

    def keep_all(points, rows=None):
        seen.append(points.copy())
        return np.arange(len(points))

    monkeypatch.setattr(selection, "sts", keep_all)
    for problem, noise in cases:
        x = problem.h.interior_point(dim) + 0.1
        for q in (1, 2, 3, 7, 3000):
            s = RngStream(31).child("bits", q)
            out = rge(problem, noise, x, 3, q, s)
            want = np.array([
                sample_gradient_batch(problem, noise, x, q, s.child("rge-batch", j)).mean(axis=0)
                for j in range(3)
            ])
            assert np.array_equal(seen.pop(), want), (noise, q)
            assert np.array_equal(out, want[0])


@pytest.mark.parametrize("family", ["gaussian", "student_t", "rademacher", "sphere", "finite_sum"])
def test_rge_chunks_match_one_shot_batches(monkeypatch, family):
    # a batch drawn and summed in chunks, the running sum carried into
    # each next chunk as its first row, equals the one-shot batch mean
    # bit for bit, and every drawn sample is counted once
    dim = 4
    if family == "finite_sum":
        problem = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=dim, mu=1.0, L=3.0,
                                               box_halfwidth=1.0, components=40, instance_seed=2), 2)
        oracle = problem.meta["oracle"]
        counted = [0]

        def component_grad(x, idx):
            counted[0] += len(idx)
            return oracle.component_grad(x, idx)

        noise = dataclasses.replace(oracle, component_grad=component_grad)
    else:
        problem = generate_problem(ProblemSpec(kind="quadratic-ball", dim=dim, mu=1.0, L=4.0,
                                               radius=0.5, instance_seed=2), 2)
        noise = CountingNoise(NoiseModel(family=family, sigma=1.0))
    seen = []

    def keep_all(points, rows=None):
        seen.append(points.copy())
        return np.arange(len(points))

    monkeypatch.setattr(selection, "sts", keep_all)
    x = problem.h.interior_point(dim) + 0.1
    for q in (1, 9, 10, 19, 3000):
        s = RngStream(32).child("chunks", q)
        want = np.array([
            sample_gradient_batch(problem, noise, x, q, s.child("rge-batch", j)).mean(axis=0)
            for j in range(3)
        ])
        with monkeypatch.context() as m:
            m.setattr(problems, "PLAN_VALUES", 37)  # 9 rows of dim 4 per chunk
            before = counted[0] if family == "finite_sum" else noise.draws
            rge(problem, noise, x, 3, q, s)
            after = counted[0] if family == "finite_sum" else noise.draws
        assert np.array_equal(seen.pop(), want), q
        assert after - before == 3 * q


@pytest.mark.parametrize("kind", ["additive", "finite_sum"])
def test_rge_memory_does_not_grow_with_q(kind):
    # one batch of q = 2^21 rows at dim 4 would be 64 MiB in one piece
    if kind == "finite_sum":
        problem = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=4, mu=1.0, L=3.0,
                                               box_halfwidth=1.0, components=40, instance_seed=3), 3)
        noise = problem.meta["oracle"]
    else:
        problem = generate_problem(ProblemSpec(kind="quadratic-ball", dim=4, mu=1.0, L=4.0,
                                               radius=0.5, instance_seed=3), 3)
        noise = NoiseModel(family="gaussian", sigma=1.0)
    x = problem.h.interior_point(4)
    tracemalloc.start()
    try:
        rge(problem, noise, x, 2, 2**21, RngStream(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_rge_validation(ball_problem):
    noise = NoiseModel(family="gaussian", sigma=1.0)
    x = ball_problem.h.interior_point(ball_problem.dim)
    with pytest.raises(ValidationError):
        rge(ball_problem, noise, x, 0, 4, RngStream(1))
    with pytest.raises(ValidationError):
        rge(ball_problem, noise, x, 4, 0, RngStream(1))


def test_rge_rejects_far_outlier_mean(ball_problem):
    # plant most means near the gradient, a minority far away: the
    # selected mean is never the far one
    gen = RngStream(27).child("plant").generator(shared=False)
    g = np.zeros(4)
    for _ in range(20):
        n = 15
        means = g + 0.01 * gen.standard_normal((n, 4))
        bad = gen.integers(0, n, size=4)
        means[bad] = 1e6
        idx = sts(means)
        assert not set(idx.tolist()) & set(bad.tolist())
