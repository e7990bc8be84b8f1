import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sppm import problems, selection
from sppm.config import ProblemSpec
from sppm.errors import DomainError, NumericError, ValidationError
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
    gen = RngStream(22).child("prop", n).generator()
    idx = sts(gen.standard_normal((n, 2)))
    assert 3 * len(idx) > 2 * n
    assert np.all(np.diff(idx) > 0)


def test_euclidean_rows_match_norm_pairs():
    gen = RngStream(23).child("pair").generator()
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


def test_euclidean_rows_symmetric_exact_and_block_free():
    # the coordinate loop gives a matrix symmetric bit for bit, exactly 0
    # between duplicate rows, and rows that do not depend on the block
    gen = RngStream(24).child("exact").generator()
    distinct = gen.standard_normal((40, 8)) * 10.0 ** gen.integers(-3, 4, size=(40, 1))
    P = distinct[gen.integers(0, 40, size=150)]
    full = euclidean_rows(P, 0, 150)
    assert np.array_equal(full, full.T)
    assert np.all((full == 0.0) == (P[:, None, :] == P[None, :, :]).all(axis=2))
    for lo, hi in ((0, 64), (64, 128), (128, 150), (7, 8), (30, 99)):
        assert np.array_equal(euclidean_rows(P, lo, hi), full[lo:hi])


def test_sts_rejects_non_finite_points():
    # a NaN distance is admitted by no threshold, so the promise of more
    # than 2n/3 members cannot hold: the points are refused instead
    P = np.zeros((5, 2))
    for bad in (np.nan, np.inf):
        P[3, 1] = bad
        with pytest.raises(ValidationError, match="not finite"):
            sts(P)
        with pytest.raises(ValidationError, match="not finite"):
            sts(P[:, 1], gap_rows)
    with pytest.raises(ValidationError, match="not finite"):
        sts(np.full((4, 3), np.nan))


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
    gen = RngStream(28).child("blocks", n).generator()
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
    points = RngStream(29).child("mem").generator().standard_normal(shape)
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


def _step_major_means(problem, noise, x, n, q, stream):
    """Batch means of a one-shot n*q draw on stream, row i*n + j being
    sample i of batch j."""
    draws = sample_gradient_batch(problem, noise, x, n * q, stream)
    return np.array([draws.reshape(q, n, -1)[:, j].mean(axis=0) for j in range(n)])


@pytest.mark.parametrize("dim", [2, 3, 8, 10, 17])
def test_rge_means_are_bitwise_batch_means(monkeypatch, dim):
    # rge's in-order step sums divided by q must equal mean(axis=0) of
    # each batch's rows of one step-major draw bit for bit, on every
    # family of batch the booster draws, at n = 3 and n = 288
    quad = generate_problem(ProblemSpec(kind="quadratic-ball", dim=dim, mu=1.0, L=4.0,
                                        radius=0.5, instance_seed=dim))
    ridge = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=dim, mu=1.0, L=3.0,
                                         box_halfwidth=1.0, components=40, instance_seed=dim))
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
        for n, q in ((3, 1), (3, 2), (3, 3), (3, 7), (3, 3000), (288, 1), (288, 2), (288, 7), (288, 40)):
            s = RngStream(31).child("bits", q).child("n", n)
            out = rge(problem, noise, x, n, q, s)
            want = _step_major_means(problem, noise, x, n, q, s)
            assert np.array_equal(seen.pop(), want), (noise, n, q)
            assert np.array_equal(out, want[0])


@pytest.mark.parametrize("family", ["gaussian", "student_t", "rademacher", "sphere", "finite_sum"])
def test_rge_chunks_match_one_shot_batches(monkeypatch, family):
    # a step-major draw made and summed in chunks of whole steps, the
    # running sums carried into each next chunk as its first row, equals
    # the one-shot batch means bit for bit, and every drawn sample is
    # counted once; n = 288 puts n*d above PLAN_VALUES (one step a chunk)
    dim = 4
    if family == "finite_sum":
        problem = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=dim, mu=1.0, L=3.0,
                                               box_halfwidth=1.0, components=40, instance_seed=2))
        oracle = problem.meta["oracle"]
        counted = [0]

        def component_grad(x, idx):
            counted[0] += len(idx)
            return oracle.component_grad(x, idx)

        noise = dataclasses.replace(oracle, component_grad=component_grad)
    else:
        problem = generate_problem(ProblemSpec(kind="quadratic-ball", dim=dim, mu=1.0, L=4.0,
                                               radius=0.5, instance_seed=2))
        noise = CountingNoise(NoiseModel(family=family, sigma=1.0))
    seen = []

    def keep_all(points, rows=None):
        seen.append(points.copy())
        return np.arange(len(points))

    monkeypatch.setattr(selection, "sts", keep_all)
    x = problem.h.interior_point(dim) + 0.1
    for n, q in ((1, 1), (1, 10), (3, 1), (3, 3), (3, 4), (3, 7), (3, 3000), (288, 1), (288, 5)):
        s = RngStream(32).child("chunks", q).child("n", n)
        want = _step_major_means(problem, noise, x, n, q, s)
        with monkeypatch.context() as m:
            m.setattr(problems, "PLAN_VALUES", 37)  # 9 steps of one dim-4 batch, 3 of three
            before = counted[0] if family == "finite_sum" else noise.draws
            rge(problem, noise, x, n, q, s)
            after = counted[0] if family == "finite_sum" else noise.draws
        assert np.array_equal(seen.pop(), want), (n, q)
        assert after - before == n * q


def test_rge_draws_on_one_generator(monkeypatch, ball_problem):
    # one stream setup per call, whatever n and the chunking
    calls = []
    generator = RngStream.generator

    def counted(self, **kw):
        calls.append(self.path)
        return generator(self, **kw)

    monkeypatch.setattr(RngStream, "generator", counted)
    monkeypatch.setattr(problems, "PLAN_VALUES", 37)
    noise = NoiseModel(family="gaussian", sigma=1.0)
    stream = RngStream(34).child("rge")
    for n, q in ((1, 1), (5, 40), (288, 3)):
        calls.clear()
        rge(ball_problem, noise, ball_problem.h.interior_point(ball_problem.dim), n, q, stream)
        assert calls == [stream.path], (n, q)


def test_rge_names_first_non_finite_batch_mean(ball_problem):
    # one NaN sample poisons its batch's mean: batch 4 of 6 here
    # (step-major row i*n + j is sample i of batch j)
    noise = NoiseModel(family="gaussian", sigma=1.0)
    draw = noise.draw

    class Poisoned:
        def draw(self, gen, count, dim):
            out = draw(gen, count, dim)
            out[6 + 4, 2] = np.nan  # step 1, batch 4
            out[6 * 2 + 5] = np.inf  # step 2, batch 5
            return out

    x = ball_problem.h.interior_point(ball_problem.dim)
    with pytest.raises(NumericError, match="rge batch mean 4 is not finite"):
        rge(ball_problem, Poisoned(), x, 6, 3, RngStream(35))


@pytest.mark.parametrize("kind", ["additive", "finite_sum"])
def test_rge_memory_does_not_grow_with_q(kind):
    # one batch of q = 2^21 rows at dim 4 would be 64 MiB in one piece
    if kind == "finite_sum":
        problem = generate_problem(ProblemSpec(kind="ridge-l1-box", dim=4, mu=1.0, L=3.0,
                                               box_halfwidth=1.0, components=40, instance_seed=3))
        noise = problem.meta["oracle"]
    else:
        problem = generate_problem(ProblemSpec(kind="quadratic-ball", dim=4, mu=1.0, L=4.0,
                                               radius=0.5, instance_seed=3))
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
    gen = RngStream(27).child("plant").generator()
    g = np.zeros(4)
    for _ in range(20):
        n = 15
        means = g + 0.01 * gen.standard_normal((n, 4))
        bad = gen.integers(0, n, size=4)
        means[bad] = 1e6
        idx = sts(means)
        assert not set(idx.tolist()) & set(bad.tolist())
