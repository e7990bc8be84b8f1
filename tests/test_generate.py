import inspect
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sppm.config import ProblemSpec, load_config
from sppm.errors import ValidationError
from sppm.generate import generate_problem
from sppm.problems import evaluate_phi
from sppm.regularizers import prox_map
from sppm.rng import RngStream


def spec(kind="quadratic-ball", **kw):
    base = dict(kind=kind, dim=4, mu=1.0, L=2.0, instance_seed=3)
    if kind == "quadratic-ball" or kind == "logreg-ridge-ball":
        base["radius"] = 1.0
    else:
        base["box_halfwidth"] = 1.0
        base["components"] = 30
    base.update(kw)
    return ProblemSpec(**base)


def test_quadratic_spectrum_attains_mu_and_L():
    p = generate_problem(spec(dim=2, instance_seed=3))
    eigs = np.linalg.eigvalsh(p.meta["hessian"])
    assert np.allclose(sorted(eigs), [1.0, 2.0], atol=1e-9)


def test_quadratic_spectrum_inside_range():
    p = generate_problem(spec(dim=9, L=5.0, instance_seed=4))
    eigs = np.linalg.eigvalsh(p.meta["hessian"])
    assert eigs.min() == pytest.approx(1.0, abs=1e-9)
    assert eigs.max() == pytest.approx(5.0, abs=1e-9)
    assert np.all(eigs > 1.0 - 1e-9) and np.all(eigs < 5.0 + 1e-9)


@pytest.mark.parametrize("kind", ["quadratic-ball", "ridge-l1-box", "logreg-ridge-ball"])
def test_same_seed_same_instance(kind):
    a = generate_problem(spec(kind, instance_seed=17))
    b = generate_problem(spec(kind, instance_seed=17))
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.start, b.start)
    x = a.h.interior_point(a.dim)
    assert np.array_equal(a.grad_f(x), b.grad_f(x))
    c = generate_problem(spec(kind, instance_seed=18))
    assert not np.array_equal(a.start, c.start)


@pytest.mark.parametrize("kind", ["quadratic-ball", "ridge-l1-box", "logreg-ridge-ball"])
def test_optimum_is_prox_fixpoint(kind):
    p = generate_problem(spec(kind, instance_seed=6))
    t = 1.0 / p.L
    step = prox_map(p.h, p.x_star - t * p.grad_f(p.x_star), t)
    assert np.linalg.norm(step - p.x_star) <= 1e-7
    assert p.phi_star == pytest.approx(evaluate_phi(p, p.x_star), abs=1e-12)


def test_heavy_tail_instance_is_pinned():
    # configs/heavy_tail.cfg targets 5% of this instance's cold-start gap,
    # and criterion 06's schedule follows from that target: a generator
    # change that moves the instance must fail here, not retarget it.
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "heavy_tail.cfg"))
    p = generate_problem(cfg.problem)
    gap0 = evaluate_phi(p, p.start) - p.phi_star
    assert gap0.hex() == (0.41458053522792215).hex()
    assert cfg.algo.eps == 0.05 * gap0


def test_cold_start_on_ball_boundary():
    p = generate_problem(spec(dim=7, instance_seed=9))
    assert np.linalg.norm(p.start) == pytest.approx(1.0, abs=1e-12)
    assert p.h.contains(p.start)


def test_cold_start_on_box_corner():
    p = generate_problem(spec("ridge-l1-box", dim=6, instance_seed=9))
    assert np.allclose(np.abs(p.start), 1.0)
    assert p.h.contains(p.start)


def test_finite_sum_oracle_wiring():
    p = generate_problem(spec("ridge-l1-box", instance_seed=12))
    oracle = p.meta["oracle"]
    assert oracle.count == 30
    # sigma is the pool's spread at the domain center
    pool = oracle.component_grad(np.zeros(p.dim), np.arange(30))
    assert p.sigma > 0.0
    assert p.sigma == float(np.sqrt(np.mean(np.sum((pool - pool.mean(axis=0)) ** 2, axis=1))))
    # mean component gradient equals the full gradient
    x = p.h.interior_point(p.dim)
    full = oracle.component_grad(x, np.arange(30)).mean(axis=0)
    assert np.allclose(full, p.grad_f(x), atol=1e-10)


def test_component_oracles_match_fancy_index_expressions():
    # the take() gathers and in-place ridge terms keep every bit of the
    # plain indexing expressions they replace; the dot product is the
    # row-wise vecdot, which rounds alike at every row count
    p = generate_problem(spec("ridge-l1-box", dim=8, components=200, instance_seed=5))
    oracle = p.meta["oracle"]
    env = inspect.getclosurevars(oracle.component_grad).nonlocals
    A, y, ridge = env["A"], env["y"], env["ridge"]
    gen = RngStream(40).generator()
    for count in (1, 2, 7, 3000):
        idx = gen.integers(0, 200, size=count)
        x = gen.uniform(-1.0, 1.0, size=8)
        X = gen.uniform(-1.0, 1.0, size=(count, 8))
        rows = A[idx]
        want = rows * (np.vecdot(rows, x) - y[idx])[:, None] + ridge * x[None, :]
        assert np.array_equal(oracle.component_grad(x, idx), want)
        want_rows = rows * (np.einsum("ij,ij->i", rows, X) - y[idx])[:, None] + ridge * X
        assert np.array_equal(oracle.component_grad_rows(X, idx), want_rows)


def _ridge_oracle():
    p = generate_problem(spec("ridge-l1-box", dim=8, components=200, instance_seed=5))
    return p.meta["oracle"], inspect.getclosurevars(p.meta["oracle"].component_grad).nonlocals


@pytest.mark.parametrize("count", [1, 2, 7, 199, 200, 3000])
def test_component_table_matches_full_pool(count):
    # calls of N or more rows read the per-point table, shorter ones
    # gather; every row is the same bits either way, built or reused
    oracle, _ = _ridge_oracle()
    gen = RngStream(41).child("table", count).generator()
    for _ in range(3):
        x = gen.uniform(-1.0, 1.0, size=8)
        idx = gen.integers(0, 200, size=count)
        first = oracle.component_grad(x, idx)
        pool = oracle.component_grad(x, np.arange(200))
        again = oracle.component_grad(x, idx)
        assert np.array_equal(first, pool[idx])
        assert np.array_equal(again, pool[idx])


def test_component_table_does_not_leak_into_single_rows():
    # an SGD-style run of one-row calls at changing points, after a
    # table build, gives the BLAS formula the SGD path has always used
    oracle, env = _ridge_oracle()
    A, y, ridge = env["A"], env["y"], env["ridge"]
    gen = RngStream(42).generator()
    x0 = gen.uniform(-1.0, 1.0, size=8)
    table = oracle.component_grad(x0, np.arange(200))
    x = x0.copy()
    for _ in range(50):
        i = gen.integers(0, 200, size=1)
        row = A[i]
        want = row * (row @ x - y[i])[:, None] + ridge * x
        assert np.array_equal(oracle.component_grad(x, i), want)
        x = x - 0.01 * want[0]
    assert np.array_equal(oracle.component_grad(x0, np.arange(200)), table)


def test_component_table_is_per_thread():
    # two threads alternating between two points read the same bits as
    # one thread does
    oracle, _ = _ridge_oracle()
    gen = RngStream(43).generator()
    points = gen.uniform(-1.0, 1.0, size=(2, 8))
    idx = gen.integers(0, 200, size=(2, 3000))
    want = [oracle.component_grad(points[k], idx[k]) for k in range(2)]
    barrier = threading.Barrier(2)

    def alternate(first):
        out = []
        for r in range(40):
            k = (first + r) % 2
            barrier.wait()
            out.append((k, oracle.component_grad(points[k], idx[k])))
        return out

    with ThreadPoolExecutor(max_workers=2) as ex:
        runs = list(ex.map(alternate, (0, 1)))
    for run in runs:
        for k, got in run:
            assert np.array_equal(got, want[k])


def test_validation_errors():
    with pytest.raises(ValidationError):
        generate_problem(spec(mu=3.0, instance_seed=1))  # mu > L
    with pytest.raises(ValidationError):
        generate_problem(spec(radius=0.0, instance_seed=1))
    with pytest.raises(ValidationError):
        generate_problem(spec("ridge-l1-box", components=2, instance_seed=1))  # pool < dim
