"""Always-on observation of what each trial drew and returned.

The harness builds its own problem, noise and streams inside run_trials
and compare_budget, so the benchmark sees a trial's outputs by wrapping
the names the harness calls: build_noise (to count oracle draws),
sppm_run and sgd_baseline (to keep each run's record, keyed by its
stream token).  The wrappers cost a few Python calls per trial and per
noise plan, far below one trial's run time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace


class CountingNoise:
    """Additive noise model that reports each draw's row count."""

    def __init__(self, inner, observer):
        self.inner = inner
        self._observer = observer

    @property
    def sigma(self):
        return self.inner.sigma

    def draw(self, gen, count, dim):
        self._observer.add_draws(count)
        return self.inner.draw(gen, count, dim)


@dataclass
class SppmObs:
    problem: object
    schedule: object
    record: object
    draws: int


@dataclass
class SgdObs:
    problem: object
    budget: int
    x: object
    draws: int


class Observer:
    """Installs the counting wrappers on sppm.harness; records runs."""

    def __init__(self, harness, finite_sum_type):
        self._harness = harness
        self._finite_sum_type = finite_sum_type
        self._local = threading.local()
        self._lock = threading.Lock()
        self.sppm_runs = {}
        self.sgd_runs = {}
        self._saved = {}

    def add_draws(self, count: int) -> None:
        self._local.draws = getattr(self._local, "draws", 0) + int(count)

    def _counted(self, fn):
        def counted(x, idx):
            self.add_draws(len(idx))
            return fn(x, idx)

        return counted

    def install(self) -> "Observer":
        h = self._harness
        orig_noise, orig_run, orig_sgd = h.build_noise, h.sppm_run, h.sgd_baseline
        self._saved = {"build_noise": orig_noise, "sppm_run": orig_run, "sgd_baseline": orig_sgd}

        def build_noise(cfg, problem):
            noise = orig_noise(cfg, problem)
            if isinstance(noise, self._finite_sum_type):
                return replace(
                    noise,
                    component_grad=self._counted(noise.component_grad),
                    component_grad_rows=self._counted(noise.component_grad_rows),
                )
            return CountingNoise(noise, self)

        def sppm_run(problem, noise, schedule, z0, stream, **kwargs):
            self._local.draws = 0
            record = orig_run(problem, noise, schedule, z0, stream, **kwargs)
            obs = SppmObs(problem, schedule, record, self._local.draws)
            with self._lock:
                self.sppm_runs[stream.token()] = obs
            return record

        def sgd_baseline(problem, noise, x0, budget, stream):
            self._local.draws = 0
            x = orig_sgd(problem, noise, x0, budget, stream)
            obs = SgdObs(problem, budget, x, self._local.draws)
            with self._lock:
                self.sgd_runs[stream.token()] = obs
            return x

        h.build_noise, h.sppm_run, h.sgd_baseline = build_noise, sppm_run, sgd_baseline
        return self

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self._harness, name, fn)
        self._saved = {}

    def take_sppm(self, token):
        with self._lock:
            return self.sppm_runs.pop(token, None)

    def take_sgd(self, token):
        with self._lock:
            return self.sgd_runs.pop(token, None)

    def clear(self) -> None:
        with self._lock:
            self.sppm_runs.clear()
            self.sgd_runs.clear()
