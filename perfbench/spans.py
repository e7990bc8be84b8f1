"""Span tracing from outside the program.

A Tracer wraps the public functions and methods of each sppm module
where callers look them up (modules import names, so sppm.driver.pb and
sppm.booster.rge are patched, not sppm.booster.pb), records one span
(id, name, start, end, parent) per call in per-thread buffers, and
counts work at the same boundaries.  Patches go in for a traced block
and come out again after it, so untraced blocks run the program as
shipped.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from collections import defaultdict
from dataclasses import replace
from time import perf_counter_ns

import numpy as np


class _Buffer:
    __slots__ = ("ids", "names", "starts", "ends", "parents", "stack", "counts")

    def __init__(self):
        self.ids = array("q")
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack = []
        self.counts = defaultdict(int)

    def record(self, sid, nid, t0, t1, parent):
        self.ids.append(sid)
        self.names.append(nid)
        self.starts.append(t0)
        self.ends.append(t1)
        self.parents.append(parent)


class Tracer:
    """In-memory span recorder; see module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._ids = itertools.count(1)
        self._name_ids = {}
        self.root = 0  # parent of spans opened on a thread with no open span
        self.roots = []  # ids of the benchmark's own block spans
        self.plan_bytes_max = 0
        self.errors = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._name_ids.setdefault(name, len(self._name_ids))

    def count(self, key: str, value=1) -> None:
        self._buffer().counts[key] += value

    def wrap(self, name, fn, after=None):
        """fn inside a span called name; after(args, result), if given,
        runs inside the span to record counts."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            sid = next(tracer._ids)
            stack = buf.stack
            parent = stack[-1] if stack else tracer.root
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                buf.record(sid, nid, t0, t1, parent)

        return traced

    def block(self, name, fn, *args):
        """Run fn(*args) as a root span on the calling thread; spans that
        worker threads open without a parent hang under it."""
        nid = self.name_id(name)
        sid = next(self._ids)
        self.root = sid
        self.roots.append(sid)
        buf = self._buffer()
        buf.stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            buf.stack.pop()
            buf.record(sid, nid, t0, t1, 0)
            self.root = 0

    def spans(self) -> dict:
        """All spans as numpy arrays, plus merged counts and name table."""
        cols = {k: [] for k in ("id", "name", "start", "end", "parent")}
        counts = defaultdict(int)
        for buf in self._buffers:
            for key, arr in zip(cols, (buf.ids, buf.names, buf.starts, buf.ends, buf.parents)):
                cols[key].append(np.array(arr, dtype=np.int64))
            for k, v in buf.counts.items():
                counts[k] += v
        out = {k: np.concatenate(v) if v else np.empty(0, np.int64) for k, v in cols.items()}
        names = sorted(self._name_ids, key=self._name_ids.get)
        return {"cols": out, "counts": dict(counts), "names": names}

    def self_times(self, data) -> dict:
        """Per span name: (calls, total seconds, self seconds).  Self time
        is duration minus the union of the children's intervals."""
        c = data["cols"]
        if c["id"].size == 0:
            return {}
        order = np.argsort(c["id"])
        ids = c["id"][order]
        dur = (c["end"] - c["start"])[order].astype(float)
        parent = c["parent"][order]
        pos = np.searchsorted(ids, parent)
        has_parent = (parent != 0) & (pos < ids.size)
        has_parent[has_parent] = ids[pos[has_parent]] == parent[has_parent]
        child_sum = np.bincount(pos[has_parent], weights=dur[has_parent], minlength=ids.size)
        self_ns = dur - child_sum
        # Root spans may have children on several threads at once, so
        # take the union of their intervals rather than the sum.
        starts = c["start"][order]
        ends = c["end"][order]
        for rid in self.roots:
            r = int(np.searchsorted(ids, rid))
            if r >= ids.size or ids[r] != rid:
                continue
            kids = np.flatnonzero(has_parent & (parent == rid))
            covered = 0
            cur_lo = cur_hi = None
            for lo, hi in sorted(zip(starts[kids].tolist(), ends[kids].tolist())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            self_ns[r] = dur[r] - covered
        names = data["names"]
        name_col = c["name"][order]
        out = {}
        for nid, name in enumerate(names):
            mask = name_col == nid
            out[name] = (int(mask.sum()), float(dur[mask].sum()) * 1e-9, float(self_ns[mask].sum()) * 1e-9)
        return out


class Patches:
    """The tracing patch set over sppm's modules; a context manager that
    installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, sppm_modules, tracer: Tracer, index_check):
        self.m = sppm_modules
        self.t = tracer
        self.index_check = index_check
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        m, t = self.m, self.t
        harness, driver, booster, selection = m.harness, m.driver, m.booster, m.selection
        problems, noise, rng, regs = m.problems, m.noise, m.rng, m.regularizers

        self._set(harness, "sppm_run", t.wrap("driver.sppm_run", harness.sppm_run))
        self._set(harness, "select_best", t.wrap("driver.select_best", harness.select_best))
        self._set(harness, "sgd_baseline", t.wrap(
            "driver.sgd", harness.sgd_baseline,
            lambda a, r: t.count("driver.sgd_samples", int(a[3]))))
        self._set(harness, "generate_problem", t.wrap("generate.instance", harness.generate_problem))
        self._set(harness, "derive_schedule", t.wrap("driver.derive", harness.derive_schedule))
        orig_build_noise = harness.build_noise

        def build_noise(cfg, problem):
            oracle = orig_build_noise(cfg, problem)
            if isinstance(oracle, problems.FiniteSumOracle):
                after = lambda a, r: t.count("problems.component_rows", len(r))
                return replace(
                    oracle,
                    component_grad=t.wrap("problems.component", oracle.component_grad, after),
                    component_grad_rows=t.wrap("problems.component", oracle.component_grad_rows, after),
                )
            return oracle

        self._set(harness, "build_noise", build_noise)

        def row_steps(args, result):
            cfg, streams = args[2], args[3]
            t.count("pss.row_steps", len(streams) * (cfg.inner_iters + 1))

        self._set(driver, "pss_run_batch", t.wrap("pss.run_batch", driver.pss_run_batch, row_steps))

        def pb_after(args, outcome):
            t.count("booster.samples", outcome.samples_used)
            errors = self.index_check(outcome, len(args[0]))
            if errors:
                with t._lock:
                    t.errors.extend(errors)

        self._set(driver, "pb", t.wrap("booster.pb", driver.pb, pb_after))

        def sts_after(args, result):
            t.count("selection.candidates", int(np.shape(args[0])[0]))
            t.count("selection.admitted", int(np.size(result)))

        sts = t.wrap("selection.sts", selection.sts, sts_after)
        self._set(booster, "sts", sts)
        self._set(selection, "sts", sts)
        self._set(booster, "rge", t.wrap("selection.rge", booster.rge))
        self._set(selection, "sample_gradient_batch",
                  t.wrap("problems.batch", selection.sample_gradient_batch))

        def plan_after(args, result):
            sampler = args[0]
            arrays = [getattr(sampler, slot, None) for slot in ("_noise", "_noise_rows", "_indices")]
            nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
            with t._lock:
                t.plan_bytes_max = max(t.plan_bytes_max, nbytes)
            if isinstance(sampler, problems.RowSampler):
                sampler._grad_rows = t.wrap("problems.grad_rows", sampler._grad_rows)

        for cls in (problems.RowSampler, problems.GradientSampler):
            self._set(cls, "__init__", t.wrap("problems.plan", cls.__init__, plan_after))
        self._set(problems.RowSampler, "sample_rows",
                  t.wrap("problems.sample_rows", problems.RowSampler.sample_rows))
        self._set(rng.RngStream, "generator", t.wrap("rng.generator", rng.RngStream.generator))
        self._set(noise.NoiseModel, "draw", t.wrap(
            "noise.draw", noise.NoiseModel.draw,
            lambda a, r: t.count("noise.values_drawn", int(np.size(r)))))
        for cls in (regs.Zero, regs.L2Ball, regs.Box, regs.L1, regs.L1Box):
            self._set(cls, "prox", t.wrap("regularizers.prox", cls.__dict__["prox"]))
            self._set(cls, "prox_rows", t.wrap("regularizers.prox_rows", cls.__dict__["prox_rows"]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False
