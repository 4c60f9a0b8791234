"""Spans and counters recorded from outside ``hydrodr``.

Each layer is wrapped at the point where its caller looks it up: a module
attribute (``hydrodr.ipm.solve``, ``hydrodr.train.build_second_stage``,
``hydrodr.ipm.splu`` ...) or a class attribute (``Policy.rollout``).
Every wrapper is removed again when the ``installed`` block ends.

Without spans only ``ipm.solve`` and ``ipm.splu`` are wrapped: the first
counts solves and failed solves, and both give the reference kernel a
place to run, at the first solve or factorization boundary after
``KERNEL_EVERY_S`` seconds without it.  With spans every layer records
(name, id, parent id, round, start, end) in memory, and the per-layer
totals and self times are computed from them after the run.  The
benchmark's own work (the kernel, LU-fill bookkeeping) runs in ``bench.*``
spans whose time is taken out of every enclosing span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# The kernel samples the host's speed about every 50 ms of program time,
# the length of one small-case solve; its own ~3 ms make the overhead ~6%.
KERNEL_EVERY_S = 0.05


def layer_points():
    """(owner, attribute, span name) for every traced lookup point."""
    from hydrodr import builder, ipm, policy, sddp, train
    return [
        (policy.Policy, "rollout", "policy.rollout"),
        (policy.Policy, "rollout_with_tape", "policy.rollout"),
        (policy.Policy, "gradient", "policy.vjp"),
        (builder, "build_second_stage", "builder.build"),
        (train, "build_second_stage", "builder.build"),
        (train, "extract_duals", "builder.duals"),
        (ipm, "solve", "ipm.solve"),
        (ipm, "splu", "ipm.factor"),
        (ipm, "check_kkt", "lp.check_kkt"),
        (train, "adam_step", "train.adam"),
        (sddp, "stage_solve", "sddp.stage_solve"),
    ]


class Tracer:
    def __init__(self, spans: bool, kernel=None):
        self.record_spans = spans
        self.kernel = kernel               # sampled between operations when set
        self._kernel_due = 0.0
        self.spans: list[tuple] = []       # (id, parent, name, round, t0, t1)
        self._stack: list[int] = []
        self._next_id = 0
        self.round = 0
        self.solves = 0
        self.failed_solves = 0
        self.iterations = 0
        self.lu_nnz = 0                    # L.nnz + U.nnz summed
        self.kkt_nnz = 0                   # factorized matrix nnz summed
        self.captured: list[tuple] | None = None   # (lp, result) when capturing

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, self.round, t0, t1))
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after_solve(self, args, res):
        self.solves += 1
        self.iterations += res.iterations
        if not res.optimal:
            self.failed_solves += 1
        if self.captured is not None:
            self.captured.append((args[0], res))
        self._sample_kernel()

    def _sample_kernel(self, *_):
        if self.kernel is None or time.perf_counter() < self._kernel_due:
            return
        if self.record_spans:
            self._span("bench.kernel", self.kernel.run)()
        else:
            self.kernel.run()
        self._kernel_due = time.perf_counter() + KERNEL_EVERY_S

    def _after_factor(self, args, lu):
        # bookkeeping runs as its own span so it leaves no trace in the
        # self time of the enclosing ipm.solve
        def fill():
            self.lu_nnz += lu.L.nnz + lu.U.nnz
            self.kkt_nnz += args[0].nnz
        self._span("bench.bookkeeping", fill)()
        self._sample_kernel()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the lookup points for the duration of the block."""
        from hydrodr import ipm
        if self.record_spans:
            points = layer_points()
        else:
            points = [(ipm, "solve", "ipm.solve"), (ipm, "splu", "ipm.factor")]
        saved = []
        for owner, attr, name in points:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            if not self.record_spans:
                after = {"ipm.solve": self._after_solve,
                         "ipm.factor": self._sample_kernel}[name]
                wrapped = self._hook(fn, after)
            else:
                after = {"ipm.solve": self._after_solve,
                         "ipm.factor": self._after_factor}.get(name)
                wrapped = self._span(name, fn, after)
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @staticmethod
    def _hook(fn, after):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out
        return wrapper

    # -- summaries ------------------------------------------------------------
    def layer_totals(self) -> tuple[dict, dict, dict]:
        """(total seconds, self seconds, calls) per span name, with the
        time of ``bench.*`` spans removed from every enclosing span."""
        dur = {sid: t1 - t0 for sid, _, _, _, t0, t1 in self.spans}
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        for sid, parent, name, *_ in self.spans:
            if name.startswith("bench."):
                while parent >= 0:
                    dur[parent] -= dur[sid]
                    parent = parent_of[parent]
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, parent, name, *_ in self.spans:
            if name.startswith("bench."):
                continue
            total[name] += dur[sid]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur[sid]
        self_s: dict[str, float] = defaultdict(float)
        for sid, parent, name, *_ in self.spans:
            if not name.startswith("bench."):
                self_s[name] += dur[sid] - child.get(sid, 0.0)
        return dict(total), dict(self_s), dict(calls)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, rnd, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "round": rnd, "start": t0, "end": t1}) + "\n")
