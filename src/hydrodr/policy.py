"""Parametric target policies: recurrent deep rules and per-stage linear rules.

The deep rule is time-invariant: one parameter set evaluated at every
stage, carrying a latent state between stages, so a trained policy rolls
out on any horizon.  Stage 1 consumes the initial volumes (inflow slots
zeroed, stage-one flag set); later stages consume the realized inflow
(initial-volume slots zeroed).  The volume head is squashed into
[vmin, vmax] per hydro unless ``squash=False``.

The linear rule is time-specific: stage t applies a matrix to the stacked
history [w_2, ..., w_t, x0], exactly linear so its gradient is an outer
product.

Both rules roll out a batch at once: the inflows of B equally long paths
are stacked into a (B, T, H) array, and each stage is one matrix product
per layer for every path.  Backward passes take (B, T, H) cotangents (the
target-row duals) and return the exact gradient of
sum_b sum_t lam[b, t] . targets[b, t] with respect to the parameters, via
reverse accumulation through the latent recurrence.  A single path is a
batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from .model import GridCase
from .scenarios import ScenarioPath


@dataclass(frozen=True)
class PolicySpec:
    """Shapes, bounds and input normalization shared by params and tapes."""
    kind: str                        # "ts-ddr" | "ts-ldr"
    n_hydros: int
    horizon: int                     # LDR is horizon-bound; DDR stores it for metadata only
    latent_dim: int = 16
    hidden_layers: int = 2
    squash: bool = True
    vmin: tuple = ()
    vmax: tuple = ()
    x0: tuple = ()
    w_scale: tuple = ()              # per-hydro inflow normalizer
    x0_scale: tuple = ()

    @property
    def input_dim(self) -> int:
        # [w slots | x0 slots | stage-one flag | latent]
        return 2 * self.n_hydros + 1 + self.latent_dim


def spec_for_case(case: GridCase, kind: str, latent_dim: int = 16,
                  hidden_layers: int = 2, squash: bool = True,
                  w_scale=None) -> PolicySpec:
    """Build a PolicySpec sized for a case; ``w_scale`` defaults to each
    hydro's half-capacity stage water use (same anchor as make_lattice)."""
    gens = {g.id: g for g in case.generators}
    if w_scale is None:
        w_scale = [max(0.5 * h.phi * gens[h.generator].pmax * case.stage_hours, 1e-9)
                   for h in case.hydros]
    return PolicySpec(kind=kind, n_hydros=case.n_hydros, horizon=case.horizon,
                      latent_dim=latent_dim, hidden_layers=hidden_layers,
                      squash=squash,
                      vmin=tuple(float(h.vmin) for h in case.hydros),
                      vmax=tuple(float(h.vmax) for h in case.hydros),
                      x0=tuple(float(h.v0) for h in case.hydros),
                      w_scale=tuple(float(v) for v in w_scale),
                      x0_scale=tuple(max(float(h.vmax), 1e-9) for h in case.hydros))


@dataclass
class DdrParams:
    """Weights of the recurrent deep rule: hidden stack plus two heads
    (volume targets, next latent)."""
    spec: PolicySpec
    w: list[np.ndarray]              # hidden layer weights
    b: list[np.ndarray]
    w_x: np.ndarray                  # target head
    b_x: np.ndarray
    w_l: np.ndarray                  # latent head
    b_l: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [*self.w, *self.b, self.w_x, self.b_x, self.w_l, self.b_l]


@dataclass
class LdrParams:
    """Per-stage matrices over the stacked history [w_2..w_t, x0]."""
    spec: PolicySpec
    theta: list[np.ndarray]          # stage t: (n_hydros, t * n_hydros)

    def arrays(self) -> list[np.ndarray]:
        return list(self.theta)


@dataclass
class RolloutTape:
    """What the VJP of one batch rollout needs.  Stage-major: entry t of
    each field is a (B, ·) array whose row b belongs to path b."""
    inputs: Sequence[np.ndarray]     # input of each stage's first map (LDR: the history)
    hidden: list[np.ndarray] = field(default_factory=list)   # DDR: (T, B, d) per layer
    head_x_pre: np.ndarray | None = None                      # DDR: (T, B, H) pre-squash


# -- flat-vector packing (Adam and finite differences work on one vector) ----

def pack(params) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()]) if params.arrays() \
        else np.zeros(0)

def unpack_like(params, vec: np.ndarray):
    """New params object with the same shapes filled from ``vec``."""
    arrays = []
    off = 0
    for a in params.arrays():
        arrays.append(vec[off:off + a.size].reshape(a.shape).copy())
        off += a.size
    if off != vec.size:
        raise ValueError("vector length does not match parameter count")
    if isinstance(params, DdrParams):
        k = len(params.w)
        return DdrParams(spec=params.spec, w=arrays[:k], b=arrays[k:2 * k],
                         w_x=arrays[2 * k], b_x=arrays[2 * k + 1],
                         w_l=arrays[2 * k + 2], b_l=arrays[2 * k + 3])
    return LdrParams(spec=params.spec, theta=arrays)


def init_params(spec: PolicySpec, seed: int):
    """Deterministic seeded initialization.

    Deep rule: uniform +-sqrt(6 / (fan_in + fan_out)) weights and zero
    biases, on unit-scale normalized inputs.  Linear rule: identity on the
    initial-volume block, so the starting policy holds the initial volumes.
    """
    if spec.kind == "ts-ddr":
        if spec.hidden_layers < 1:
            raise ValueError("the deep rule needs at least one hidden layer")
        rng = np.random.default_rng(seed)
        dims = [spec.input_dim] + [spec.latent_dim] * spec.hidden_layers
        w, b = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            lim = np.sqrt(6.0 / (d_in + d_out))
            w.append(rng.uniform(-lim, lim, size=(d_out, d_in)))
            b.append(np.zeros(d_out))
        lim = np.sqrt(6.0 / (dims[-1] + spec.n_hydros))
        w_x = rng.uniform(-lim, lim, size=(spec.n_hydros, dims[-1]))
        lim = np.sqrt(6.0 / (dims[-1] + spec.latent_dim))
        w_l = rng.uniform(-lim, lim, size=(spec.latent_dim, dims[-1]))
        return DdrParams(spec=spec, w=w, b=b, w_x=w_x, b_x=np.zeros(spec.n_hydros),
                         w_l=w_l, b_l=np.zeros(spec.latent_dim))
    if spec.kind == "ts-ldr":
        H = spec.n_hydros
        theta = []
        for t in range(spec.horizon):
            m = np.zeros((H, (t + 1) * H))
            m[:, t * H:] = np.eye(H)     # the x0 block is last in the stack
            theta.append(m)
        return LdrParams(spec=spec, theta=theta)
    raise ValueError(f"unknown policy kind {spec.kind!r}")


# -- deep rule ----------------------------------------------------------------

def _squash(spec: PolicySpec, pre: np.ndarray) -> np.ndarray:
    if not spec.squash:
        return pre.copy()
    lo = np.asarray(spec.vmin)
    hi = np.asarray(spec.vmax)
    return lo + (hi - lo) * expit(pre)


def _squash_grad(spec: PolicySpec, pre: np.ndarray) -> np.ndarray:
    if not spec.squash:
        return np.ones_like(pre)
    lo = np.asarray(spec.vmin)
    hi = np.asarray(spec.vmax)
    s = expit(pre)
    return (hi - lo) * s * (1.0 - s)


def _check_inflows(spec: PolicySpec, inflows) -> np.ndarray:
    inflows = np.asarray(inflows, dtype=float)
    if inflows.ndim != 3 or inflows.shape[2] != spec.n_hydros:
        raise ValueError(f"inflows must be (paths, stages, {spec.n_hydros}), "
                         f"got {inflows.shape}")
    return inflows


def ddr_forward(params: DdrParams, inflows) -> tuple[np.ndarray, RolloutTape]:
    """Roll the recurrent rule along a (B, T, H) inflow stack; returns the
    (B, T, H) targets and the tape.  Any T works: the parameters are
    stage-invariant.

    Each stage is one matmul per layer for the whole batch.  The head part
    [w | x0 | flag] of the first layer's input is known before the loop,
    so its product with the weights is taken once for every stage; the
    loop adds the latent part only.  The latent of stage t is written
    straight into the input of stage t+1 (the last stage's is never used).
    """
    spec = params.spec
    H = spec.n_hydros
    inflows = _check_inflows(spec, inflows)
    B, T, _ = inflows.shape
    lat = slice(2 * H + 1, None)
    a = np.zeros((T, B, spec.input_dim))
    a[1:, :, :H] = inflows[:, 1:].transpose(1, 0, 2) / np.asarray(spec.w_scale)
    a[0, :, H:2 * H] = np.asarray(spec.x0) / np.asarray(spec.x0_scale)
    a[0, :, 2 * H] = 1.0
    w0 = params.w[0]
    head_pre = a[..., :lat.start] @ w0[:, :lat.start].T + params.b[0]
    w0_lat = w0[:, lat].T
    layers = [(w.T, b) for w, b in zip(params.w[1:], params.b[1:])]
    heads_w = np.concatenate([params.w_x, params.w_l]).T
    heads_b = np.concatenate([params.b_x, params.b_l])

    hidden = [np.empty((T, B, w.shape[0])) for w in params.w]
    hx = np.empty((T, B, H))
    for t in range(T):
        pre = head_pre[t] + a[t, :, lat] @ w0_lat if t else head_pre[0]
        z = np.tanh(pre, out=hidden[0][t])
        for k, (w_t, b) in enumerate(layers, 1):
            z = np.tanh(z @ w_t + b, out=hidden[k][t])
        out = z @ heads_w + heads_b
        hx[t] = out[:, :H]
        if t + 1 < T:
            np.tanh(out[:, H:], out=a[t + 1, :, lat])
    targets = np.ascontiguousarray(_squash(spec, hx).transpose(1, 0, 2))
    return targets, RolloutTape(inputs=a, hidden=hidden, head_x_pre=hx)


def _outer_sum(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum over stages and paths of outer(g[t, b], x[t, b])."""
    return g.reshape(-1, g.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def ddr_backward(params: DdrParams, tape: RolloutTape, lam) -> DdrParams:
    """Gradient of sum_b sum_t lam[b, t] . targets[b, t] w.r.t. the
    parameters, summed over the batch.

    Reverse accumulation through the latent chain, one (B, ·) matmul per
    layer and stage; the weight gradients are then one matmul each over
    all stages and paths.  ``lam`` is (B, T, H) and treated as constant
    (it comes from the dispatch duals); a zero row adds nothing.
    """
    spec = params.spec
    H = spec.n_hydros
    a, hidden = tape.inputs, tape.hidden
    T, B = a.shape[:2]
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (B, T, H):
        raise ValueError(f"cotangents must be ({B}, {T}, {H}), got {lam.shape}")
    lat = slice(2 * H + 1, None)
    gh_x = lam.transpose(1, 0, 2) * _squash_grad(spec, tape.head_x_pre)
    g_top = gh_x @ params.w_x               # the target head's share of dL/dz
    tanh_grad = [1.0 - z * z for z in hidden]
    lat_grad = 1.0 - a[1:, :, lat] ** 2     # latents of stages 0 .. T-2
    w0_lat = params.w[0][:, lat]
    g_pre = [np.empty_like(z) for z in hidden]
    gh_l = np.zeros((T, B, spec.latent_dim))    # the last latent feeds nothing
    for t in range(T - 1, -1, -1):
        g_z = g_top[t] + gh_l[t] @ params.w_l
        for k in range(len(hidden) - 1, -1, -1):
            g = np.multiply(g_z, tanh_grad[k][t], out=g_pre[k][t])
            if k:
                g_z = g @ params.w[k]
        if t:
            gh_l[t - 1] = (g_pre[0][t] @ w0_lat) * lat_grad[t - 1]
    return DdrParams(spec=spec,
                     w=[_outer_sum(g, x) for g, x in zip(g_pre, [a, *hidden[:-1]])],
                     b=[g.sum(axis=(0, 1)) for g in g_pre],
                     w_x=_outer_sum(gh_x, hidden[-1]), b_x=gh_x.sum(axis=(0, 1)),
                     w_l=_outer_sum(gh_l, hidden[-1]), b_l=gh_l.sum(axis=(0, 1)))


# -- linear rule ---------------------------------------------------------------

def ldr_forward(params: LdrParams, inflows) -> tuple[np.ndarray, RolloutTape]:
    """Stage t applies theta_t to the (B, (t+1)H) history [w_2..w_{t+1} | x0]
    of every path at once; returns the (B, T, H) targets and the tape."""
    spec = params.spec
    inflows = _check_inflows(spec, inflows)
    B, _, H = inflows.shape
    T = spec.horizon
    if inflows.shape[1] < T:
        raise ValueError("path shorter than the linear rule's horizon")
    x0 = np.broadcast_to(np.asarray(spec.x0, dtype=float), (B, H))
    targets = np.empty((B, T, H))
    history = []
    for t, theta in enumerate(params.theta):
        s_t = np.concatenate([inflows[:, 1:t + 1].reshape(B, t * H), x0], axis=1)
        if theta.shape[1] != s_t.shape[1]:
            raise ValueError(f"stage {t}: rule expects {theta.shape[1]} "
                             f"history entries, got {s_t.shape[1]}")
        targets[:, t] = s_t @ theta.T
        history.append(s_t)
    return targets, RolloutTape(inputs=history)


def ldr_backward(params: LdrParams, tape: RolloutTape, lam) -> LdrParams:
    """dL/d theta_t = sum_b lam[b, t] (outer) history[b, t]; exact."""
    spec = params.spec
    lam = np.asarray(lam, dtype=float)
    shape = (tape.inputs[0].shape[0], spec.horizon, spec.n_hydros)
    if lam.shape != shape:
        raise ValueError(f"cotangents must be {shape}, got {lam.shape}")
    return LdrParams(spec=spec, theta=[lam[:, t].T @ s_t for t, s_t in enumerate(tape.inputs)])


# -- rollout facade used by evaluation and the trainer ------------------------

class Policy:
    """Bundles spec+params behind batch rollouts and their VJP."""

    def __init__(self, params):
        self.params = params

    @property
    def spec(self) -> PolicySpec:
        return self.params.spec

    @property
    def kind(self) -> str:
        return self.params.spec.kind

    def rollout(self, path: ScenarioPath) -> np.ndarray:
        """(T, H) targets of one path: the batch rollout with B = 1."""
        return self._forward(path.inflows[None])[0][0]

    def rollout_with_tape(self, paths: Sequence[ScenarioPath]):
        """(B, T, H) targets of equally long paths, plus the tape that
        :meth:`gradient` replays."""
        return self._forward(np.stack([p.inflows for p in paths]))

    def gradient(self, tape: RolloutTape, lam) -> np.ndarray:
        """Flat gradient of sum_b sum_t lam[b, t] . targets[b, t] for
        (B, T, H) cotangents ``lam``, summed over the batch."""
        backward = ddr_backward if isinstance(self.params, DdrParams) else ldr_backward
        return pack(backward(self.params, tape, lam))

    def _forward(self, inflows):
        forward = ddr_forward if isinstance(self.params, DdrParams) else ldr_forward
        return forward(self.params, inflows)

    def with_vector(self, vec: np.ndarray) -> "Policy":
        return Policy(unpack_like(self.params, vec))

    def vector(self) -> np.ndarray:
        return pack(self.params)


# -- checkpoints ---------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, case_hash: str, seed: int, extra: dict | None = None) -> None:
    spec = params.spec
    doc = {
        "version": CHECKPOINT_VERSION,
        "case_hash": case_hash,
        "seed": seed,
        "spec": {
            "kind": spec.kind, "n_hydros": spec.n_hydros, "horizon": spec.horizon,
            "latent_dim": spec.latent_dim, "hidden_layers": spec.hidden_layers,
            "squash": spec.squash, "vmin": list(spec.vmin), "vmax": list(spec.vmax),
            "x0": list(spec.x0), "w_scale": list(spec.w_scale),
            "x0_scale": list(spec.x0_scale),
        },
        "shapes": [list(a.shape) for a in params.arrays()],
        "values": [a.ravel().tolist() for a in params.arrays()],
    }
    if extra:
        doc["extra"] = extra
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path):
    """Returns (params, case_hash, extra)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    sd = doc["spec"]
    spec = PolicySpec(kind=sd["kind"], n_hydros=sd["n_hydros"], horizon=sd["horizon"],
                      latent_dim=sd["latent_dim"], hidden_layers=sd["hidden_layers"],
                      squash=sd["squash"], vmin=tuple(sd["vmin"]), vmax=tuple(sd["vmax"]),
                      x0=tuple(sd["x0"]), w_scale=tuple(sd["w_scale"]),
                      x0_scale=tuple(sd["x0_scale"]))
    arrays = [np.array(v, dtype=float).reshape(shape)
              for v, shape in zip(doc["values"], doc["shapes"])]
    template = init_params(spec, seed=0)
    params = unpack_like(template, np.concatenate([a.ravel() for a in arrays])
                         if arrays else np.zeros(0))
    return params, doc["case_hash"], doc.get("extra", {})
