"""Policy engine: rollouts, exact backward passes, init, checkpoints."""

import numpy as np
import pytest
from scipy.special import expit

from hydrodr.policy import (Policy, PolicySpec, ddr_backward,
                            ddr_forward, init_params, ldr_backward, ldr_forward,
                            load_checkpoint, pack, save_checkpoint, spec_for_case,
                            unpack_like)
from hydrodr.scenarios import ScenarioPath, sample_paths, make_lattice

from conftest import build_cascade_case
from oracles import ddr_backward_path, ddr_forward_path, ldr_backward_path, ldr_forward_path


def ddr_spec(n_hydros=2, latent=6, layers=2, squash=True):
    return PolicySpec(kind="ts-ddr", n_hydros=n_hydros, horizon=5,
                      latent_dim=latent, hidden_layers=layers, squash=squash,
                      vmin=tuple(0.0 for _ in range(n_hydros)),
                      vmax=tuple(10.0 + i for i in range(n_hydros)),
                      x0=tuple(5.0 for _ in range(n_hydros)),
                      w_scale=tuple(2.0 for _ in range(n_hydros)),
                      x0_scale=tuple(10.0 for _ in range(n_hydros)))


def rand_path(T, H, seed=0):
    rng = np.random.default_rng(seed)
    return ScenarioPath(inflows=rng.uniform(0, 4, size=(T, H)), source_id=("p", seed))


def one(path):
    """A single path as a batch of one."""
    return path.inflows[None]


def test_zero_network_emits_midpoints():
    spec = ddr_spec()
    params = unpack_like(init_params(spec, 0), np.zeros(pack(init_params(spec, 0)).size))
    targets, _ = ddr_forward(params, one(rand_path(5, 2)))
    mid = (np.array(spec.vmin) + np.array(spec.vmax)) / 2
    assert np.allclose(targets, mid)


def test_longer_horizon_rollout_same_params():
    spec = ddr_spec()
    params = init_params(spec, 1)
    t1, _ = ddr_forward(params, one(rand_path(5, 2)))
    t2, _ = ddr_forward(params, one(rand_path(10, 2)))
    assert t1.shape == (1, 5, 2) and t2.shape == (1, 10, 2)
    assert np.all(t2 >= spec.vmin) and np.all(t2 <= spec.vmax)


def test_recurrence_causality():
    spec = ddr_spec()
    params = init_params(spec, 2)
    path = rand_path(6, 2, seed=3)
    base, _ = ddr_forward(params, one(path))
    bumped = ScenarioPath(inflows=path.inflows.copy(), source_id=("b",))
    bumped.inflows[4, 1] += 1.0
    after, _ = ddr_forward(params, one(bumped))
    assert np.array_equal(base[0, :4], after[0, :4])
    assert not np.allclose(base[0, 4:], after[0, 4:])


def test_tape_replay_bit_identical():
    spec = ddr_spec()
    params = init_params(spec, 4)
    path = rand_path(5, 2, seed=9)
    t1, tape1 = ddr_forward(params, one(path))
    t2, tape2 = ddr_forward(params, one(path))
    assert np.array_equal(t1, t2)
    assert np.array_equal(tape1.inputs, tape2.inputs)
    for a, b in zip(tape1.hidden, tape2.hidden):
        assert np.array_equal(a, b)


def test_backward_zero_cotangent_zero_gradient():
    spec = ddr_spec()
    params = init_params(spec, 5)
    _, tape = ddr_forward(params, one(rand_path(5, 2)))
    grad = ddr_backward(params, tape, np.zeros((1, 5, 2)))
    assert np.all(pack(grad) == 0.0)


def test_backward_hand_computed_single_stage():
    """One stage, one hidden layer: dL/d(b_x) = lam * squash'(pre) and the
    chain through tanh matches the hand formula."""
    spec = PolicySpec(kind="ts-ddr", n_hydros=1, horizon=1, latent_dim=1,
                      hidden_layers=1, squash=True, vmin=(0.0,), vmax=(8.0,),
                      x0=(4.0,), w_scale=(1.0,), x0_scale=(8.0,))
    params = init_params(spec, 0)
    params.w[0][:] = 0.3
    params.b[0][:] = 0.1
    params.w_x[:] = 0.7
    params.b_x[:] = -0.2
    path = ScenarioPath(inflows=np.array([[2.0]]), source_id=("h",))
    targets, tape = ddr_forward(params, one(path))
    lam = np.array([[[2.5]]])
    grad = ddr_backward(params, tape, lam)

    a = np.array([0.0, 4.0 / 8.0, 1.0, 0.0])        # [w; x0; flag; latent0]
    z = np.tanh(params.w[0] @ a + params.b[0])
    pre = params.w_x @ z + params.b_x
    s = expit(pre)
    d_squash = 8.0 * s * (1 - s)
    assert targets[0, 0, 0] == pytest.approx(0.0 + 8.0 * s[0])
    assert grad.b_x[0] == pytest.approx(2.5 * d_squash[0])
    assert grad.w_x[0, 0] == pytest.approx(2.5 * d_squash[0] * z[0])
    g_z = params.w_x[0, 0] * 2.5 * d_squash[0]
    g_pre = g_z * (1 - z[0] ** 2)
    assert grad.b[0][0] == pytest.approx(g_pre)
    assert grad.w[0][0, 1] == pytest.approx(g_pre * a[1])


@pytest.mark.parametrize("squash", [True, False])
def test_ddr_gradient_matches_finite_differences(squash):
    spec = ddr_spec(squash=squash)
    params = init_params(spec, 7)
    path = rand_path(5, 2, seed=11)
    rng = np.random.default_rng(13)
    lam = rng.normal(size=(1, 5, 2))
    _, tape = ddr_forward(params, one(path))
    grad = pack(ddr_backward(params, tape, lam))
    vec = pack(params)

    def loss(v):
        t, _ = ddr_forward(unpack_like(params, v), one(path))
        return float(np.sum(lam * t))

    for i in rng.choice(vec.size, size=30, replace=False):
        eps = 1e-5 * max(1.0, abs(vec[i]))
        up, dn = vec.copy(), vec.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (loss(up) - loss(dn)) / (2 * eps)
        assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9), f"coord {i}"


def test_ldr_zero_params_zero_targets():
    spec = PolicySpec(kind="ts-ldr", n_hydros=2, horizon=4, vmin=(0.0,) * 2,
                      vmax=(10.0,) * 2, x0=(5.0, 4.0), w_scale=(1.0,) * 2,
                      x0_scale=(1.0,) * 2)
    params = init_params(spec, 0)
    zero = unpack_like(params, np.zeros(pack(params).size))
    assert np.all(ldr_forward(zero, one(rand_path(4, 2)))[0] == 0.0)


def test_ldr_identity_rule_holds_x0():
    spec = PolicySpec(kind="ts-ldr", n_hydros=2, horizon=4, vmin=(0.0,) * 2,
                      vmax=(10.0,) * 2, x0=(5.0, 4.0), w_scale=(1.0,) * 2,
                      x0_scale=(1.0,) * 2)
    params = init_params(spec, 0)     # identity on the x0 block
    targets, _ = ldr_forward(params, one(rand_path(4, 2, seed=2)))
    assert np.allclose(targets[0], np.tile([5.0, 4.0], (4, 1)))
    # column counts grow with the stacked history: stage t has t*H columns
    for t, th in enumerate(params.theta):
        assert th.shape == (2, (t + 1) * 2)


def test_ldr_gradient_outer_product_and_fd():
    spec = PolicySpec(kind="ts-ldr", n_hydros=2, horizon=4, vmin=(0.0,) * 2,
                      vmax=(10.0,) * 2, x0=(5.0, 4.0), w_scale=(1.0,) * 2,
                      x0_scale=(1.0,) * 2)
    params = init_params(spec, 0)
    path = rand_path(4, 2, seed=5)
    rng = np.random.default_rng(6)
    lam = rng.normal(size=(1, 4, 2))
    _, tape = ldr_forward(params, one(path))
    grad = ldr_backward(params, tape, lam)
    # outer-product structure: stage t block is lam_t x history_t
    hist1 = np.concatenate([path.inflows[1], [5.0, 4.0]])
    assert np.allclose(grad.theta[1], np.outer(lam[0, 1], hist1))
    assert np.all(pack(ldr_backward(params, tape, np.zeros((1, 4, 2)))) == 0.0)

    vec = pack(params)
    gvec = pack(grad)

    def loss(v):
        return float(np.sum(lam * ldr_forward(unpack_like(params, v), one(path))[0]))

    for i in rng.choice(vec.size, size=20, replace=False):
        fd = (loss(vec + 0.5 * np.eye(vec.size)[i]) - loss(vec - 0.5 * np.eye(vec.size)[i]))
        assert fd == pytest.approx(gvec[i], rel=1e-8, abs=1e-10)


def test_init_deterministic_and_finite():
    spec = ddr_spec()
    a = pack(init_params(spec, 42))
    b = pack(init_params(spec, 42))
    c = pack(init_params(spec, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.isfinite(a))


def test_init_targets_strictly_inside_bounds():
    case = build_cascade_case(horizon=6)
    spec = spec_for_case(case, "ts-ddr", latent_dim=8)
    params = init_params(spec, 3)
    lat = make_lattice(case, 3)
    for path in sample_paths(lat, 100, seed=8):
        targets, _ = ddr_forward(params, one(path))
        assert np.all(targets > np.array(spec.vmin))
        assert np.all(targets < np.array(spec.vmax))


def test_policy_facade_and_checkpoint_roundtrip(tmp_path):
    case = build_cascade_case(horizon=6)
    spec = spec_for_case(case, "ts-ddr", latent_dim=8)
    params = init_params(spec, 3)
    pol = Policy(params)
    lat = make_lattice(case, 3)
    path = sample_paths(lat, 1, seed=0)[0]
    t1 = pol.rollout(path)

    save_checkpoint(tmp_path / "ck.json", params, "deadbeef", 3,
                    extra={"model": "ts-ddr"})
    loaded, chash, extra = load_checkpoint(tmp_path / "ck.json")
    assert chash == "deadbeef"
    assert extra["model"] == "ts-ddr"
    assert np.array_equal(pack(loaded), pack(params))
    assert np.array_equal(Policy(loaded).rollout(path), t1)


def test_checkpoint_version_guard(tmp_path):
    case = build_cascade_case(horizon=4)
    spec = spec_for_case(case, "ts-ldr")
    save_checkpoint(tmp_path / "ck.json", init_params(spec, 0), "x", 0)
    import json
    doc = json.loads((tmp_path / "ck.json").read_text())
    doc["version"] = 99
    (tmp_path / "ck.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(tmp_path / "ck.json")


def test_dimension_mismatch_raises():
    spec = ddr_spec()
    params = init_params(spec, 0)
    with pytest.raises(ValueError):
        ddr_forward(params, one(rand_path(5, 3)))
    _, tape = ddr_forward(params, one(rand_path(5, 2)))
    with pytest.raises(ValueError):
        ddr_backward(params, tape, np.zeros((1, 5, 3)))
    with pytest.raises(ValueError):
        ddr_backward(params, tape, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        unpack_like(params, np.zeros(3))


def _batch(B, T, H, seed):
    rng = np.random.default_rng(seed)
    return [ScenarioPath(inflows=rng.uniform(0, 4, size=(T, H)), source_id=("p", b))
            for b in range(B)]


def _assert_close(batched, reference):
    # summation order differs from the per-path reference, so equality is
    # to 1e-12 relative, measured against the array's own scale
    np.testing.assert_allclose(batched, reference, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(reference)))


@pytest.mark.parametrize("B", [1, 3, 32])
@pytest.mark.parametrize("layers,squash", [(1, True), (2, True), (1, False), (2, False)])
def test_ddr_batch_matches_per_path_reference(B, layers, squash):
    params = init_params(ddr_spec(layers=layers, squash=squash), seed=B + layers)
    paths = _batch(B, 5, 2, seed=B)
    lam = np.random.default_rng(B + 100).normal(size=(B, 5, 2)) * 1e3
    pol = Policy(params)
    targets, tape = pol.rollout_with_tape(paths)
    refs = [ddr_forward_path(params, p.inflows) for p in paths]
    _assert_close(targets, np.stack([t for t, _ in refs]))
    grad_ref = np.sum([np.concatenate([g.ravel() for g in ddr_backward_path(params, tp, l)])
                       for (_, tp), l in zip(refs, lam)], axis=0)
    _assert_close(pol.gradient(tape, lam), grad_ref)
    _assert_close(pol.rollout(paths[-1]), refs[-1][0])


@pytest.mark.parametrize("B", [1, 3, 32])
def test_ldr_batch_matches_per_path_reference(B):
    spec = PolicySpec(kind="ts-ldr", n_hydros=2, horizon=4, vmin=(0.0,) * 2,
                      vmax=(10.0,) * 2, x0=(5.0, 4.0), w_scale=(1.0,) * 2,
                      x0_scale=(1.0,) * 2)
    template = init_params(spec, 0)
    rng = np.random.default_rng(B)
    params = unpack_like(template, rng.normal(size=pack(template).size))
    paths = _batch(B, 4, 2, seed=B)
    lam = rng.normal(size=(B, 4, 2)) * 1e3
    pol = Policy(params)
    targets, tape = pol.rollout_with_tape(paths)
    _assert_close(targets, np.stack([ldr_forward_path(params, p.inflows) for p in paths]))
    grad_ref = np.sum([np.concatenate([g.ravel() for g in ldr_backward_path(params, p.inflows, l)])
                       for p, l in zip(paths, lam)], axis=0)
    _assert_close(pol.gradient(tape, lam), grad_ref)


@pytest.mark.parametrize("kind", ["ts-ddr", "ts-ldr"])
@pytest.mark.parametrize("row", [0, 2, 3])
def test_zero_cotangent_row_adds_nothing(kind, row):
    """A failed path's zero row leaves the batch gradient exactly what the
    batch without that path gives."""
    case = build_cascade_case(horizon=6)
    pol = Policy(init_params(spec_for_case(case, kind, latent_dim=8), 3))
    paths = sample_paths(make_lattice(case, 3), 4, seed=1)
    lam = np.random.default_rng(0).normal(size=(4, 6, 2)) * 1e3
    _, tape = pol.rollout_with_tape(paths)
    assert np.all(pol.gradient(tape, np.zeros_like(lam)) == 0.0)
    keep = [i for i in range(4) if i != row]
    _, tape_kept = pol.rollout_with_tape([paths[i] for i in keep])
    lam_zeroed = lam.copy()
    lam_zeroed[row] = 0.0
    assert np.array_equal(pol.gradient(tape, lam_zeroed), pol.gradient(tape_kept, lam[keep]))


def test_deep_rule_needs_a_hidden_layer():
    with pytest.raises(ValueError, match="hidden layer"):
        init_params(ddr_spec(layers=0), 0)
