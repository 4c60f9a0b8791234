"""Scenario engine: sampling statistics, splits, CSV interchange."""

import numpy as np
import pytest
from scipy import stats as sps

from hydrodr.model import load_case, bundled_case_path
from hydrodr.scenarios import (BatchSampler, LatticeStage, ScenarioSet,
                               load_scenarios_csv, make_lattice, sample_paths,
                               save_scenarios_csv, split)

from conftest import build_tiny_case


def three_point_lattice(T=48, n_hydros=1, probs=(1 / 3, 1 / 3, 1 / 3)):
    stages = [LatticeStage(values=np.full((1, n_hydros), 100.0), probs=np.array([1.0]))]
    for _ in range(1, T):
        vals = np.stack([np.full(n_hydros, v) for v in (40.0, 100.0, 160.0)])
        stages.append(LatticeStage(values=vals, probs=np.array(probs)))
    return ScenarioSet.lattice(stages)


def test_lattice_sampling_frequencies():
    sset = three_point_lattice()
    paths = sample_paths(sset, 1000, seed=0)
    assert len(paths) == 1000
    levels = np.array([40.0, 100.0, 160.0])
    for t in range(1, sset.horizon):
        vals = np.array([p.inflows[t, 0] for p in paths])
        for k, v in enumerate(levels):
            freq = np.mean(vals == v)
            assert abs(freq - 1 / 3) < 0.05, f"stage {t} level {k}: {freq}"


def test_lattice_chi_square_goodness_of_fit():
    sset = three_point_lattice(T=4, probs=(0.25, 0.5, 0.25))
    paths = sample_paths(sset, 10_000, seed=1)
    vals = np.array([p.inflows[2, 0] for p in paths])
    counts = [np.sum(vals == v) for v in (40.0, 100.0, 160.0)]
    _, p_value = sps.chisquare(counts, f_exp=[2500, 5000, 2500])
    assert p_value >= 0.001


def test_single_realization_lattice_is_deterministic():
    stages = [LatticeStage(values=np.array([[3.0, 1.0]]), probs=np.array([1.0]))
              for _ in range(5)]
    sset = ScenarioSet.lattice(stages)
    assert sset.deterministic()
    paths = sample_paths(sset, 10, seed=9)
    for p in paths[1:]:
        assert np.array_equal(p.inflows, paths[0].inflows)


def test_sampling_determinism_under_seed():
    sset = three_point_lattice(T=6)
    a = sample_paths(sset, 20, seed=5)
    b = sample_paths(sset, 20, seed=5)
    c = sample_paths(sset, 20, seed=6)
    assert all(np.array_equal(x.inflows, y.inflows) for x, y in zip(a, b))
    assert any(not np.array_equal(x.inflows, y.inflows) for x, y in zip(a, c))


def test_lattice_draw_matches_per_path_choice_loop():
    """The vectorized draw takes the stream of ``rng.choice`` called path
    by path and stage by stage: same paths, same source ids, same
    generator state afterwards."""
    rng = np.random.default_rng(3)
    stages = [LatticeStage(values=np.array([[5.0, 2.0]]), probs=np.array([1.0]))]
    for _ in range(5):
        probs = rng.uniform(0.1, 2.0, size=4)
        stages.append(LatticeStage(values=rng.uniform(0.0, 9.0, size=(4, 2)),
                                   probs=probs / probs.sum()))
    sset = ScenarioSet.lattice(stages)

    reference = np.random.default_rng(11)
    expected = []
    for _ in range(50):
        idx = tuple(int(reference.choice(st.probs.size, p=st.probs)) for st in stages)
        expected.append((np.stack([st.values[i] for st, i in zip(stages, idx)]),
                         ("lattice",) + idx))
    sampler = BatchSampler(sset, 50, np.random.SeedSequence(0))
    sampler.rng = np.random.default_rng(11)
    paths = sampler.next_batch()
    for path, (inflows, source_id) in zip(paths, expected, strict=True):
        assert np.array_equal(path.inflows, inflows)
        assert path.source_id == source_id
    assert sampler.rng.bit_generator.state == reference.bit_generator.state


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_paths(three_point_lattice(T=3), 0, seed=0)


def test_probabilities_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        ScenarioSet.lattice([LatticeStage(values=np.array([[1.0], [2.0]]),
                                          probs=np.array([0.6, 0.6]))])
    with pytest.raises(ValueError, match="negative"):
        ScenarioSet.lattice([LatticeStage(values=np.array([[-1.0]]),
                                          probs=np.array([1.0]))])


def test_split_protocol_shapes():
    sset = three_point_lattice(T=8)
    sampler, val, test = split(sset, 32, 1000, 1000, seed=0)
    assert isinstance(sampler, BatchSampler)
    assert len(sampler.next_batch()) == 32
    assert len(val) == 1000
    assert len(test) == 1000


def test_split_test_stream_independent_of_batch_and_val():
    sset = three_point_lattice(T=6)
    _, _, test_a = split(sset, 32, 100, 50, seed=3)
    _, _, test_b = split(sset, 4, 0, 50, seed=3)
    for x, y in zip(test_a, test_b):
        assert np.array_equal(x.inflows, y.inflows)
    _, val_a, _ = split(sset, 32, 20, 50, seed=3)
    _, val_b, _ = split(sset, 8, 20, 50, seed=3)
    for x, y in zip(val_a, val_b):
        assert np.array_equal(x.inflows, y.inflows)


def test_split_val_disabled():
    sset = three_point_lattice(T=4)
    _, val, test = split(sset, 8, 0, 5, seed=0)
    assert val == []
    assert len(test) == 5


def test_historical_mode_draws_full_rows():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, 10, size=(165, 12, 2))
    sset = ScenarioSet.historical(rows)
    assert sset.n_historical == 165
    _, _, test = split(sset, 16, 0, 100, seed=1)
    assert len(test) == 100
    for p in test:
        kind, row = p.source_id
        assert kind == "historical"
        assert np.array_equal(p.inflows, rows[row])


def test_historical_empty_rejected():
    with pytest.raises(ValueError):
        ScenarioSet.historical(np.zeros((0, 4, 1)))


def test_make_lattice_shapes_and_stage_one():
    case = build_tiny_case(horizon=6)
    sset = make_lattice(case, 3, spread=0.6)
    assert sset.horizon == 6
    assert sset.stages[0].values.shape == (1, 1)
    for st in sset.stages[1:]:
        assert st.values.shape == (3, 1)
        assert st.probs.sum() == pytest.approx(1.0)
    single = make_lattice(case, 1)
    assert single.deterministic()


def test_csv_roundtrip_lattice(tmp_path):
    case = build_tiny_case(horizon=4)
    sset = make_lattice(case, 3)
    p = tmp_path / "lat.csv"
    save_scenarios_csv(sset, p)
    back = load_scenarios_csv(p)
    assert back.mode == "lattice"
    assert back.horizon == sset.horizon
    for a, b in zip(sset.stages, back.stages):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.probs, b.probs)


def test_csv_roundtrip_historical(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 5, size=(7, 5, 3))
    sset = ScenarioSet.historical(rows)
    p = tmp_path / "hist.csv"
    save_scenarios_csv(sset, p)
    back = load_scenarios_csv(p)
    assert back.mode == "historical"
    assert np.allclose(back.paths, rows)


def test_csv_header_detection(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("stage,hydro,value\n1,0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_scenarios_csv(p)


def test_case3_lattice_matches_flavor():
    case = load_case(bundled_case_path())
    sset = make_lattice(case, 3)
    assert sset.horizon == 48
    assert sset.stages[1].values.shape[0] == 3
