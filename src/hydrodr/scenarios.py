"""Inflow uncertainty: lattices, historical paths, sampling and splits.

Two modes are supported.  A *lattice* is stagewise independent: every stage
carries its own support of inflow vectors with probabilities (stage 1 by
convention has a single deterministic realization, since the first-stage
inflow is part of the initial condition).  *Historical* mode keeps whole
inflow paths intact, preserving temporal dependence; sampling then draws
full rows uniformly with replacement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import GridCase


@dataclass(frozen=True)
class ScenarioPath:
    """One full-horizon inflow realization, hm3 per (stage, hydro)."""
    inflows: np.ndarray              # (T, n_hydros)
    source_id: tuple

    def __post_init__(self):
        object.__setattr__(self, "inflows", np.asarray(self.inflows, dtype=float))
        if self.inflows.ndim != 2:
            raise ValueError("path inflows must be a (T, n_hydros) matrix")
        if np.any(self.inflows < 0) or not np.all(np.isfinite(self.inflows)):
            raise ValueError("path inflows must be finite and nonnegative")


@dataclass
class LatticeStage:
    values: np.ndarray               # (K, n_hydros)
    probs: np.ndarray                # (K,)


class ScenarioSet:
    """Container for the exogenous inflow process; immutable by convention."""

    def __init__(self, mode: str, horizon: int, n_hydros: int,
                 stages: list[LatticeStage] | None = None,
                 paths: np.ndarray | None = None):
        if mode not in ("lattice", "historical"):
            raise ValueError(f"unknown scenario mode {mode!r}")
        self.mode = mode
        self.horizon = horizon
        self.n_hydros = n_hydros
        self.stages = stages
        self.paths = paths
        self._validate()

    @classmethod
    def lattice(cls, stages: list[LatticeStage]) -> "ScenarioSet":
        if not stages:
            raise ValueError("lattice needs at least one stage")
        n_hydros = np.asarray(stages[0].values).shape[1]
        return cls("lattice", len(stages), n_hydros, stages=stages)

    @classmethod
    def historical(cls, paths) -> "ScenarioSet":
        arr = np.asarray(paths, dtype=float)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise ValueError("historical paths must be a nonempty (N, T, n_hydros) array")
        return cls("historical", arr.shape[1], arr.shape[2], paths=arr)

    def _validate(self):
        if self.mode == "lattice":
            if not self.stages or len(self.stages) != self.horizon:
                raise ValueError("lattice stage count must equal the horizon")
            for t, st in enumerate(self.stages):
                st.values = np.asarray(st.values, dtype=float)
                st.probs = np.asarray(st.probs, dtype=float)
                if st.values.ndim != 2 or st.values.shape[1] != self.n_hydros:
                    raise ValueError(f"stage {t}: values must be (K, {self.n_hydros})")
                if st.probs.shape != (st.values.shape[0],):
                    raise ValueError(f"stage {t}: probs shape mismatch")
                if np.any(st.values < 0):
                    raise ValueError(f"stage {t}: negative inflow value")
                if np.any(st.probs < 0) or abs(st.probs.sum() - 1.0) > 1e-12:
                    raise ValueError(f"stage {t}: probabilities must be nonnegative and sum to 1")
        else:
            if np.any(self.paths < 0) or not np.all(np.isfinite(self.paths)):
                raise ValueError("historical inflows must be finite and nonnegative")

    @property
    def n_historical(self) -> int:
        return 0 if self.paths is None else self.paths.shape[0]

    def deterministic(self) -> bool:
        return self.mode == "lattice" and all(s.values.shape[0] == 1 for s in self.stages)


def sample_paths(sset: ScenarioSet, count: int, seed: int) -> list[ScenarioPath]:
    """Draw ``count`` full-horizon paths; deterministic under a fixed seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return _draw(sset, count, rng)


def _stage_cdf(probs: np.ndarray) -> np.ndarray:
    """Normalized cumulative distribution of one stage's probabilities,
    validated as ``Generator.choice`` validates ``p``."""
    total = float(np.sum(probs))
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if np.any(probs < 0):
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(probs)
    return cdf / cdf[-1]


def _draw(sset: ScenarioSet, count: int, rng: np.random.Generator) -> list[ScenarioPath]:
    out = []
    if sset.mode == "lattice":
        # one uniform per (path, stage) in path-major order, inverted through
        # each stage's CDF: the draws ``rng.choice(K, p=probs)`` makes path by
        # path and stage by stage
        u = rng.random((count, len(sset.stages)))
        idx = np.stack([np.searchsorted(_stage_cdf(st.probs), u[:, t], side="right")
                        for t, st in enumerate(sset.stages)], axis=1)
        inflows = np.stack([st.values[idx[:, t]] for t, st in enumerate(sset.stages)], axis=1)
        for k in range(count):
            out.append(ScenarioPath(inflows=inflows[k],
                                    source_id=("lattice",) + tuple(int(i) for i in idx[k])))
    else:
        rows = rng.integers(0, sset.n_historical, size=count)
        for r in rows:
            out.append(ScenarioPath(inflows=sset.paths[int(r)].copy(),
                                    source_id=("historical", int(r))))
    return out


class BatchSampler:
    """Endless seeded batch source for training; one instance per worker."""

    def __init__(self, sset: ScenarioSet, batch_size: int, seed_seq: np.random.SeedSequence):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.sset = sset
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed_seq)

    def next_batch(self) -> list[ScenarioPath]:
        return _draw(self.sset, self.batch_size, self.rng)


def split(source: ScenarioSet, train_batch: int, n_val: int, n_test: int, seed: int):
    """Independent (sampler, validation list, test list) from one seed.

    The three draws use separate child seed streams, so changing the batch
    size or validation count never alters the test set.
    """
    if source.mode == "historical" and source.n_historical < 1:
        raise ValueError("insufficient historical paths to split")
    ss_train, ss_val, ss_test = np.random.SeedSequence(seed).spawn(3)
    sampler = BatchSampler(source, train_batch, ss_train)
    val = _draw(source, n_val, np.random.default_rng(ss_val)) if n_val > 0 else []
    test = _draw(source, n_test, np.random.default_rng(ss_test)) if n_test > 0 else []
    return sampler, val, test


def base_inflow(case: GridCase) -> np.ndarray:
    """Half of each hydro's full-power stage water use, hm3 per stage."""
    gens = {g.id: g for g in case.generators}
    return np.array([0.5 * h.phi * gens[h.generator].pmax * case.stage_hours
                     for h in case.hydros])


def make_lattice(case: GridCase, n_points: int, spread: float = 0.6) -> ScenarioSet:
    """Synthetic stagewise-independent lattice sized from the case.

    Base inflow per hydro is half of its full-power stage water use; the
    support spreads evenly around it.  Stage 1 carries the single base
    realization (the first-stage inflow is deterministic).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not 0.0 <= spread < 1.0:
        raise ValueError("spread must be in [0, 1)")
    base = base_inflow(case)
    offsets = np.array([0.0]) if n_points == 1 else np.linspace(-1.0, 1.0, n_points)
    levels = base[None, :] * (1.0 + spread * offsets[:, None])
    probs = np.full(n_points, 1.0 / n_points)
    stages = [LatticeStage(values=base[None, :].copy(), probs=np.array([1.0]))]
    for _ in range(1, case.horizon):
        stages.append(LatticeStage(values=levels.copy(), probs=probs.copy()))
    return ScenarioSet.lattice(stages)


# -- CSV interchange ---------------------------------------------------------

def load_scenarios_csv(path) -> ScenarioSet:
    """Read a scenario file; the header decides the mode.

    ``stage,hydro,value,prob`` is a lattice (consecutive rows cycling
    through hydro 0..H-1 with equal prob form one joint realization);
    ``path,stage,hydro,value`` is historical.  Stages are 1-based on disk.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty scenario file")
    if "prob" in fields:
        return _lattice_from_rows(rows, path)
    if "path" in fields:
        return _historical_from_rows(rows, path)
    raise ValueError(f"{path}: header must contain 'prob' (lattice) or 'path' (historical)")


def _lattice_from_rows(rows, path) -> ScenarioSet:
    n_hydros = max(int(r["hydro"]) for r in rows) + 1
    horizon = max(int(r["stage"]) for r in rows)
    per_stage: dict[int, list] = {t: [] for t in range(horizon)}
    for r in rows:
        per_stage[int(r["stage"]) - 1].append(r)
    stages = []
    for t in range(horizon):
        chunk = per_stage[t]
        if len(chunk) % n_hydros:
            raise ValueError(f"{path}: stage {t + 1} rows not a multiple of hydro count")
        values, probs = [], []
        for k in range(0, len(chunk), n_hydros):
            real = chunk[k:k + n_hydros]
            if [int(r["hydro"]) for r in real] != list(range(n_hydros)):
                raise ValueError(f"{path}: stage {t + 1} hydro column must cycle 0..{n_hydros - 1}")
            p = {float(r["prob"]) for r in real}
            if len(p) != 1:
                raise ValueError(f"{path}: stage {t + 1} realization with mixed prob values")
            values.append([float(r["value"]) for r in real])
            probs.append(p.pop())
        stages.append(LatticeStage(values=np.array(values), probs=np.array(probs)))
    return ScenarioSet.lattice(stages)


def _historical_from_rows(rows, path) -> ScenarioSet:
    n_hydros = max(int(r["hydro"]) for r in rows) + 1
    horizon = max(int(r["stage"]) for r in rows)
    ids = sorted({int(r["path"]) for r in rows})
    arr = np.full((len(ids), horizon, n_hydros), np.nan)
    pos = {p: i for i, p in enumerate(ids)}
    for r in rows:
        arr[pos[int(r["path"])], int(r["stage"]) - 1, int(r["hydro"])] = float(r["value"])
    if np.any(np.isnan(arr)):
        raise ValueError(f"{path}: historical block has missing (path, stage, hydro) cells")
    return ScenarioSet.historical(arr)


def save_scenarios_csv(sset: ScenarioSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if sset.mode == "lattice":
            writer.writerow(["stage", "hydro", "value", "prob"])
            for t, st in enumerate(sset.stages):
                for k in range(st.values.shape[0]):
                    for j in range(sset.n_hydros):
                        writer.writerow([t + 1, j, repr(float(st.values[k, j])),
                                         repr(float(st.probs[k]))])
        else:
            writer.writerow(["path", "stage", "hydro", "value"])
            for p in range(sset.n_historical):
                for t in range(sset.horizon):
                    for j in range(sset.n_hydros):
                        writer.writerow([p, t + 1, j, repr(float(sset.paths[p, t, j]))])
