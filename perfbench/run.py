"""Benchmark for hydrodr: TS-DDR training and SDDP on synthetic cases.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-synth6 --seed 1 --seconds 30 --trace 0

A run sets up once (timed from the process's start), then repeats whole
rounds of fixed work (fit, then evaluate every test path) until the next
round would end after ``--seconds``.  A fixed reference kernel
(``refkernel.py``) runs between the program's operations, outside the
timed phases, and every time is reported in seconds at the kernel's
nominal speed.  After the timed
rounds the outputs of the last round are checked against SciPy's HiGHS.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` wraps
every layer and reports per-layer metrics instead of end-to-end ones.
See README.md in this directory.
"""

from __future__ import annotations

import os
import time

_T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# --seed draws the inputs: every inflow level of the lattice is scaled by a
# seeded factor in [1 - JITTER, 1 + JITTER].  The grid case, the policy's
# initialization, the indices of the training, validation and test draws
# and SDDP's forward samples are fixed parts of the workload.  With those
# seeded too, test_cost spread 5-11% across seeds (from the random initial
# policy alone), and fit_s and eval_path_s moved with the iteration counts.
CASE_SEED = 1
PROGRAM_SEED = 0
TEST_SEED = 20240522
JITTER = 0.05
LATTICE_POINTS = 3
SETUP_KERNEL_RUNS = 4    # kernel samples at each of three set-up boundaries


@dataclass(frozen=True)
class Workload:
    name: str
    method: str                      # "ts-ddr" or "sddp"
    buses: int
    hydros: int
    horizon: int
    test_paths: int
    epochs: int = 0
    batch: int = 0
    n_val: int = 0
    eval_every: int = 1
    sddp_iters: int = 0
    dual_checks: int = 2             # LPs whose duals get the subgradient test


WORKLOADS = {w.name: w for w in (
    Workload("train-synth6", "ts-ddr", 6, 2, 12, test_paths=24,
             epochs=3, batch=32, n_val=16, eval_every=3),
    Workload("train-synth30", "ts-ddr", 30, 6, 24, test_paths=8,
             epochs=2, batch=2, n_val=2, eval_every=2),
    Workload("sddp-synth6", "sddp", 6, 2, 12, test_paths=16, sddp_iters=5),
)}

# --smoke: the same pipeline on the least work that still runs every layer
SMOKE = {
    "ts-ddr": dict(epochs=1, batch=2, n_val=2, eval_every=1, test_paths=2,
                   dual_checks=1),
    "sddp": dict(sddp_iters=2, test_paths=2, dual_checks=1),
}

END_TO_END = {"setup_s": "s", "fit_s": "s", "eval_path_s": "s",
              "test_cost": "USD", "peak_rss_mb": "MB"}
PER_LAYER = {
    "policy.rollout_s": "s", "policy.rollouts": "count",
    "policy.vjp_s": "s", "policy.vjps": "count",
    "builder.build_s": "s", "builder.builds": "count", "builder.duals_s": "s",
    "ipm.solve_s": "s", "ipm.solves": "count", "ipm.iterations": "count",
    "ipm.nonoptimal": "count", "ipm.factor_s": "s", "ipm.factorizations": "count",
    "ipm.lu_fill": "ratio", "ipm.self_s": "s", "lp.check_kkt_s": "s",
    "train.adam_s": "s", "train.adam_steps": "count",
    "sddp.stage_solve_s": "s", "sddp.stage_solves": "count",
    "sddp.stage_build_s": "s", "sddp.cuts": "count",
}


def seconds_since_process_start() -> float:
    """Wall time since this process was created (Linux), else since this
    module started loading."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_START


def import_hydrodr():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hydrodr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hydrodr sources under {src}")
    sys.path.insert(0, str(src))
    import hydrodr
    if Path(hydrodr.__file__).resolve().parent != (src / "hydrodr").resolve():
        raise SystemExit(f"perfbench: imported hydrodr from {hydrodr.__file__}")
    return hydrodr


def machine_info() -> dict:
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def seeded_lattice(case, points: int, seed: int):
    """``make_lattice(case, points)`` with every level scaled by a seeded
    factor in [1 - JITTER, 1 + JITTER]."""
    from hydrodr.scenarios import LatticeStage, ScenarioSet, make_lattice
    rng = np.random.default_rng(seed)
    stages = [LatticeStage(values=st.values * rng.uniform(1 - JITTER, 1 + JITTER,
                                                          size=st.values.shape),
                           probs=st.probs)
              for st in make_lattice(case, points).stages]
    return ScenarioSet.lattice(stages)


def median(values) -> float:
    return float(np.median(values))


class Bench:
    """Set-up, timed rounds and checks of one workload."""

    def __init__(self, w: Workload, seed: int):
        from hydrodr import builder, ipm, model, policy, scenarios, sddp
        from refkernel import ReferenceKernel
        self.w, self.seed = w, seed
        self.kernel = ReferenceKernel()
        self.sample_setup_speed()
        self.case = model.synthesize_case(w.buses, w.hydros, seed=CASE_SEED,
                                          horizon=w.horizon)
        self.lattice = seeded_lattice(self.case, LATTICE_POINTS, seed)
        _, _, self.test = scenarios.split(self.lattice, 1, 0, w.test_paths, TEST_SEED)
        self.c_delta = builder.default_deviation_penalty(self.case)
        self.sample_setup_speed()
        # warm-up: one solve through the same code path as the rounds
        if w.method == "ts-ddr":
            spec = policy.spec_for_case(self.case, "ts-ddr")
            pol = policy.Policy(policy.init_params(spec, seed=PROGRAM_SEED))
            path = self.test[0]
            prob = builder.build_second_stage(self.case, path, pol.rollout(path),
                                              self.c_delta)
            if not ipm.solve(prob.lp).optimal:
                raise SystemExit("perfbench: the warm-up solve failed")
        else:
            sddp.stage_solve(self.case, 0, self.case.v0(),
                             self.lattice.stages[0].values[0], [])
        self.sample_setup_speed()

    def sample_setup_speed(self):
        """A few kernel samples at a set-up boundary; set-up is corrected
        by the samples of all three boundaries."""
        for _ in range(SETUP_KERNEL_RUNS):
            self.kernel.run()

    # -- one round of fixed work -------------------------------------------
    def fit(self):
        if self.w.method == "ts-ddr":
            from hydrodr.train import TrainConfig, train
            config = TrainConfig(epochs=self.w.epochs, batch_size=self.w.batch,
                                 seed=PROGRAM_SEED, patience=max(self.w.epochs, 1),
                                 eval_every=self.w.eval_every, n_val=self.w.n_val,
                                 workers=1)
            params, _ = train(self.case, self.lattice, "ts-ddr", config)
            return params
        from hydrodr.sddp import sddp_train
        state, _ = sddp_train(self.case, self.lattice, iters=self.w.sddp_iters,
                              seed=PROGRAM_SEED)
        return state

    def eval_path(self, fitted, path):
        """(cost or None) of one test path under the fitted policy."""
        if self.w.method == "ts-ddr":
            from hydrodr.builder import evaluate_policy_cost
            from hydrodr.policy import Policy
            stats = evaluate_policy_cost(self.case, [path], Policy(fitted),
                                         self.c_delta, workers=1)
            return float(stats.costs[0]) if stats.n_failed == 0 else None
        from hydrodr.sddp import simulate_paths
        sim = simulate_paths(fitted, self.case, [path])
        return float(sim.costs[0]) if sim.n_failed == 0 else None

    def run_round(self) -> dict:
        """Fit, then evaluate every test path.

        The kernel also runs between the program's LP solves and
        factorizations (see ``tracing.Tracer``).  Its time is left out of
        each phase, and each phase is corrected by the kernel samples taken
        during it and at its two ends.
        """
        k = self.kernel

        def phase(fn, *args):
            first = len(k.samples)
            k.run()
            k0 = k.total
            t0 = time.perf_counter()
            out = fn(*args)
            raw = time.perf_counter() - t0 - (k.total - k0)
            k.run()
            return out, raw, k.factor(first)

        fitted, fit_raw, fit_factor = phase(self.fit)

        def evaluate():
            costs, seconds = [], []
            for path in self.test:
                k0 = k.total
                t0 = time.perf_counter()
                costs.append(self.eval_path(fitted, path))
                seconds.append(time.perf_counter() - t0 - (k.total - k0))
            return costs, seconds

        (costs, path_raw), _, eval_factor = phase(evaluate)
        return {"fitted": fitted, "costs": costs,
                "fit_raw": fit_raw, "fit_s": fit_raw * fit_factor,
                "path_raw": path_raw, "path_s": [s * eval_factor for s in path_raw]}

    # -- checks, made after the timed rounds -----------------------------------
    def check(self, rounds: list[dict]) -> list[str]:
        import checks
        from hydrodr import builder, ipm
        last = rounds[-1]
        fails = []
        costs = last["costs"]
        if any(c is None for c in costs):
            return ["a test path failed to evaluate"]
        for r in rounds[:-1]:
            if r["costs"] != costs:
                fails.append("test costs differ between identical rounds")
        foresight = []
        for path in self.test:
            lp, _ = builder.build_extensive(self.case, path)
            foresight.append(checks.highs_objective(lp))
        fails += checks.above_foresight("perfect foresight", costs, foresight)

        if self.w.method == "ts-ddr":
            from hydrodr.policy import Policy
            pol = Policy(last["fitted"])
            probs = [builder.build_second_stage(self.case, p, pol.rollout(p), self.c_delta)
                     for p in self.test]
            highs = [checks.highs_objective(prob.lp) for prob in probs]
            fails += checks.objectives_agree("test LP", costs, highs)
            fails += checks.mean_matches("test_cost", float(np.mean(costs)), highs)
            for i, prob in enumerate(probs[:self.w.dual_checks]):
                res = ipm.solve(prob.lp)
                rows = prob.target_rows.ravel()
                fails += self._subgradient(f"target duals {i}", prob.lp, res, rows, i)
                if res.optimal:
                    fails += checks.duals_within_penalty(f"target duals {i}",
                                                         res.y_eq[rows], self.c_delta)
        else:
            from hydrodr import sddp
            from tracing import Tracer
            state = last["fitted"]
            fails += checks.bound_nondecreasing(state.bound_trace)
            fails += checks.bound_below_simulation(state.lower_bound, costs)
            capture = Tracer(spans=False)
            capture.captured = []
            with capture.installed():
                sddp.simulate_paths(state, self.case, self.test[:1])
            lps = [lp for lp, _ in capture.captured]
            fails += checks.objectives_agree(
                "stage LP", [res.objective for _, res in capture.captured],
                [checks.highs_objective(lp) for lp in lps])
            for i, (lp, res) in enumerate(capture.captured[:self.w.dual_checks]):
                rows = np.array([lp.row_tags[("vin", j)] for j in range(self.case.n_hydros)])
                fails += self._subgradient(f"incoming-volume duals {i}", lp, res, rows, i)
        return fails

    def _subgradient(self, label, lp, res, rows, k) -> list[str]:
        import checks
        if not res.optimal:
            return [f"{label}: check solve ended {res.status}"]
        deltas = checks.perturbations(lp.b_eq[rows], pairs=2, seed=self.seed * 1000 + k)
        perturbed = []
        for d in deltas:
            b = lp.b_eq.copy()
            b[rows] += d
            perturbed.append(checks.highs_objective(lp, b_eq=b))
        return checks.subgradient_holds(label, res.objective, res.y_eq[rows],
                                        deltas, perturbed)


def per_layer(tracer, rounds: int, factor: float, cuts: int) -> dict:
    total, self_s, calls = tracer.layer_totals()

    def sec(d, name):
        return d.get(name, 0.0) * factor / rounds

    def cnt(name):
        return calls.get(name, 0) / rounds

    return {
        "policy.rollout_s": sec(total, "policy.rollout"),
        "policy.rollouts": cnt("policy.rollout"),
        "policy.vjp_s": sec(total, "policy.vjp"), "policy.vjps": cnt("policy.vjp"),
        "builder.build_s": sec(total, "builder.build"),
        "builder.builds": cnt("builder.build"),
        "builder.duals_s": sec(total, "builder.duals"),
        "ipm.solve_s": sec(total, "ipm.solve"), "ipm.solves": tracer.solves / rounds,
        "ipm.iterations": tracer.iterations / rounds,
        "ipm.nonoptimal": tracer.failed_solves / rounds,
        "ipm.factor_s": sec(total, "ipm.factor"),
        "ipm.factorizations": cnt("ipm.factor"),
        "ipm.lu_fill": tracer.lu_nnz / tracer.kkt_nnz if tracer.kkt_nnz else 0.0,
        "ipm.self_s": sec(self_s, "ipm.solve"),
        "lp.check_kkt_s": sec(total, "lp.check_kkt"),
        "train.adam_s": sec(total, "train.adam"), "train.adam_steps": cnt("train.adam"),
        "sddp.stage_solve_s": sec(total, "sddp.stage_solve"),
        "sddp.stage_solves": cnt("sddp.stage_solve"),
        "sddp.stage_build_s": sec(self_s, "sddp.stage_solve"),
        "sddp.cuts": cuts / rounds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="least work per round (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = replace(w, **SMOKE[w.method])

    import_hydrodr()
    sys.path.insert(0, str(HERE))
    bench = Bench(w, args.seed)
    setup_raw = seconds_since_process_start() - bench.kernel.total
    setup_factor = bench.kernel.factor()

    from tracing import Tracer
    tracer = Tracer(spans=bool(args.trace), kernel=bench.kernel)
    rounds: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    with tracer.installed():
        while True:
            tracer.round = len(rounds)
            t0 = time.perf_counter()
            rounds.append(bench.run_round())
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = bench.check(rounds)
    factor = bench.kernel.factor()
    fit_s = median([r["fit_s"] for r in rounds])
    costs = rounds[-1]["costs"]
    failed_paths = sum(c is None for r in rounds for c in r["costs"])
    solved = [c for c in costs if c is not None]
    test_cost = sum(solved) / len(solved) if solved else float("nan")
    raw = {"setup_s": setup_raw, "fit_s": median([r["fit_raw"] for r in rounds]),
           "eval_path_s": median([s for r in rounds for s in r["path_raw"]]),
           "kernel_s": median(bench.kernel.samples), "run_factor": factor,
           "setup_factor": setup_factor, "rounds": len(rounds),
           "kernel_runs": len(bench.kernel.samples), "fit_s_corrected": fit_s}
    if args.trace:
        cuts = sum(sum(r["fitted"].cut_counts()) for r in rounds) if w.method == "sddp" else 0
        values = per_layer(tracer, len(rounds), factor, cuts)
        units = PER_LAYER
    else:
        values = {"setup_s": setup_raw * setup_factor, "fit_s": fit_s,
                  "eval_path_s": median([s for r in rounds for s in r["path_s"]]),
                  "test_cost": test_cost, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    result = {
        "correct": not fails,
        "attempted": tracer.solves + sum(len(r["costs"]) for r in rounds),
        "failed": tracer.failed_solves + failed_paths,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine_info(),
            "raw": raw, "check_failures": fails}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**info, "result": result}, indent=1))
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
