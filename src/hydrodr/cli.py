"""Command-line interface: train, eval, sddp, compare, gradcheck, synth-case.

Every command is deterministic under a fixed ``--seed``: CSV outputs are
byte-identical across reruns, while wall-clock figures live only in the
JSON reports and the text table.  ``HYDRODR_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import lpdump, sddp as sddp_mod
from .builder import default_deviation_penalty, evaluate_policy_cost
from .model import (case_hash, extend_case, load_case, save_case, synthesize_case)
from .policy import Policy, init_params, load_checkpoint, save_checkpoint, spec_for_case
from .reports import (build_compare, compare_table, eval_report, write_compare_outputs,
                      write_curve_csv, write_eval_outputs, write_json)
from .scenarios import load_scenarios_csv, make_lattice, split
from .train import TrainConfig, gradcheck, train

log = logging.getLogger(__name__)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="runs/out", help="output directory (or file for synth-case)")
    p.add_argument("--dump-lp", default=None, metavar="DIR",
                   help="dump every built LP in text format for cross-validation")
    p.add_argument("--no-squash", action="store_true",
                   help="disable the bounded output map of the deep rule")


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True)
    p.add_argument("--scenarios", default=None, help="scenario CSV (lattice or historical)")
    p.add_argument("--lattice-points", type=int, default=3,
                   help="synthetic lattice size when no CSV is given")
    p.add_argument("--lattice-spread", type=float, default=0.6)


def _resolve_scenarios(args, case):
    if args.scenarios:
        sset = load_scenarios_csv(args.scenarios)
        digest = hashlib.sha256(Path(args.scenarios).read_bytes()).hexdigest()[:16]
        return sset, digest
    sset = make_lattice(case, args.lattice_points, args.lattice_spread)
    digest = hashlib.sha256(
        f"lattice:{case_hash(case)}:{args.lattice_points}:{args.lattice_spread}".encode()
    ).hexdigest()[:16]
    return sset, digest


def _test_paths(sset, n_test, seed):
    _, _, test = split(sset, 1, 0, n_test, seed)
    return test


def cmd_synth_case(args) -> int:
    case = synthesize_case(args.buses, args.hydros, seed=args.seed,
                           horizon=args.horizon, stage_hours=args.stage_hours)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_case(case, args.out)
    print(f"wrote {args.out}: {case.n_buses} buses, {len(case.branches)} branches, "
          f"{len(case.generators)} generators ({case.n_hydros} hydro), T={case.horizon}")
    return 0


def cmd_train(args) -> int:
    case = load_case(args.case)
    chash = case_hash(case)
    sset, shash = _resolve_scenarios(args, case)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                         c_delta=args.c_delta, seed=args.seed,
                         latent_dim=args.latent, hidden_layers=args.hidden_layers,
                         patience=args.patience, eval_every=args.eval_every,
                         n_val=args.val, squash=not args.no_squash,
                         loss_cuts=args.loss_cuts, workers=args.workers)
    params, report = train(case, sset, args.model, config)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(outdir / "checkpoint.json", params, chash, args.seed,
                    extra={"model": args.model, "scenario_hash": shash,
                           "config": asdict(config)})
    write_json(outdir / "train_report.json", {
        "model": args.model, "case_hash": chash, "scenario_hash": shash,
        "config": asdict(config), "wall_clock_seconds": report.wall_clock,
        "solver_failures": report.solver_failures, "best_epoch": report.best_epoch,
        "best_val": report.best_val, "best_checkpoint": report.best_checkpoint,
        "stopped_early": report.stopped_early, "curve": report.curve(),
    })
    write_curve_csv(outdir / "curve.csv", report.curve())
    print(f"trained {args.model}: best epoch {report.best_epoch}, "
          f"best val {report.best_val:.4f}, {report.wall_clock:.1f}s")

    if args.test > 0:
        c_delta = config.c_delta if config.c_delta is not None else default_deviation_penalty(case)
        test = _test_paths(sset, args.test, args.seed)
        stats = evaluate_policy_cost(case, test, Policy(params), c_delta,
                                     loss_cuts=config.loss_cuts, tol=config.solver_tol,
                                     workers=args.workers)
        timing = {
            "train_minutes": report.wall_clock / 60.0,
            "exec_seconds_per_decision": stats.rollout_seconds_per_decision,
            "rollout_seconds_per_decision": stats.rollout_seconds_per_decision,
            "solve_seconds_per_decision": stats.solve_seconds_per_decision,
        }
        rep = eval_report(args.model, chash, shash, args.seed, args.test, stats, timing)
        write_eval_outputs(outdir, rep)
        print(f"test cost {stats.mean_cost:.4f} (+- {stats.std_cost:.4f}), "
              f"max dev {stats.max_dev:.3g}, failed {stats.n_failed}")
    return 0


def cmd_eval(args) -> int:
    params, chash_ckpt, extra = load_checkpoint(args.checkpoint)
    case = load_case(args.case)
    chash = case_hash(case)
    if chash != chash_ckpt:
        print(f"error: checkpoint was trained on case {chash_ckpt}, got {chash}",
              file=sys.stderr)
        return 2
    if args.horizon and args.horizon != case.horizon:
        if args.scenarios:
            print("error: --horizon extension requires a synthetic lattice", file=sys.stderr)
            return 2
        case = extend_case(case, args.horizon)
    sset, shash = _resolve_scenarios(args, case)
    model = extra.get("model", params.spec.kind)
    test = _test_paths(sset, args.test, args.seed)
    # price on the LP the policy was trained on unless --c-delta overrides
    # it; checkpoints without a saved config get the training defaults
    trained = extra.get("config", {})
    c_delta = args.c_delta if args.c_delta is not None else trained.get("c_delta")
    if c_delta is None:
        c_delta = default_deviation_penalty(case)
    t0 = time.perf_counter()
    stats = evaluate_policy_cost(case, test, Policy(params), c_delta,
                                 loss_cuts=trained.get("loss_cuts", TrainConfig.loss_cuts),
                                 tol=trained.get("solver_tol", TrainConfig.solver_tol),
                                 workers=args.workers)
    timing = {
        "eval_seconds": time.perf_counter() - t0,
        "exec_seconds_per_decision": stats.rollout_seconds_per_decision,
        "rollout_seconds_per_decision": stats.rollout_seconds_per_decision,
        "solve_seconds_per_decision": stats.solve_seconds_per_decision,
        "train_minutes": extra.get("train_minutes"),
    }
    rep = eval_report(model, case_hash(case), shash, args.seed, args.test, stats, timing)
    write_eval_outputs(args.out, rep)
    print(f"{model}: mean cost {stats.mean_cost:.4f} (+- {stats.std_cost:.4f}) "
          f"over {args.test} paths, failed {stats.n_failed}")
    return 0


def cmd_sddp(args) -> int:
    case = load_case(args.case)
    chash = case_hash(case)
    sset, shash = _resolve_scenarios(args, case)
    t0 = time.perf_counter()
    state, lb = sddp_mod.sddp_train(case, sset, iters=args.iters, seed=args.seed,
                                    loss_cuts=args.loss_cuts)
    train_seconds = time.perf_counter() - t0

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "sddp_report.json", {
        "case_hash": chash, "scenario_hash": shash, "iterations": state.iterations,
        "lower_bound": lb, "bound_trace": state.bound_trace,
        "cut_counts": state.cut_counts(), "stable_at": state.stable_at,
        "train_seconds": train_seconds,
    })
    with open(outdir / "cuts.csv", "w", newline="") as fh:
        sddp_mod.export_cuts_csv(state, fh)
    print(f"sddp: lower bound {lb:.4f} after {state.iterations} iterations "
          f"({train_seconds:.1f}s), stable at {state.stable_at}")

    if args.test > 0:
        test = _test_paths(sset, args.test, args.seed)
        sim = sddp_mod.simulate_paths(state, case, test, loss_cuts=args.loss_cuts)
        timing = {
            "train_minutes": train_seconds / 60.0,
            "exec_seconds_per_decision": sim.seconds_per_stage_solve,
            "solve_seconds_per_decision": sim.seconds_per_stage_solve,
        }
        rep = eval_report("sddp", chash, shash, args.seed, args.test, sim, timing,
                          extra={"lower_bound": lb})
        write_eval_outputs(outdir, rep)
        print(f"simulated cost {sim.mean_cost:.4f} (+- {sim.std_cost:.4f}), "
              f"failed {sim.n_failed}")
    return 0


def cmd_compare(args) -> int:
    reports = []
    for run in args.runs:
        path = Path(run) / "eval_report.json"
        if not path.exists():
            print(f"error: {path} not found (run `train`/`eval`/`sddp` with --test first)",
                  file=sys.stderr)
            return 2
        reports.append(json.loads(path.read_text()))
    rows = build_compare(reports)
    write_compare_outputs(args.out, rows, reports)
    table = compare_table(rows)
    print(table, end="")
    return 0


def cmd_gradcheck(args) -> int:
    case = load_case(args.case)
    sset, _ = _resolve_scenarios(args, case)
    spec = spec_for_case(case, args.model, latent_dim=args.latent,
                         hidden_layers=args.hidden_layers, squash=not args.no_squash)
    params = init_params(spec, seed=args.seed)
    _, _, paths = split(sset, 1, 0, 1, args.seed)
    report = gradcheck(case, paths[0], params, n_coords=args.coords, eps=args.eps,
                       rel_tol=args.rel_tol, seed=args.seed, c_delta=args.c_delta)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / "gradcheck.json", report.as_dict())
    print(f"gradcheck {args.model}: pass rate {report.pass_rate:.1%} at rel tol "
          f"{report.rel_tol:g} over {len(report.rows)} coords "
          f"({report.n_kink} kink-excluded)")
    for row in report.rows:
        flag = "kink" if row.kink else ("ok" if row.rel_err <= report.rel_tol else "FAIL")
        print(f"  coord {row.coord:6d}  analytic {row.analytic: .6e}  "
              f"fd {row.fd: .6e}  rel {row.rel_err:.2e}  {flag}")
    return 0 if report.pass_rate >= 0.9 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrodr",
        description="Decision-rule policies for hydrothermal dispatch, "
                    "trained from dispatch-LP duals, with an SDDP baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-case", help="generate a synthetic feasible grid case")
    _common_flags(p)
    p.add_argument("--buses", type=int, required=True)
    p.add_argument("--hydros", type=int, required=True)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--stage-hours", type=float, default=730.0)
    p.set_defaults(fn=cmd_synth_case)

    p = sub.add_parser("train", help="fit a decision-rule policy")
    _common_flags(p)
    _scenario_flags(p)
    p.add_argument("--model", choices=["ts-ddr", "ts-ldr"], required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--c-delta", type=float, default=None)
    p.add_argument("--latent", type=int, default=16)
    p.add_argument("--hidden-layers", type=int, default=2)
    p.add_argument("--val", type=int, default=64)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--eval-every", type=int, default=5)
    p.add_argument("--loss-cuts", type=int, default=11)
    p.add_argument("--test", type=int, default=1000)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    _common_flags(p)
    _scenario_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", type=int, default=1000)
    p.add_argument("--c-delta", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None,
                   help="extend the case to a longer horizon before evaluating")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sddp", help="train and simulate the SDDP baseline")
    _common_flags(p)
    _scenario_flags(p)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--loss-cuts", type=int, default=11)
    p.add_argument("--test", type=int, default=1000)
    p.set_defaults(fn=cmd_sddp)

    p = sub.add_parser("compare", help="aggregate eval reports into one table")
    _common_flags(p)
    p.add_argument("runs", nargs="+", help="run directories containing eval_report.json")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the policy gradient")
    _common_flags(p)
    _scenario_flags(p)
    p.add_argument("--model", choices=["ts-ddr", "ts-ldr"], default="ts-ddr")
    p.add_argument("--coords", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--rel-tol", type=float, default=1e-2)
    p.add_argument("--latent", type=int, default=16)
    p.add_argument("--hidden-layers", type=int, default=2)
    p.add_argument("--c-delta", type=float, default=None)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HYDRODR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    lpdump.configure(args.dump_lp)       # None disables any previous setting
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
