"""CLI surface: artifacts, determinism, comparison table, exit codes."""

import csv
import json

import pytest

from hydrodr.cli import main
from hydrodr.model import load_case, save_case
from hydrodr.reports import CompareError, build_compare

from conftest import build_cascade_case


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    case = build_cascade_case(horizon=4)
    save_case(case, d / "case.json")
    return d


def run(argv):
    return main([str(a) for a in argv])


TRAIN_ARGS = ["--epochs", "3", "--batch", "2", "--val", "2", "--eval-every", "1",
              "--latent", "4", "--test", "4", "--lattice-points", "2"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_case_command(tmp_path):
    out = tmp_path / "synth.json"
    assert run(["synth-case", "--buses", "6", "--hydros", "2", "--seed", "3",
                "--out", out]) == 0
    case = load_case(out)
    assert case.n_buses == 6 and case.n_hydros == 2


def test_train_writes_artifacts(workdir):
    out = workdir / "ddr"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ddr",
              "--seed", "1", "--out", out] + TRAIN_ARGS)
    assert rc == 0
    for name in ("checkpoint.json", "train_report.json", "curve.csv",
                 "eval_report.json", "eval.csv"):
        assert (out / name).exists(), name
    rows = read_csv(out / "curve.csv")
    assert rows[0] == ["epoch", "train_loss", "val_mean", "val_std", "grad_norm", "seconds"]
    assert len(rows) == 1 + 1 + 3          # header + initial eval + 3 epochs
    rep = json.loads((out / "eval_report.json").read_text())
    assert rep["model"] == "ts-ddr" and rep["plan"] == "dcll"
    assert rep["n_test"] == 4


def test_train_rerun_is_deterministic(workdir, tmp_path):
    out2 = tmp_path / "ddr2"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ddr",
              "--seed", "1", "--out", out2] + TRAIN_ARGS)
    assert rc == 0
    a = read_csv(workdir / "ddr" / "curve.csv")
    b = read_csv(out2 / "curve.csv")
    drop_seconds = lambda rows: [r[:-1] for r in rows]
    assert drop_seconds(a) == drop_seconds(b)     # seconds column may differ
    assert (workdir / "ddr" / "eval.csv").read_bytes() == (out2 / "eval.csv").read_bytes()


def test_train_epochs_zero_initial_eval(workdir, tmp_path):
    out = tmp_path / "zero"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ldr",
              "--seed", "0", "--out", out, "--epochs", "0", "--val", "2",
              "--test", "2", "--lattice-points", "2"])
    assert rc == 0
    rows = read_csv(out / "curve.csv")
    assert len(rows) == 2                  # header + epoch-0 validation row


def test_sddp_command(workdir):
    out = workdir / "sddp"
    rc = run(["sddp", "--case", workdir / "case.json", "--seed", "1",
              "--iters", "4", "--test", "4", "--lattice-points", "2", "--out", out])
    assert rc == 0
    rep = json.loads((out / "sddp_report.json").read_text())
    assert rep["iterations"] == 4
    assert len(rep["bound_trace"]) == 4
    assert (out / "cuts.csv").exists()
    assert (out / "eval_report.json").exists()


def test_ldr_run_for_compare(workdir):
    out = workdir / "ldr"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ldr",
              "--seed", "1", "--out", out] + TRAIN_ARGS)
    assert rc == 0


def test_compare_outputs_and_gap(workdir):
    out = workdir / "cmp"
    rc = run(["compare", workdir / "ddr", workdir / "ldr", workdir / "sddp",
              "--out", out])
    assert rc == 0
    rows = read_csv(out / "compare.csv")
    assert rows[0] == ["model", "plan", "mean_cost", "std_cost", "gap_pct",
                       "max_dev", "n_failed"]
    costs = [float(r[2]) for r in rows[1:]]
    gaps = [float(r[4]) for r in rows[1:]]
    assert costs == sorted(costs)                     # ordering invariant
    assert gaps[0] == 0.0
    for c, g in zip(costs, gaps):
        assert g == pytest.approx(100.0 * (c - costs[0]) / costs[0], abs=1e-9)
    table = (out / "compare_table.txt").read_text()
    assert "Imp Cost (USD)" in table and "GAP (%)" in table

    # rerun must be byte-identical
    out2 = workdir / "cmp2"
    assert run(["compare", workdir / "ddr", workdir / "ldr", workdir / "sddp",
                "--out", out2]) == 0
    assert (out / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()


def test_compare_single_run_gap_zero(workdir, tmp_path):
    out = tmp_path / "cmp1"
    assert run(["compare", workdir / "ddr", "--out", out]) == 0
    rows = read_csv(out / "compare.csv")
    assert len(rows) == 2
    assert float(rows[1][4]) == 0.0


def test_compare_rejects_mismatched_test_sets(workdir, tmp_path):
    other = tmp_path / "other"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ldr",
              "--seed", "9", "--out", other] + TRAIN_ARGS)
    assert rc == 0
    rc = run(["compare", workdir / "ddr", other, "--out", tmp_path / "cmp"])
    assert rc == 2


def test_compare_requires_eval_reports(tmp_path):
    (tmp_path / "empty").mkdir()
    assert run(["compare", tmp_path / "empty", "--out", tmp_path / "c"]) == 2


def test_build_compare_validates_keys():
    base = {"model": "a", "plan": "dcll", "mean_cost": 1.0, "std_cost": 0.0,
            "case_hash": "x", "scenario_hash": "y", "test_seed": 0, "n_test": 4}
    other = dict(base, model="b", test_seed=1)
    with pytest.raises(CompareError):
        build_compare([base, other])


def test_eval_command_and_hash_guard(workdir, tmp_path):
    out = tmp_path / "eval"
    rc = run(["eval", "--checkpoint", workdir / "ddr" / "checkpoint.json",
              "--case", workdir / "case.json", "--test", "3",
              "--lattice-points", "2", "--seed", "1", "--out", out])
    assert rc == 0
    assert (out / "eval.csv").exists()

    # a different case is rejected before any solving happens
    other_case = build_cascade_case(horizon=6)
    save_case(other_case, tmp_path / "other.json")
    rc = run(["eval", "--checkpoint", workdir / "ddr" / "checkpoint.json",
              "--case", tmp_path / "other.json", "--test", "2", "--out", out])
    assert rc == 2


def test_eval_prices_with_the_checkpoints_lp_settings(workdir, tmp_path):
    # a policy trained on a 5-cut loss model is evaluated on that model
    args = ["--test", "4", "--seed", "1", "--lattice-points", "2"]
    train_out = tmp_path / "cuts5"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ddr",
              "--epochs", "1", "--batch", "2", "--val", "0", "--latent", "4",
              "--loss-cuts", "5", "--out", train_out] + args)
    assert rc == 0
    eval_out = tmp_path / "cuts5_eval"
    rc = run(["eval", "--checkpoint", train_out / "checkpoint.json",
              "--case", workdir / "case.json", "--out", eval_out] + args)
    assert rc == 0
    trained = json.loads((train_out / "eval_report.json").read_text())
    evaluated = json.loads((eval_out / "eval_report.json").read_text())
    assert evaluated["mean_cost"] == trained["mean_cost"]


def test_eval_prices_with_the_checkpoints_deviation_penalty(workdir, tmp_path):
    # a policy trained with --c-delta is priced at that penalty, not at
    # the case default, unless eval passes its own --c-delta
    args = ["--test", "4", "--seed", "1", "--lattice-points", "2"]
    train_out = tmp_path / "cdelta"
    rc = run(["train", "--case", workdir / "case.json", "--model", "ts-ddr",
              "--epochs", "1", "--batch", "2", "--val", "0", "--latent", "4",
              "--c-delta", "50000", "--out", train_out] + args)
    assert rc == 0
    trained = json.loads((train_out / "eval_report.json").read_text())
    costs = {}
    for label, extra in (("saved", []), ("default", ["--c-delta", "300"])):
        rc = run(["eval", "--checkpoint", train_out / "checkpoint.json",
                  "--case", workdir / "case.json", "--out", tmp_path / label]
                 + args + extra)
        assert rc == 0
        costs[label] = json.loads((tmp_path / label / "eval_report.json").read_text())["mean_cost"]
    assert costs["saved"] == trained["mean_cost"]
    assert costs["default"] != trained["mean_cost"]


def test_eval_extended_horizon(workdir, tmp_path):
    out = tmp_path / "eval24"
    rc = run(["eval", "--checkpoint", workdir / "ddr" / "checkpoint.json",
              "--case", workdir / "case.json", "--test", "2", "--horizon", "8",
              "--lattice-points", "2", "--seed", "1", "--out", out])
    assert rc == 0
    rep = json.loads((out / "eval_report.json").read_text())
    assert rep["n_failed"] == 0


def test_gradcheck_command_exit_code(workdir, capsys):
    rc = run(["gradcheck", "--case", workdir / "case.json", "--model", "ts-ldr",
              "--coords", "6", "--eps", "0.05", "--rel-tol", "1e-6",
              "--lattice-points", "2", "--seed", "0",
              "--out", workdir / "gc"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pass rate" in text
    assert (workdir / "gc" / "gradcheck.json").exists()


def test_dump_lp_flag(workdir, tmp_path):
    dump = tmp_path / "lps"
    rc = run(["gradcheck", "--case", workdir / "case.json", "--model", "ts-ldr",
              "--coords", "1", "--lattice-points", "2", "--dump-lp", dump,
              "--out", tmp_path / "gc"])
    assert rc in (0, 1)
    files = list(dump.glob("*.lp"))
    assert files
    assert "Minimize" in files[0].read_text()


def test_sddp_rejects_historical_scenarios(workdir, tmp_path, capsys):
    import numpy as np
    from hydrodr.scenarios import ScenarioSet, save_scenarios_csv
    rows = np.random.default_rng(0).uniform(0, 5, size=(6, 4, 2))
    save_scenarios_csv(ScenarioSet.historical(rows), tmp_path / "hist.csv")
    rc = run(["sddp", "--case", workdir / "case.json", "--scenarios",
              tmp_path / "hist.csv", "--iters", "2", "--test", "0",
              "--out", tmp_path / "s"])
    assert rc == 2
    assert "lattice" in capsys.readouterr().err


def test_cli_error_reporting(tmp_path, capsys):
    rc = run(["train", "--case", tmp_path / "missing.json", "--model", "ts-ddr",
              "--out", tmp_path / "x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
