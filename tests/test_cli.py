import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from firegrid.cli import main
from firegrid.fluid import relax_and_score
from firegrid.harness import (
    POLICY_NAMES,
    ScenarioError,
    episode_rng,
    load_scenario,
    scenario_from_dict,
)
from firegrid.lp import OPTIMAL, solve_lp
from firegrid.mpsio import write_mps

from oracles import parse_mps

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
GOLDEN = Path(__file__).parent / "golden"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def explicit_doc(**overrides):
    doc = {
        "family": "explicit",
        "k": 2,
        "P_default": 0.05,
        "Q_default": 0.8,
        "teams": 1,
        "rewards": [-1.0, -2.0, -2.0, -4.0],
        "fuel": [2, 2, 2, 2],
        "burning": [1, 0, 0, 0],
        "seed": 1,
        "reps": 3,
    }
    doc.update(overrides)
    return doc


def test_simulate_smoke(tmp_path, capsys):
    scenario = write_scenario(tmp_path, explicit_doc())
    out = tmp_path / "episode.csv"
    code = main(["simulate", "--scenario", scenario, "--policy", "random",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# firegrid results v1\n")
    assert "random" in text
    assert "policy=random" in capsys.readouterr().out


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_simulate_accepts_every_policy_name(tmp_path, capsys, policy):
    scenario = write_scenario(tmp_path, explicit_doc(
        mcts={"budget_iterations": 5, "budget_seconds": None},
        mo={"horizon": 3, "time_limit": None}))
    assert main(["simulate", "--scenario", scenario, "--policy", policy]) == 0
    assert f"policy={policy} " in capsys.readouterr().out


def grid1_k8_work_budgets(tmp_path):
    """The shipped grid1_k8 scenario with iteration and node budgets only."""
    with open(os.path.join(SCENARIOS, "grid1_k8.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mcts"] = dict(doc["mcts"], budget_seconds=None, budget_iterations=10)
    doc["mo"] = dict(doc["mo"], time_limit=None)
    return write_scenario(tmp_path, doc)


RECORD_KEYS = ["epoch", "n_burning", "action", "ms"]
PLANNER_KEYS = {
    "fw": [],
    "mcts": ["iterations", "fallback", "root_value"],
    "mo": ["mode", "status", "objective", "fallback"],
}


@pytest.mark.parametrize("scenario, policy, mode", [
    ("grid1_k8", "fw", None),
    ("grid1_k8", "mcts", None),
    ("grid1_k8", "mo", "relax-round"),
    ("tiny_explicit", "mo", "branch-and-bound"),
])
def test_simulate_trace_writes_one_record_per_decision(tmp_path, capsys,
                                                       scenario, policy, mode):
    if scenario == "grid1_k8":
        path = grid1_k8_work_budgets(tmp_path)
    else:
        path = os.path.join(SCENARIOS, f"{scenario}.json")
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", "--scenario", path, "--policy", policy,
                 "--trace", str(trace)]) == 0
    steps = int(re.search(r" steps=(\d+) ", capsys.readouterr().out).group(1))
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert steps > 0
    assert [r["epoch"] for r in records] == list(range(steps))
    for r in records:
        assert list(r) == RECORD_KEYS + PLANNER_KEYS[policy]
        assert r["n_burning"] > 0 and r["ms"] >= 0.0
        assert type(r["n_burning"]) is int
        assert len(r["action"]) == (2 if scenario == "tiny_explicit" else 4)
        if policy == "mcts":
            assert r["iterations"] == 10 and r["fallback"] is False
        if policy == "mo":
            assert (r["mode"], r["status"]) == (mode, "optimal")
            assert r["objective"] is not None and r["fallback"] is False


@pytest.mark.parametrize("policy, flag", [("mo", "--trace"), ("fw", "--out")])
def test_simulate_to_stdout_prints_only_the_trace_or_csv(capsys, policy, flag):
    path = os.path.join(SCENARIOS, "tiny_explicit.json")
    assert main(["simulate", "--scenario", path, "--policy", policy, flag, "-"]) == 0
    out, err = capsys.readouterr()
    steps = int(re.search(r"^policy=\S+ seed=0 .* steps=(\d+) ", err).group(1))
    lines = out.splitlines()
    if flag == "--trace":
        assert [json.loads(line)["epoch"] for line in lines] == list(range(steps))
    else:
        assert lines[:2] == ["# firegrid results v1", "policy,seed,reward,steps,flags"]
        assert lines[2].startswith("fw,0,") and len(lines) == 3
    assert steps > 0


@pytest.mark.parametrize("trace, out", [("t", "t"), ("-", "-"), ("t", "./t")])
def test_simulate_refuses_a_trace_and_csv_on_one_target(tmp_path, capsys, monkeypatch,
                                                         trace, out):
    monkeypatch.chdir(tmp_path)
    path = os.path.join(SCENARIOS, "tiny_explicit.json")
    assert main(["simulate", "--scenario", path, "--policy", "fw",
                 "--trace", trace, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "--trace and --out name the same output" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_benchmark_refuses_results_and_summary_on_one_target(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = os.path.join(SCENARIOS, "tiny_explicit.json")
    assert main(["benchmark", "--scenario", path, "--out", "r.csv",
                 "--summary-out", "r.csv"]) == 1
    captured = capsys.readouterr()
    assert "--out and --summary-out name the same output" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_benchmark_to_stdout_prints_only_the_results_csv(tmp_path, capsys):
    path = os.path.join(SCENARIOS, "tiny_explicit.json")
    argv = ["benchmark", "--scenario", path, "--summary-out", str(tmp_path / "s.csv")]
    assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert out == (tmp_path / "r.csv").read_text()
    assert "fw: mean=" in err


@pytest.mark.parametrize("policy", ["mcts", "mo"])
def test_simulate_trace_leaves_the_episode_unchanged(tmp_path, capsys, policy):
    scenario = grid1_k8_work_budgets(tmp_path)
    outputs = []
    for extra in ([], ["--trace", str(tmp_path / "trace.jsonl")]):
        out = tmp_path / "episode.csv"
        assert main(["simulate", "--scenario", scenario, "--policy", policy,
                     "--out", str(out)] + extra) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_benchmark_writes_both_csvs(tmp_path):
    scenario = write_scenario(tmp_path, explicit_doc())
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    code = main(["benchmark", "--scenario", scenario,
                 "--policies", "random,fw", "--reps", "4",
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len([l for l in lines if l.startswith("random,")]) == 4
    assert len([l for l in lines if l.startswith("fw,")]) == 4
    assert "improvement_vs_random_pct" in summary.read_text()


def test_benchmark_deterministic_bytes(tmp_path):
    scenario = write_scenario(tmp_path, explicit_doc())
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"results_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.csv"
        assert main(["benchmark", "--scenario", scenario,
                     "--policies", "fw,random", "--reps", "3",
                     "--out", str(out), "--summary-out", str(summary)]) == 0
        outs.append(out.read_bytes() + summary.read_bytes())
    assert outs[0] == outs[1]


def run_benchmark_cli(tmp_path, doc, policies, jobs) -> bytes:
    """Results CSV then summary CSV of one ``benchmark`` run, as bytes."""
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    assert main(["benchmark", "--scenario", scenario, "--policies", policies,
                 "--jobs", str(jobs), "--out", str(out),
                 "--summary-out", str(summary)]) == 0
    return out.read_bytes() + summary.read_bytes()


def tiny_explicit_doc():
    with open(os.path.join(SCENARIOS, "tiny_explicit.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    # MO through HiGHS: the bundled simplex plays the same actions here but
    # takes seconds per episode
    doc["mo"] = dict(doc["mo"], backend="highs")
    return dict(doc, reps=3)


# Golden ``benchmark`` outputs (results CSV, then summary CSV), recorded with
# a harness that generated the fire afresh for every (policy, seed) episode:
# sharing one fire and stream state per seed must not change a byte.
GOLDEN_CASES = {
    "grid1_k4": ({"family": "grid1", "k": 4, "P_default": 0.06, "Q_default": 0.8,
                  "teams": 2, "seed": 0, "reps": 6}, "random,fw,fw_sample"),
    "grid2_k5_duplicate": ({"family": "grid2", "k": 5, "P_default": 0.06,
                            "Q_default": 0.8, "teams": 2, "lambda": 0.2,
                            "seed": 3, "reps": 5}, "fw,random,fw"),
    "tiny_explicit": (tiny_explicit_doc(), "random,fw,fw_sample,mcts,mo"),
    # recorded with the scalar per-cell step; most cells here have a full
    # in-edge slot table, which the k <= 5 cases above barely exercise
    "grid1_k20": ({"family": "grid1", "k": 20, "P_default": 0.06, "Q_default": 0.8,
                   "teams": 4, "seed": 0, "reps": 4}, "random,fw"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_matches_golden_bytes(tmp_path, case, jobs):
    doc, policies = GOLDEN_CASES[case]
    golden = (GOLDEN / f"benchmark_{case}.csv").read_bytes()
    assert run_benchmark_cli(tmp_path, doc, policies, jobs=jobs) == golden


@pytest.mark.parametrize("argv", [
    ["benchmark", "--reps", "0"],
    ["benchmark", "--reps", "-2"],
    ["benchmark", "--jobs", "0"],
    ["benchmark", "--jobs", "-2"],
    ["stats", "--reps", "0"],
    ["stats", "--reps", "-2"],
])
def test_counts_below_one_rejected(tmp_path, capsys, argv):
    scenario = write_scenario(tmp_path, explicit_doc())
    with pytest.raises(SystemExit) as excinfo:
        main(argv[:1] + ["--scenario", scenario, "--out", str(tmp_path / "o.csv")]
             + argv[1:])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be >= 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_stats_output(tmp_path):
    scenario = write_scenario(tmp_path, {
        "family": "grid1", "k": 4, "P_default": 0.06, "Q_default": 0.8,
        "teams": 1, "seed": 0, "reps": 4})
    out = tmp_path / "stats.csv"
    code = main(["stats", "--scenario", scenario, "--reps", "4",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# firegrid initial-fire-stats v1\n")
    assert "mean_cells_burning" in text
    assert "fuel_non_burnt_cells" in text


# Golden ``stats --out -`` outputs, recorded while each seed's fire warmed up
# alone: grid1_k20's 16 seeds are one block of a paired_k20 round, and
# grid2_k9 ignites the center cell.  A warm-up block must not change a byte.
STATS_GOLDEN_CASES = {"grid1_k20": 16, "grid2_k9": 8}


@pytest.mark.parametrize("case", sorted(STATS_GOLDEN_CASES))
def test_stats_matches_golden_bytes(capsysbinary, case):
    scenario = os.path.join(SCENARIOS, f"{case}.json")
    assert main(["stats", "--scenario", scenario,
                 "--reps", str(STATS_GOLDEN_CASES[case]), "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"stats_{case}.csv").read_bytes()


def test_export_lp_non_burning_solves_to_zero(tmp_path):
    doc = explicit_doc(burning=[0, 0, 0, 0], mo={"horizon": 3})
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "model.mps"
    code = main(["export-lp", "--scenario", scenario, "--out", str(out)])
    assert code == 0
    problem, mask, _ = parse_mps(out.read_text())
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert abs(sol.objective) <= 1e-9
    assert mask.sum() > 0


def test_export_lp_writes_the_model_mo_solves(tmp_path):
    # horizon and delta come from the scenario's mo block, not from flags
    doc = explicit_doc(mo={"horizon": 2, "delta": 0.25})
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "model.mps"
    assert main(["export-lp", "--scenario", scenario, "--out", str(out)]) == 0
    config = scenario_from_dict(doc)
    state = config.initial_state(None)
    model = config.make_policy("mo").fluid_model(state)
    assert (model.calibration.horizon, model.calibration.delta) == (2, 0.25)
    assert out.read_text() == write_mps(model.problem, model.integer_mask)
    for flag in ("--horizon", "--delta"):
        with pytest.raises(SystemExit):
            main(["export-lp", "--scenario", scenario, "--out", str(out), flag, "3"])


def milp_optimum(problem, integer_mask) -> float:
    """The optimum of an MPS file's problem by ``scipy.optimize.milp``, with
    its INTORG columns integral, to a relative gap far below the tests' 1e-6."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    senses = np.asarray(problem.senses)
    lo = np.where(senses == "<=", -np.inf, problem.b)
    hi = np.where(senses == ">=", np.inf, problem.b)
    res = milp(problem.c, constraints=LinearConstraint(problem.a, lo, hi),
               bounds=Bounds(problem.lower, problem.upper),
               integrality=integer_mask.astype(int), options={"mip_rel_gap": 1e-9})
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("name, mode", [("tiny_explicit", "branch-and-bound"),
                                        ("grid1_k8", "relax-round")])
def test_export_lp_file_is_the_milp_exact_mode_solves(tmp_path, name, mode):
    # solved as written, the file's MILP reaches exact mode's objective and
    # bounds relax-round's from below
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mo"]["time_limit"] = None
    scenario = write_scenario(tmp_path, doc)
    out = tmp_path / "model.mps"
    assert main(["export-lp", "--scenario", scenario, "--seed", "0",
                 "--out", str(out)]) == 0
    problem, integer_mask, _ = parse_mps(out.read_text())
    config = scenario_from_dict(doc)
    policy = config.make_policy("mo")
    model = policy.fluid_model(config.initial_state(episode_rng(0)))
    # checked before the solve: a file with integral y does not solve in minutes
    assert np.array_equal(np.flatnonzero(integer_mask), model.z_indices())
    _, info = relax_and_score(model, backend=policy.config.backend)
    assert info["mode"] == mode
    optimum, objective = milp_optimum(problem, integer_mask), info["objective"]
    if mode == "branch-and-bound":
        assert optimum == pytest.approx(objective, rel=1e-6)
    else:
        assert optimum <= objective + 1e-6 * max(1.0, abs(objective))


def test_weights_csv(tmp_path, capsys):
    scenario = write_scenario(tmp_path, explicit_doc())
    code = main(["weights", "--scenario", scenario])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "row,col,w,priority"
    assert len(lines) == 5


def test_malformed_scenario_names_field(tmp_path, capsys):
    scenario = write_scenario(tmp_path, explicit_doc(teams=-2))
    code = main(["simulate", "--scenario", scenario, "--policy", "random"])
    assert code != 0
    assert "teams" in capsys.readouterr().err


GRID1_DOC = {"family": "grid1", "k": 4, "P_default": 0.06, "Q_default": 0.8,
             "teams": 2, "seed": 0, "reps": 2}


@pytest.mark.parametrize("doc, field", [
    (dict(GRID1_DOC, k="8"), "k"),
    (dict(GRID1_DOC, teams=2.5), "teams"),
    (dict(GRID1_DOC, reps=1.5), "reps"),
    (dict(GRID1_DOC, seed="x"), "seed"),
    (dict(GRID1_DOC, height=0), "height"),
    (dict(GRID1_DOC, k=1), "k"),
    (dict(GRID1_DOC, neighborhood="six"), "neighborhood"),
    (dict(GRID1_DOC, P_default="0.1"), "P_default"),
    (dict(GRID1_DOC, P_default=0), "P_default"),
    (dict(GRID1_DOC, family="grid2", **{"lambda": "x"}), "lambda"),
    (dict(GRID1_DOC, family="grid2", **{"lambda": 1000.0}), "lambda"),
    (explicit_doc(fuel=[1.5, 2, 2, 2]), "fuel"),
    (explicit_doc(burning=[True, False, False, False]), "burning"),
    (explicit_doc(rewards=[-1.0, 0.5, -2.0, -4.0]), "rewards"),
    (explicit_doc(rewards=[-1.0, "x", -2.0, -4.0]), "rewards"),
    ({k: v for k, v in explicit_doc().items() if k != "rewards"}, "rewards"),
    (dict(GRID1_DOC, P_default=1e-6), "P_default"),
    (dict(GRID1_DOC, family="grid2", **{"lambda": math.nan}), "lambda"),
    (explicit_doc(fuel=[2, 2 ** 63, 2, 2]), "fuel"),
    (dict(GRID1_DOC, mo={"horizon": 20, "time_limit": None}), "mo.horizon"),
])
def test_malformed_scenario_fails_at_load(tmp_path, capsys, doc, field):
    with pytest.raises(ScenarioError, match=f"^field '{field}'"):
        scenario_from_dict(doc)
    scenario = write_scenario(tmp_path, doc)
    for argv in (["simulate", "--policy", "random"],
                 ["benchmark", "--policies", "random", "--out", str(tmp_path / "r.csv"),
                  "--summary-out", str(tmp_path / "s.csv")]):
        assert main(argv + ["--scenario", scenario]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"firegrid: scenario error: field '{field}'")
        assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("block, field", [
    ({"mcts": {"budget_secs": 1.0}}, "mcts.budget_secs"),
    ({"mo": {"horizn": 3}}, "mo.horizn"),
    ({"mcts": {"depth": 0}}, "mcts"),
    ({"mo": {"horizon": 0}}, "mo"),
    ({"mcts": {"depth": "deep"}}, "mcts.depth"),
    ({"mcts": {"use_genetic": True}}, "mcts.use_genetic"),
    ({"mcts": {"gen_retries": -1}}, "mcts.gen_retries"),
    ({"mo": {"backend": "auto"}}, "mo"),
    ({"mcts": {"widen_k_action": 0}}, "mcts"),
    ({"mcts": {"budget_iterations": -1}}, "mcts"),
    ({"mo": {"delta": math.nan}}, "mo"),
    ({"mo": {"time_limit": math.inf}}, "mo"),
])
def test_bad_planner_option_names_field(tmp_path, capsys, block, field):
    scenario = write_scenario(tmp_path, explicit_doc(**block))
    code = main(["simulate", "--scenario", scenario, "--policy", "mcts"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("firegrid: scenario error:")
    assert f"'{field}" in err
    assert "Traceback" not in err


def test_unknown_flag_rejected(tmp_path):
    scenario = write_scenario(tmp_path, explicit_doc())
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", scenario, "--frobnicate"])


def test_unknown_policy_rejected(tmp_path, capsys):
    scenario = write_scenario(tmp_path, explicit_doc())
    code = main(["benchmark", "--scenario", scenario, "--policies", "zen",
                 "--out", str(tmp_path / "r.csv"),
                 "--summary-out", str(tmp_path / "s.csv")])
    assert code != 0
    assert "zen" in capsys.readouterr().err


def test_policy_names_have_one_spelling(tmp_path, capsys):
    scenario = write_scenario(tmp_path, explicit_doc())
    code = main(["benchmark", "--scenario", scenario, "--policies", "MO",
                 "--out", str(tmp_path / "r.csv"),
                 "--summary-out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("firegrid: scenario error: field 'policies': unknown policy 'MO'")
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_shipped_scenarios_load():
    paths = sorted(Path(SCENARIOS).glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        config = load_scenario(str(path))
        for name in POLICY_NAMES:
            assert callable(config.make_policy(name))
        assert main(["weights", "--scenario", str(path), "--out", os.devnull]) == 0


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for sub in ("simulate", "benchmark", "stats", "export-lp", "weights"):
        assert sub in text
