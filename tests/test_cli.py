import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from math import inf

import numpy as np
import pytest

import ebcache
from ebcache import analysis, cli
from ebcache.cli import main
from ebcache.delivery import run_delivery
from ebcache.experiments import SWEEP_COLUMNS, trial_seeds
from ebcache.model import (MAX_FILE_PACKETS, MAX_K, Demand, SystemConfig,
                           load_config, subsets_ascending, users_of)
from ebcache.placement import centralized_placement, decentralized_placement

TWO_USER = {"K": 2, "N": 2, "delta": [0.25, 0.5], "mem": [2 / 3, 4 / 3],
        "file_sizes": [1, 1]}
SYM3 = {"K": 3, "N": 3, "delta": [0.5, 0.5, 0.5], "mem": [1.5, 1.5, 1.5],
        "file_sizes": [1000, 1000, 1000]}


@pytest.fixture
def two_user(tmp_path):
    path = tmp_path / "two_user.json"
    path.write_text(json.dumps(TWO_USER))
    return str(path)


@pytest.fixture
def sym3(tmp_path):
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(SYM3))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_region_emits_reference_coefficients(capsys, two_user):
    code, out = run(capsys, ["region", "--config", two_user])
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"]["w1"] == pytest.approx(8 / 9, abs=1e-9)
    assert doc["coeffs"]["w12"] == pytest.approx(16 / 63, abs=1e-9)
    assert doc["coeffs"]["w2"] == pytest.approx(2 / 3, abs=1e-9)
    assert len(doc["inequalities"]) == 2


def test_feasible_verb(capsys, two_user):
    code, out = run(capsys, ["feasible", "--config", two_user,
                             "--rates", "0.78,1.20"])
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_ttot_verb_reports_gap_field(capsys, two_user):
    code, out = run(capsys, ["ttot", "--config", two_user])
    doc = json.loads(out)
    assert code == 0
    assert doc["ttot_closed_form"] == pytest.approx(8 / 7, abs=1e-9)
    assert doc["maximizer"] == [1, 2]
    assert doc["gap"] == pytest.approx(0.0, abs=1e-9)


def test_ttot_gap_of_equal_printed_totals_is_exactly_zero(capsys):
    # symmetric, so the plan and the closed form agree; their roundoff
    # differs, but the gap is taken between the totals as printed
    config = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "configs", "sweep_base.json")
    code, out = run(capsys, ["ttot", "--config", config])
    doc = json.loads(out)
    assert code == 0
    assert doc["plan_total"] == doc["ttot_closed_form"]
    assert doc["gap"] == 0.0


def test_plan_verb(capsys, two_user):
    code, out = run(capsys, ["plan", "--config", two_user])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(8 / 7, abs=1e-9)


def old_plan_doc(plan):
    """The plan document as the dict tree `ebcache plan` used to give
    `_emit_json`."""
    K = len(plan.sizes)
    t_user = plan.t_user.reshape(-1)[analysis._cells(K)[0]].tolist()
    subphases = []
    at = 0
    for J in subsets_ascending(K):
        users = users_of(J)
        subphases.append({
            "subphase": list(users), "t": plan.t_sub.tolist()[J],
            "t_user": dict(zip(map(str, users), t_user[at:at + len(users)]))})
        at += len(users)
    return {"total": plan.total, "subphases": subphases}


def old_plan_text(plan):
    return json.dumps(cli._round12(old_plan_doc(plan)), indent=2)


@pytest.mark.parametrize("K", range(1, 9))
def test_plan_text_equals_the_dict_tree_path(K):
    rng = np.random.default_rng(40 + K)
    for _ in range(5):
        sizes = rng.integers(0, 3000, K)
        sizes[rng.uniform(size=K) < 0.2] = 0
        cfg = SystemConfig(K=K, N=K, delta=tuple(rng.uniform(0, 0.95, K)),
                           mem=tuple(rng.uniform(0, K, K)),
                           file_sizes=tuple(sizes.tolist()))
        plan = analysis.phase_plan(cfg)
        assert cli._plan_text(plan) == old_plan_text(plan)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_plan_text_formats_numbers_as_json_does(K):
    # whole numbers print 1.0, 1e12..1e16 positional, 1e16 and up and
    # below 1e-4 with an exponent; a zero size plans 0.0; a number that
    # is not finite prints as _round12 leaves it (null, NaN)
    values = [1.0, 3.0, 1e12, 1.5e13, 123456789012.5, 999999999999.9,
              1e15 + 1, 1e16, 2.5e17, 3e-5, 1.23456789e-7, 0.0, -0.0,
              5e-324, 1e300, 0.1 + 0.2, 2 / 3, inf, -inf, float("nan")]
    rng = np.random.default_rng(K)
    for _ in range(4):
        t_user = rng.choice(values, (K, 1 << K))
        t_sub = rng.choice(values, 1 << K)
        plan = analysis.PhasePlan((0.0,) * K, t_user, t_sub,
                                  float(rng.choice(values)))
        assert cli._plan_text(plan) == old_plan_text(plan)
    zero = SystemConfig(K=K, N=K, delta=(0.5,) * K, mem=(0.0,) * K,
                        file_sizes=(0,) * K)
    plan = analysis.phase_plan(zero)
    assert cli._plan_text(plan) == old_plan_text(plan)
    assert '"t": 0.0' in cli._plan_text(plan)


def test_one_parser_serves_every_call(capsys, two_user):
    # the parser is built once per process; verbs run one after another
    # through it, a usage error among them, print and exit as each does
    # in a fresh process
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(ebcache.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (["plan", "--config", two_user],
                 ["feasible", "--config", two_user, "--rates", "0.78,1.20"],
                 ["verify", "--K", "two"],
                 ["plan", "--config", two_user]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ebcache.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr)


def test_simulate_full_with_trace_and_export(capsys, tmp_path, two_user):
    trace = tmp_path / "trace.csv"
    export = tmp_path / "pm.json"
    code, out = run(capsys, [
        "simulate", "--config", two_user, "--seed", "1", "--F", "200",
        "--trace", str(trace), "--export-placement", str(export)])
    assert code == 0
    doc = json.loads(out)
    assert doc["decode_ok"] == [True, True]
    assert doc["slots_total"] >= 1
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slot", "subphase", "receivers", "action"]
    assert len(rows) == doc["slots_total"] + 1
    assert {r[3] for r in rows[1:]} <= {"deliver", "promote", "waste"}
    pm_doc = json.loads(export.read_text())
    assert pm_doc["scheme"] == "decentralized"
    assert len(pm_doc["files"][0]) == 200


def test_simulate_derives_placement_and_delivery_seeds(capsys, sym3):
    code, out = run(capsys, ["simulate", "--config", sym3, "--F", "60",
                             "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    pseed, dseed = trial_seeds(5)
    assert pseed != dseed
    cfg = replace(load_config(sym3), file_sizes=(60,) * 3)
    res = run_delivery(cfg, decentralized_placement(cfg, pseed), seed=dseed)
    assert doc["slots_total"] == res.slots_total
    assert doc["slots_per_subphase"] == res.to_json()["slots_per_subphase"]
    assert doc["cleanup_slots"] == res.cleanup_slots
    assert doc["seed"] == 5


# Only dense combinations, sent where the remaining wants of a pool's
# atoms split the active members no exact way, need cleanup.  Scanning
# K=3, q=2 configs with δ, then p, over 0.2, 0.3, ..., 0.8, and for each
# F = 1..30, then --seed 0..9, this is the first that needs it (3 slots).
CLEANUP_Q2 = {"K": 3, "N": 3, "delta": [0.5] * 3, "mem": [0.6] * 3,
              "file_sizes": [6] * 3, "field_order": 2}
CLEANUP_SEED = "9"


def test_simulate_full_and_length_only_agree_slot_for_slot(capsys, tmp_path):
    # both modes read one channel stream per delivery seed; the instance
    # makes the full engine spend cleanup slots past the main phase
    path = tmp_path / "gf2.json"
    path.write_text(json.dumps(CLEANUP_Q2))
    docs = []
    for mode in ("--full", "--length-only"):
        code, out = run(capsys, ["simulate", "--config", str(path),
                                 "--seed", CLEANUP_SEED, mode])
        assert code == 0
        docs.append(json.loads(out))
    full, fast = docs
    assert full["slots_per_subphase"] == fast["slots_per_subphase"]
    assert full["cleanup_slots"] > 0
    assert full["slots_total"] - fast["slots_total"] == full["cleanup_slots"]


def test_simulate_length_only(capsys, sym3):
    code, out = run(capsys, ["simulate", "--config", sym3, "--seed", "2",
                             "--length-only"])
    assert code == 0
    doc = json.loads(out)
    assert doc["decode_ok"] is None
    assert 1.2 < doc["slots_per_file_unit"] < 1.8


def test_simulate_start_phase_skips_lower_pools(capsys, two_user):
    code, out = run(capsys, ["simulate", "--config", two_user, "--F", "100",
                             "--length-only", "--start-phase", "2"])
    assert code == 0
    doc = json.loads(out)
    assert all(not k.startswith("[1]") for k in doc["slots_per_subphase"])


def test_simulate_past_phase_1_runs_length_only(capsys, sym3):
    # the full engine never sends the skipped phase-1 packets, so the
    # automatic choice takes the length-only engine, which `--full` cannot
    # override (see the exit-1 cases below)
    code, out = run(capsys, ["simulate", "--config", sym3, "--F", "50",
                             "--start-phase", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "length" and doc["cleanup_slots"] == 0
    assert "[1]" not in doc["slots_per_subphase"]


def test_sweep_csv_header_and_round_trip(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"K": 2, "N": 4, "delta": [0.4, 0.4],
                                "mem": [0, 0], "file_sizes": [1, 1, 1, 1]}))
    code, out = run(capsys, ["sweep", "--config", str(base), "--vary", "mem",
                             "--grid", "0,2,4", "--trials", "2", "--F", "400",
                             "--seed", "1", "--jobs", "1", "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "T_fb", "T_nofb", "T_cent", "T_sim_mean",
                       "T_sim_ci95", "trials", "F", "seed"]
    assert len(rows) == 4
    # full caches leave nothing to send
    assert float(rows[3][1]) == 0.0


def test_optimize_mem_verb(capsys, tmp_path):
    base = tmp_path / "opt.json"
    base.write_text(json.dumps({"K": 2, "N": 4, "delta": [0.2, 0.6],
                                "mem": [0, 0], "file_sizes": [1, 1, 1, 1]}))
    code, out = run(capsys, ["optimize-mem", "--config", str(base),
                             "--budget", "4", "--step", "1"])
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["mem"]) == pytest.approx(4.0)
    assert doc["lower_bound"] <= doc["objective"] + 1e-9


def test_optimize_mem_refuses_a_search_over_the_work_guard(capsys, tmp_path,
                                                          monkeypatch):
    # K = 16, budget 16, step 4: 3,876 allocations of 16 * 2^16 plan cells
    # each, about 4e9 cells, is refused up front, before any plan runs
    def no_work(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(analysis, "_plan_tables", no_work)
    monkeypatch.setattr(analysis, "_lattice", no_work)
    path = tmp_path / "k16.json"
    path.write_text(json.dumps({"K": MAX_K, "N": MAX_K,
                                "delta": [0.5] * MAX_K, "mem": [0] * MAX_K,
                                "file_sizes": [1] * MAX_K}))
    code = main(["optimize-mem", "--config", str(path), "--budget", "16",
                 "--step", "4"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: search work 3876 allocations")
    assert "guard" in captured.err


def test_verify_verb_passes(capsys):
    code, out = run(capsys, ["verify", "--K", "4", "--samples", "60",
                             "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_residual"] < 1e-9


def test_module_runs_as_a_program_with_its_exit_codes():
    src = os.path.dirname(os.path.dirname(ebcache.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    prog = [sys.executable, "-m", "ebcache.cli", "verify"]
    ok = subprocess.run(prog + ["--K", "2", "--samples", "1"], env=env,
                        capture_output=True, text=True)
    assert ok.returncode == 0 and json.loads(ok.stdout)["ok"] is True
    usage = subprocess.run(prog + ["--K", "two"], env=env,
                           capture_output=True, text=True)
    assert usage.returncode == 1 and "error: " in usage.stderr
    assert not usage.stdout


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, argv, message", [
    ("memory_sweep.py", ["--K", "0"], "invalid config: K"),
    ("memory_sweep.py", ["--trials", "0"], "trials must be >= 1"),
    ("memory_sweep.py", ["--grid", "0:6:0"], "grid step must be > 0"),
    ("allocate_memory.py", ["--step", "0"], "step must be positive"),
])
def test_scripts_answer_a_bad_argument_with_one_error_line(script, argv,
                                                           message):
    # the way `ebcache` does: exit 1, one `error:` line, no traceback and
    # no partial table
    out = subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                          *argv], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr == f"error: {message}\n"
    assert not out.stdout


def test_missing_config_file_is_exit_1(capsys):
    assert main(["region", "--config", "/nonexistent.json"]) == 1


def test_invalid_config_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "N": 2, "delta": [0.2, 1.0],
                               "mem": [0, 0], "file_sizes": [1, 1]}))
    assert main(["region", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "delta[2]" in err


def test_unknown_config_key_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2, "N": 2, "delta": [0.2, 0.2],
                               "mem": [0, 0], "file_sizes": [1, 1],
                               "oops": 1}))
    assert main(["region", "--config", str(bad)]) == 1


def test_unsupported_field_order_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "q16.json"
    bad.write_text(json.dumps({"K": 2, "N": 2, "delta": [0.2, 0.2],
                               "mem": [1, 1], "file_sizes": [24, 24],
                               "field_order": 16}))
    assert main(["simulate", "--config", str(bad), "--seed", "0"]) == 1
    assert "field_order" in capsys.readouterr().err


def test_decode_failure_is_exit_2(capsys, tmp_path):
    cfgp = tmp_path / "q2.json"
    cfgp.write_text(json.dumps(CLEANUP_Q2))
    code = main(["simulate", "--config", str(cfgp), "--seed", CLEANUP_SEED,
                 "--cleanup-budget", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["ttot", "--F", "-5"],
    ["plan", "--F", "-5"],
    ["sweep", "--vary", "mem", "--grid", "0", "--trials", "2", "--jobs", "1",
     "--F", "-5"],
    ["simulate", "--start-phase", "0"],
    ["simulate", "--start-phase", "3", "--length-only"],
    ["simulate", "--cleanup-budget", "-1"],
    ["optimize-mem", "--budget", "2", "--step", "0"],
    ["sweep", "--vary", "mem", "--grid", "0", "--trials", "2", "--jobs", "1",
     "--F", "0"],
    ["feasible", "--rates", "nan,nan"],
    ["optimize-mem", "--budget", "4", "--step", "inf"],
    ["feasible", "--rates", "inf,0.1"],
    ["sweep", "--vary", "K", "--grid", "2.5", "--trials", "2", "--jobs", "1",
     "--F", "10"],
    ["sweep", "--vary", "mem", "--grid", "0", "--trials", "2", "--jobs", "1",
     "--F", str(MAX_FILE_PACKETS + 1)],
    ["simulate", "--start-phase", "2", "--full"],
    ["sweep", "--vary", "mem", "--grid", "0", "--trials", "2", "--jobs", "0"],
    ["sweep", "--vary", "mem", "--grid", "0", "--trials", "2", "--jobs",
     "-3"],
])
def test_bad_numeric_inputs_are_exit_1_before_any_work(capsys, two_user, argv):
    code = main([argv[0], "--config", two_user, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("argv", [
    ["feasible", "--rates", "0.1"],
    ["feasible", "--rates", "0.1,0.1,0.1"],
    ["plan", "--demand", "1,1"],
    ["ttot", "--demand", "1,3"],
    ["simulate", "--demand", "2"],
    ["simulate", "--demand", "x,1"],
    ["simulate", "--length-only", "--trace", "trace.csv"],
    ["simulate", "--scheme", "centralized"],      # b = M K / N = 2/3
    ["simulate", "--start-phase", "2", "--trace", "trace.csv",
     "--export-placement", "pm.json"],
    # a cleanup budget means nothing without decoding, in every
    # length-only mode: forced, above 12k packets, or past phase 1
    ["simulate", "--length-only", "--cleanup-budget", "5",
     "--export-placement", "pm.json"],
    ["simulate", "--F", "10000", "--cleanup-budget", "5",
     "--export-placement", "pm.json"],
    ["simulate", "--start-phase", "2", "--cleanup-budget", "5",
     "--export-placement", "pm.json"],
    # full tracking above 300k packets
    ["simulate", "--F", "150001", "--full"],
])
def test_bad_inputs_are_exit_1(capsys, monkeypatch, tmp_path, two_user, argv):
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--config", two_user, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and not captured.out
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "pm.json").exists()


def test_oversized_placement_export_is_refused_before_drawing_it(
        capsys, monkeypatch, tmp_path, sym3):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_placement_for",
                        lambda *a: pytest.fail("placement drawn"))
    assert main(["simulate", "--config", sym3, "--F", "40000",
                 "--export-placement", "x"]) == 1
    assert "placement export refused" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_count_that_is_not_whole_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "frac.json"
    bad.write_text(json.dumps({**TWO_USER, "file_sizes": [10.7, 20.2]}))
    assert main(["plan", "--config", str(bad)]) == 1
    assert "file_sizes[1] must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("doc, name", [
    ({**TWO_USER, "file_sizes": [2.9, 3]}, "file_sizes[1]"),
    ({**TWO_USER, "file_sizes": [10, 1e30]}, "file_sizes[2]"),
    ({**TWO_USER, "file_sizes": [10, MAX_FILE_PACKETS + 1]}, "file_sizes[2]"),
    ({**TWO_USER, "K": MAX_K + 1}, "K"),
    ({**TWO_USER, "N": "2"}, "N"),
    ({**TWO_USER, "mem": [True, 1]}, "mem"),
])
@pytest.mark.parametrize("verb", ["plan", "simulate"])
def test_config_over_a_bound_or_of_the_wrong_type_is_exit_1(
        capsys, tmp_path, doc, name, verb):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([verb, "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: invalid config: {name}")
    assert not captured.out


@pytest.mark.parametrize("doc", [
    {**TWO_USER, "delta": 0.3},
    {**TWO_USER, "file_sizes": 5},
    {**TWO_USER, "mem": None},
    {**TWO_USER, "delta": [None, 0.3]},
    {**TWO_USER, "delta": ["0.3", 0.3]},
    {**TWO_USER, "mem": "1,1"},
    {**TWO_USER, "delta": [True, 0.3]},
    {**TWO_USER, "file_sizes": [False, 1]},
    [1, 2],
    "config",
    3,
])
def test_config_of_the_wrong_json_type_is_exit_1(capsys, tmp_path, doc):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(doc))
    assert main(["plan", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config: ")
    assert "Traceback" not in captured.err and not captured.out


def test_demand_flag_sets_who_wants_which_file(capsys, tmp_path):
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps({"K": 2, "N": 3, "delta": [0.25, 0.5],
                                "mem": [1, 2], "file_sizes": [10, 20, 40]}))
    cfg = load_config(str(path))
    demand = Demand((3, 1))
    code, out = run(capsys, ["plan", "--config", str(path), "--demand", "3,1"])
    assert code == 0
    total = json.loads(out)["total"]
    assert total == pytest.approx(analysis.phase_plan(cfg, demand).total,
                                  rel=1e-11)
    _, out = run(capsys, ["plan", "--config", str(path)])
    assert json.loads(out)["total"] != pytest.approx(total)
    code, out = run(capsys, ["simulate", "--config", str(path), "--seed", "4",
                             "--demand", "3,1"])
    assert code == 0
    pseed, dseed = trial_seeds(4)
    res = run_delivery(cfg, decentralized_placement(cfg, pseed), demand,
                       seed=dseed)
    assert json.loads(out)["slots_total"] == res.slots_total


def test_region_reports_symmetric_vertex_only_when_symmetric(capsys, sym3,
                                                              two_user):
    code, out = run(capsys, ["region", "--config", sym3])
    assert code == 0
    want = analysis.symmetric_vertex(3, 0.5, 0.5, range(1, 4)).rates
    assert json.loads(out)["symmetric_vertex_rates"] == pytest.approx(
        list(want), rel=1e-11)
    _, out = run(capsys, ["region", "--config", two_user])
    assert "symmetric_vertex_rates" not in json.loads(out)


@pytest.mark.parametrize("mem", [[2, 0], [2, 2]])
def test_region_reports_a_full_cache_rate_as_unbounded(capsys, tmp_path,
                                                       mem):
    # a user who caches the whole library bounds no rate of its own
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"K": 2, "N": 2, "delta": [0.5, 0.5],
                                "mem": mem, "file_sizes": [1, 1]}))
    code, out = run(capsys, ["region", "--config", str(path)])
    assert code == 0 and "Infinity" not in out
    doc = json.loads(out)
    R2 = None if mem[1] == 2 else 0.5
    assert doc["vertices"] == [[None, 0.0], [None, R2], [0.0, R2]]
    assert doc.get("symmetric_vertex_rates", [None, None]) == [None, None]


def test_sweep_json_output(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"K": 2, "N": 4, "delta": [0.4, 0.4],
                                "mem": [0, 0], "file_sizes": [1, 1, 1, 1]}))
    code, out = run(capsys, ["sweep", "--config", str(base), "--vary", "mem",
                             "--grid", "0,4", "--trials", "2", "--F", "50",
                             "--seed", "1", "--jobs", "1", "--output", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["param"] for r in rows] == [0.0, 4.0]
    assert all(set(r) == set(SWEEP_COLUMNS) for r in rows)
    assert rows[1]["T_fb"] == 0.0 and rows[1]["T_sim_mean"] == 0.0


def test_sweep_point_without_centralized_placement_fails_alone(capsys, sym3):
    # b = M K / N = 1.5 at mem 1.5: that row reports it, the others run
    code, out = run(capsys, ["sweep", "--config", sym3, "--F", "30",
                             "--vary", "mem", "--grid", "0,1,1.5",
                             "--scheme", "centralized", "--trials", "2",
                             "--jobs", "1", "--output", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["param"] for r in rows] == [0.0, 1.0, 1.5]
    assert all("error" not in r and r["T_sim_mean"] > 0 for r in rows[:2])
    assert "not an integer" in rows[2]["error"]
    assert "T_sim_mean" not in rows[2]


def test_simulate_centralized_scheme(capsys, tmp_path):
    path = tmp_path / "cent.json"
    path.write_text(json.dumps({"K": 2, "N": 2, "delta": [0.3, 0.3],
                                "mem": [1, 1], "file_sizes": [40, 40]}))
    code, out = run(capsys, ["simulate", "--config", str(path), "--seed", "3",
                             "--scheme", "centralized"])
    assert code == 0
    doc = json.loads(out)
    assert doc["decode_ok"] == [True, True]
    cfg = load_config(str(path))
    res = run_delivery(cfg, centralized_placement(cfg), seed=trial_seeds(3)[1])
    assert doc["slots_total"] == res.slots_total
    assert doc["slots_per_subphase"] == res.to_json()["slots_per_subphase"]


def test_explicit_F_0_is_applied_not_ignored(capsys, sym3):
    code, out = run(capsys, ["plan", "--config", sym3])
    assert code == 0 and json.loads(out)["total"] > 0
    code, out = run(capsys, ["plan", "--config", sym3, "--F", "0"])
    doc = json.loads(out)
    assert code == 0 and doc["total"] == 0.0
    assert all(sp["t"] == 0.0 for sp in doc["subphases"])


def test_simulate_files_of_no_packets_take_no_slots(capsys, sym3):
    code, out = run(capsys, ["simulate", "--config", sym3, "--F", "0"])
    doc = json.loads(out)
    assert code == 0
    assert doc["slots_total"] == 0 and doc["slots_per_file_unit"] == 0.0


def test_numeric_output_rounded_to_twelve_significant_digits(capsys, two_user):
    code, out = run(capsys, ["ttot", "--config", two_user])
    doc = json.loads(out)
    # 8/7 = 1.142857142857142857... rounded at the 12th significant digit
    assert doc["ttot_closed_form"] == 1.14285714286


def test_flag_a_verb_ignores_is_a_usage_error_exit_1(capsys, two_user):
    with pytest.raises(SystemExit) as exc:
        main(["ttot", "--config", two_user, "--output", "csv"])
    assert exc.value.code == 1
    assert "--output" in capsys.readouterr().err


def test_missing_required_config_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ttot"])
    assert exc.value.code == 1
    assert "--config" in capsys.readouterr().err
