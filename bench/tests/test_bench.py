"""Fast tests of the benchmark itself: every correctness check rejects a
deliberately wrong value, the references agree with the library where
both apply, the tracer survives a missing target, and every workload
runs end to end at toy size.

    python3 -m pytest -q bench/tests
"""

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ebcache import analysis, delivery, placement  # noqa: E402
from ebcache.model import SystemConfig  # noqa: E402


@pytest.fixture(scope="module")
def trial():
    cfg = workloads._cfg(3, (0.5,) * 3, (0.5,) * 3, 60)
    pm = placement.decentralized_placement(cfg, 11)
    return cfg, pm, delivery.run_delivery(cfg, pm, seed=12)


def values(L=1):
    """Packet values of the `trial` fixture's delivery."""
    return refs.packet_values(12, 180, L)


def asym(K, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.1, 0.9, K).tolist()
    p = rng.uniform(0.0, 1.0, K).tolist()
    sizes = rng.integers(500, 2001, K).tolist()
    cfg = SystemConfig(K=K, N=K, delta=tuple(delta), mem=tuple(p),
                       file_sizes=tuple(sizes))
    return cfg, [m / K for m in cfg.mem], delta, sizes


def test_subphase_below_lower_bound_is_rejected(trial):
    cfg, pm, res = trial
    bounds = refs.subphase_lower_bounds(3, workloads._demanded_masks(pm, 3))
    assert workloads.check_subphase_bounds("t", res.slots_per_subphase,
                                           bounds) == []
    J, lb = max(bounds.items(), key=lambda kv: kv[1])
    short = {**res.slots_per_subphase, J: lb - 1}
    bad = workloads.check_subphase_bounds("t", short, {J: lb})
    assert len(bad) == 1 and "below its lower bound" in bad[0]


def test_decode_ok_false_is_rejected(trial):
    cfg, pm, res = trial
    assert workloads.check_decode("t", cfg, res, values()) == []
    wrong = replace(res, decode_ok=[True, False, True])
    assert any("decode_ok" in b
               for b in workloads.check_decode("t", cfg, wrong, values()))


def test_one_wrong_recovered_byte_is_rejected(trial):
    cfg, pm, res = trial
    recovered = {k: v.copy() for k, v in res.recovered.items()}
    recovered[2][17, 0] ^= 1
    bad = workloads.check_decode("t", cfg, replace(res, recovered=recovered),
                                 values())
    assert bad == ["t: user 2 recovered 1 wrong bytes"]


def test_slot_accounting_and_shape_are_checked(trial):
    cfg, pm, res = trial
    extra = replace(res, cleanup_slots=res.cleanup_slots + 1)
    assert any("cleanup" in b
               for b in workloads.check_decode("t", cfg, extra, values()))
    assert any("recovered" in b
               for b in workloads.check_decode("t", cfg, res, values(2)))


def test_delivery_error_fails_the_checks(monkeypatch):
    def wrong_bytes(*args, **kwargs):
        raise delivery.DeliveryError("user 1 produced wrong bytes")

    monkeypatch.setattr(delivery, "run_delivery", wrong_bytes)
    wl = workloads.Decode(1, toy=True)
    out = run.run_rounds(wl, 0.0)
    assert out["failed"] == out["attempted"] == len(wl.trials)
    assert len(out["problems"]) == len(wl.trials)
    assert all("wrong bytes" in b for b in out["problems"])


def test_ttot_off_by_one_millionth_is_rejected():
    cfg, p, delta, sizes = asym(6, 3)
    value, perm = analysis.ttot_closed_form(cfg)
    doc = {"ttot_closed_form": value, "maximizer": list(perm),
           "plan_total": analysis.phase_plan(cfg).total}
    assert workloads.check_ttot(doc, p, delta, sizes) == []
    doc["ttot_closed_form"] = value * (1 + 1e-6)
    assert any("lattice" in b for b in workloads.check_ttot(doc, p, delta, sizes))


def test_lattice_matches_permutation_enumeration():
    for K in range(2, 7):
        cfg, p, delta, sizes = asym(K, K)
        ref, order = refs.lattice_max(p, delta, sizes)
        value, _ = analysis.ttot_closed_form(cfg)
        assert ref == pytest.approx(value, rel=1e-12)
        assert refs.prefix_sum(p, delta, sizes, order) == pytest.approx(ref, rel=1e-12)


def test_closed_forms_match_the_paper_values():
    assert refs.symmetric_ttot(3, 0.5, 0.5, 1.0) == pytest.approx(31 / 21)
    assert refs.order_capacity(3, 0.5, 2) == pytest.approx(9 / 16)
    assert refs.no_feedback_ttot(3, 0.0, 0.5, 1.0) == pytest.approx(
        refs.symmetric_ttot(3, 0.0, 0.5, 1.0))


def test_monte_carlo_mean_three_percent_off_is_rejected():
    wl = workloads.MonteCarlo(5, toy=True)
    outs = [call() for _, call in wl.ops(0)]
    assert wl.check(outs) == []
    rows, mc, oc = outs
    bad = wl.check([rows, replace(mc, mean=mc.mean * 1.03), oc])
    assert len(bad) == 1 and "monte_carlo" in bad[0]
    bad = wl.check([rows, mc, replace(oc, mean=oc.mean * 0.97)])
    assert len(bad) == 1 and "capacity" in bad[0]
    rows[0] = dict(rows[0], T_fb=rows[0]["T_fb"] * (1 + 1e-6))
    assert any("T_fb" in b for b in wl.check([rows, mc, oc]))


def test_fastsim_disagreement_is_rejected():
    fast = [[100, 104, 96, 102, 98]] * 4
    assert workloads.check_agreement([100, 101, 99, 100], fast) == []
    assert workloads.check_agreement([140, 141, 139, 140], fast)


def test_planning_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.Planning(2, toy=True, workdir=tmp_path)
    outs = [call() for _, call in wl.ops(0)]
    assert wl.check(outs) == []
    docs = [json.loads(text) for _, text in outs]
    docs[2]["max_lhs"] *= 1 + 1e-6
    docs[3]["lower_bound"] *= 1 - 1e-6
    docs[4]["ok"] = False
    bad = wl.check([(0, json.dumps(d)) for d in docs])
    assert [b.split(":")[0] for b in bad] == ["feasible", "optimize-mem", "verify"]
    assert wl.check([(2, "")] + outs[1:]) == ["plan: exit status 2"]


def test_tracer_reports_a_missing_private_target_as_absent():
    holder = types.SimpleNamespace(present=lambda x: x + 1)
    sys.modules["bench_fake_layer"] = holder
    try:
        tracer = spans.Tracer((
            spans.Target("bench_fake_layer:present", "fake.present"),
            spans.Target("bench_fake_layer:_Gone.method", "fake.gone"),
            spans.Target("ebcache.delivery:_Engine.renamed", "fake.renamed"),
        ))
        original = holder.present
        with tracer.installed():
            assert holder.present(1) == 2
        assert holder.present is original
        assert tracer.absent == ["bench_fake_layer:_Gone.method",
                                 "ebcache.delivery:_Engine.renamed"]
        assert [s[0] for s in tracer.spans] == ["fake.present"]
    finally:
        del sys.modules["bench_fake_layer"]


def test_self_time_excludes_children():
    tracer = spans.Tracer(())
    tracer.spans += [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                     ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_untraced_run_never_builds_a_tracer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tracer built in an untraced run")

    monkeypatch.setattr(spans, "Tracer", refuse)
    assert run.measure("decode_wide", 1, 0.0, False, toy=True)["correct"]


ENGINE_LAYERS = {"gf256.rref_s", "gf256.rref_calls", "gf256.rref_cells",
                 "delivery.decode_user_s", "delivery.run_s", "delivery.slots",
                 "gf256.gf_dot_s", "gf256.gf_dot_calls",
                 "delivery.run_delivery_s", "placement.self_s",
                 "placement.calls"}
# layers each workload must reach; everything under another workload's
# layers only (simulators on planning, decoder on montecarlo) must read 0
LAYERS_RUN = {
    "decode": ENGINE_LAYERS,
    "decode_wide": ENGINE_LAYERS,
    "montecarlo": {"fastsim.simulate_lengths_s", "fastsim.initial_needs_s",
                   "fastsim.slots", "fastsim.subphases", "placement.self_s",
                   "placement.calls", "experiments.sweep_s",
                   "experiments.monte_carlo_s", "analysis.ttot_closed_form_s",
                   "analysis.ttot_closed_form_calls"},
    "planning": {"analysis.phase_plan_s", "analysis.phase_plan_calls",
                 "analysis.ttot_closed_form_s",
                 "analysis.ttot_closed_form_calls", "analysis.feasibility_s",
                 "analysis.identity_suite_s", "experiments.optimize_memory_s",
                 "cli.main_s"},
}
NEVER = {
    "montecarlo": {m for m in ENGINE_LAYERS if not m.startswith("placement")},
    "planning": ENGINE_LAYERS | {"fastsim.simulate_lengths_s", "fastsim.slots"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_at_toy_size(name):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = run.measure(name, 3, 0.0, False, toy=True)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = run.measure(name, 3, 0.0, True, toy=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["attempted"] == 2 * plain["attempted"]
    layers = {m: v["value"] for m, v in traced["metrics"].items()}
    assert [m for m in LAYERS_RUN[name] if not layers[m] > 0] == []
    assert [m for m in NEVER.get(name, ()) if layers[m] != 0] == []
