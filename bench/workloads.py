"""The benchmark's workloads.

Each workload fixes its configurations and draws every random input from
the workload seed through `SeedSequence`.  A round is a fixed list of
operations; `ops(r)` prepares round r untimed and returns the calls the
runner times one by one.  A call looks library functions up when it
runs, not when it is prepared, so the traced run's wrappers see it.  Round r draws its inputs from
`SeedSequence([seed, r, ...])`, so rounds do the same operations on fresh
inputs and a run averages over many of them.  `work` gives each output's
share of the workload's throughput, `work_per_s`, counted in the
workload's `work_unit`, and `check` lists what is wrong with a round's
outputs.  An operation that raises one of `wrong_output_errors` failed a
correctness check, not merely failed to run.

Why these four: `decode` and `decode_wide` drive the full engine with its
decoder (many unknowns with 1-byte payloads, then few unknowns with 1 KiB
payloads), `montecarlo` drives only the length-only simulator and
placement, and `planning` drives only the analytic layer through the CLI.
A change to one layer is meant to move one workload and leave the others
unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from functools import partial
from math import sqrt
from pathlib import Path

import numpy as np

from ebcache import cli, delivery, experiments, fastsim, placement
from ebcache.analysis import phase_plan
from ebcache.model import SystemConfig

import refs

REL_TOL = 1e-9
FASTSIM_REPEATS = 30     # length-only runs per placement in the agreement check
AGREEMENT_SE = 5.0


def _cfg(K, delta, p, F, N=None, q=256) -> SystemConfig:
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p), file_sizes=(F,) * N,
                        field_order=q)


def _rel_close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _seeds(seed: int, *key: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, *key]).generate_state(n)]


def _demanded_masks(pm, K: int):
    """Caching masks of user k's file under the identity demand."""
    return [pm.cache_masks[k] for k in range(K)]


class Workload:
    """Defaults: no final check, nothing to release."""

    wrong_output_errors: tuple[type[Exception], ...] = ()

    def final_check(self, outs) -> list[str]:
        return []

    def close(self) -> None:
        pass


# -- checks shared by the decode workloads ------------------------------------

def check_decode(label: str, cfg: SystemConfig, res,
                 values: np.ndarray) -> list[str]:
    """Decode flags, slot accounting and every recovered byte against
    `values`, the packet values of all files in order (identity demand)."""
    bad = []
    if res.decode_ok is None or not all(res.decode_ok) \
            or len(res.decode_ok) != cfg.K:
        bad.append(f"{label}: decode_ok = {res.decode_ok}")
    ends = np.cumsum(cfg.file_sizes)
    for k in range(1, cfg.K + 1):
        got = (res.recovered or {}).get(k)
        want = values[ends[k - 1] - cfg.file_sizes[k - 1]:ends[k - 1]]
        if got is None or got.shape != want.shape or got.dtype != np.uint8:
            bad.append(f"{label}: user {k} recovered "
                       f"{None if got is None else got.shape}, want {want.shape}")
        elif not np.array_equal(got, want):
            bad.append(f"{label}: user {k} recovered "
                       f"{int(np.count_nonzero(got != want))} wrong bytes")
    if sum(res.slots_per_subphase.values()) + res.cleanup_slots \
            != res.slots_total:
        bad.append(f"{label}: sub-phase slots {sum(res.slots_per_subphase.values())}"
                   f" + cleanup {res.cleanup_slots} != total {res.slots_total}")
    return bad


def check_subphase_bounds(label: str, slots_per_subphase: dict,
                          bounds: dict) -> list[str]:
    """Every sub-phase lasts at least its lower bound from the masks."""
    bad = []
    for J, lb in bounds.items():
        got = slots_per_subphase.get(J, 0)
        if got < lb:
            bad.append(f"{label}: sub-phase {J} took {got} slots, "
                       f"below its lower bound {lb}")
    return bad


def check_agreement(full: list[int], fast: list[list[int]],
                    limit: float = AGREEMENT_SE) -> list[str]:
    """The full engine's mean slot count (cleanup excluded) against the
    length-only simulator's on the same placements.  The per-trial
    variance comes from the length-only repeats, which follow the same
    distribution."""
    mu = sum(float(np.mean(f)) for f in fast)
    var = sum(float(np.var(f, ddof=1)) * (1.0 + 1.0 / len(f)) for f in fast)
    se = sqrt(var) / len(full)
    diff = (sum(full) - mu) / len(full)
    if se == 0.0 or abs(diff) > limit * se:
        return [f"full-engine mean slots differ from fastsim by {diff:.2f} "
                f"(standard error {se:.2f})"]
    return []


class _DecodeBase(Workload):
    """Full-engine trials: placement, then `run_delivery` with decoding.
    One operation is one trial; work is the demanded packets that were
    not in the user's own cache, all recovered byte-exactly.  A
    `DeliveryError` (wrong bytes, or packets left after cleanup) fails the
    checks."""

    payload_len = 1
    wrong_output_errors = (delivery.DeliveryError,)

    def __init__(self, seed: int, toy: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.dseeds: list[int] = []
        self.trials = [(f"{label}#{t}", cfg, scheme)
                       for label, cfg, scheme, count in self.mix(toy)
                       for t in range(count)]

    def mix(self, toy: bool):
        raise NotImplementedError

    def warm_up(self) -> None:
        for q in (256, 2):
            cfg = _cfg(3, (0.3,) * 3, (0.5,) * 3, 40, q=q)
            pm = placement.decentralized_placement(cfg, 1)
            delivery.run_delivery(cfg, pm, seed=2, payload_len=self.payload_len)

    def ops(self, r: int):
        ops, self.dseeds = [], []
        for i, (label, cfg, scheme) in enumerate(self.trials):
            pseed, dseed = _seeds(self.seed, r, i, n=2)
            self.dseeds.append(dseed)
            ops.append((label, partial(self._trial, cfg, scheme, pseed, dseed)))
        return ops

    def _trial(self, cfg, scheme, pseed, dseed):
        pm = (placement.centralized_placement(cfg) if scheme == "centralized"
              else placement.decentralized_placement(cfg, pseed))
        return pm, delivery.run_delivery(cfg, pm, seed=dseed,
                                         payload_len=self.payload_len)

    def work(self, index: int, out) -> float:
        cfg = self.trials[index][1]
        return refs.uncached_demanded(cfg.K, _demanded_masks(out[0], cfg.K))

    def check(self, outs) -> list[str]:
        bad = []
        for (label, cfg, _), dseed, out in zip(self.trials, self.dseeds, outs):
            if out is None:
                continue
            pm, res = out
            values = refs.packet_values(dseed, sum(cfg.file_sizes),
                                        self.payload_len)
            bad += check_decode(label, cfg, res, values)
            bounds = refs.subphase_lower_bounds(cfg.K, _demanded_masks(pm, cfg.K))
            bad += check_subphase_bounds(label, res.slots_per_subphase, bounds)
        return bad

    def final_check(self, outs) -> list[str]:
        """Length-only agreement on one round's placements."""
        full, fast = [], []
        for (label, cfg, _), out in zip(self.trials, outs):
            if out is None:
                continue
            pm, res = out
            full.append(res.slots_total - res.cleanup_slots)
            fast.append([fastsim.run_delivery_lengths(cfg, pm, seed=s).slots_total
                         for s in _seeds(self.seed, 7, len(full),
                                         n=FASTSIM_REPEATS)])
        return check_agreement(full, fast) if full else []


class Decode(_DecodeBase):
    """Many unknowns, 1-byte payloads: elimination dominates."""

    name = "decode"
    work_unit = "packets"

    def mix(self, toy):
        F = 60 if toy else 1000
        Fc = 60 if toy else 1002           # divisible by C(4, 2)
        Fq = 40 if toy else 300
        return [
            ("K3-sym", _cfg(3, (0.5,) * 3, (0.5,) * 3, F), "decentralized", 1),
            ("K4-asym", _cfg(4, (0.2, 0.3, 0.4, 0.5), (0.5, 0.4, 0.3, 0.6), F),
             "decentralized", 1),
            ("K4-cent-b2", _cfg(4, (0.3,) * 4, (0.5,) * 4, Fc), "centralized", 1),
            ("K3-gf2", _cfg(3, (0.3,) * 3, (0.5,) * 3, Fq, q=2),
             "decentralized", 3),
        ]


class DecodeWide(_DecodeBase):
    """Few unknowns, 1 KiB payloads: payload bytes dominate."""

    name = "decode_wide"
    work_unit = "MB of payload"
    payload_len = 1024

    def mix(self, toy):
        F = 30 if toy else 300
        return [
            ("K3-sym-wide", _cfg(3, (0.5,) * 3, (0.5,) * 3, F),
             "decentralized", 1),
            ("K3-asym-wide", _cfg(3, (0.2, 0.4, 0.6), (0.6, 0.5, 0.3), F),
             "decentralized", 1),
        ]

    def work(self, index, out):
        return super().work(index, out) * self.payload_len / 1e6


# -- montecarlo ----------------------------------------------------------------

class MonteCarlo(Workload):
    """Length-only Monte Carlo: a memory sweep at K=10, N=100, the K=3
    convergence run and the order-2 capacity trial.  Work is simulated
    channel slots, recovered from the returned means and trial counts."""

    name = "montecarlo"
    work_unit = "slots"
    SWEEP_K, SWEEP_N, SWEEP_DELTA = 10, 100, 0.6
    MC_DELTA, MC_P = 0.5, 0.5
    ORDER = 2

    def __init__(self, seed: int, toy: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.grid = [50.0, 90.0] if toy else [10.0, 30.0, 50.0, 70.0, 90.0]
        self.sweep_F = 200 if toy else 2000
        self.sweep_trials = 1 if toy else 2
        self.mc_F = 100_000                # the 1% checks need this size
        self.mc_trials = 2 if toy else 8
        self.oc_trials = 2 if toy else 4
        self.sweep_base = SystemConfig(
            K=self.SWEEP_K, N=self.SWEEP_N, delta=(self.SWEEP_DELTA,) * self.SWEEP_K,
            mem=(0.0,) * self.SWEEP_K, file_sizes=(1,) * self.SWEEP_N)
        self.mc_cfg = _cfg(3, (self.MC_DELTA,) * 3, (self.MC_P,) * 3, self.mc_F)

    def warm_up(self) -> None:
        experiments.monte_carlo(_cfg(2, (0.3,) * 2, (0.5,) * 2, 100), trials=2)
        experiments.order_capacity_trial(2, 0.3, 2, 100, trials=2)

    def ops(self, r: int):
        sweep_seed, mc_seed, oc_seed = _seeds(self.seed, r, n=3)
        spec = experiments.SweepSpec(
            varying="mem", grid=self.grid, base=self.sweep_base,
            trials=self.sweep_trials, F=self.sweep_F, seed=sweep_seed, jobs=1)
        return [
            ("sweep", lambda: experiments.sweep(spec)),
            ("monte_carlo", lambda: experiments.monte_carlo(
                self.mc_cfg, trials=self.mc_trials, seed=mc_seed)),
            ("order_capacity", lambda: experiments.order_capacity_trial(
                3, self.MC_DELTA, self.ORDER, self.mc_F,
                trials=self.oc_trials, seed=oc_seed)),
        ]

    def work(self, index: int, out) -> float:
        if index == 0:
            return sum(row["T_sim_mean"] * row["F"] * row["trials"] for row in out)
        if index == 1:
            return out.mean * self.mc_cfg.mean_file_size * out.trials
        symbols = 3 * self.mc_F            # C(3, 2) subsets seeded
        return sum(symbols / v for v in out.per_trial)

    def check(self, outs) -> list[str]:
        rows, mc, oc = outs
        bad = []
        if rows is not None:
            bad += check_sweep_rows(rows, self.SWEEP_K, self.SWEEP_N,
                                    self.SWEEP_DELTA)
            slots = self.work(0, rows)
            if abs(slots - round(slots)) > 1e-6 * max(1.0, slots):
                bad.append(f"sweep slot count {slots} is not whole")
        if mc is not None:
            want = refs.symmetric_ttot(3, self.MC_DELTA, self.MC_P, 1.0)
            bad += check_mean("monte_carlo K=3", mc.mean, want, 0.01)
        if oc is not None:
            want = refs.order_capacity(3, self.MC_DELTA, self.ORDER)
            bad += check_mean("order-2 capacity K=3", oc.mean, want, 0.01)
        return bad


def check_mean(label: str, got: float, want: float, rel: float) -> list[str]:
    if abs(got - want) > rel * abs(want):
        return [f"{label}: mean {got:.6g} is more than {rel:.0%} from {want:.6g}"]
    return []


def check_sweep_rows(rows, K: int, N: int, delta: float) -> list[str]:
    """Analytic columns against the closed forms, simulation not below
    98% of the feedback length."""
    bad = []
    for row in rows:
        if "error" in row:
            bad.append(f"sweep row {row['param']}: {row['error']}")
            continue
        p = row["param"] / N
        want = {"T_fb": refs.symmetric_ttot(K, delta, p, 1.0),
                "T_nofb": refs.no_feedback_ttot(K, delta, p, 1.0)}
        for col, value in want.items():
            if not _rel_close(row[col], value):
                bad.append(f"sweep row {row['param']}: {col} {row[col]!r} "
                           f"!= closed form {value!r}")
        if row["T_sim_mean"] < 0.98 * row["T_fb"]:
            bad.append(f"sweep row {row['param']}: T_sim_mean "
                       f"{row['T_sim_mean']} < 0.98 * T_fb {row['T_fb']}")
    return bad


# -- planning ------------------------------------------------------------------

class Planning(Workload):
    """Analytic queries through `ebcache.cli.main`, in process.  Every
    round draws fresh channel, cache and size vectors for the same
    shapes; one operation is one CLI query."""

    name = "planning"
    work_unit = "queries"
    OPT_N, OPT_STEP, OPT_M = 20, 2, 10

    def __init__(self, seed: int, toy: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.K_plan, self.K_perm, self.K_verify = (5, 4, 3) if toy else (10, 8, 6)
        self.verify_samples = 10 if toy else 100
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = None

    def _write(self, name: str, K: int, N: int, delta, mem, sizes) -> str:
        path = self.workdir / name
        path.write_text(json.dumps({"K": K, "N": N, "delta": list(delta),
                                    "mem": list(mem), "file_sizes": list(sizes)}))
        return str(path)

    def warm_up(self) -> None:
        path = self._write("warm.json", 2, 2, (0.3, 0.5), (1.0, 0.5), (10, 10))
        for argv in (["plan", "--config", path], ["ttot", "--config", path],
                     ["verify", "--K", "2", "--samples", "2"]):
            _cli(argv)

    def _asym(self, rng, K: int):
        delta = rng.uniform(0.1, 0.9, K).tolist()
        mem = rng.uniform(0.0, K, K).tolist()
        sizes = rng.integers(500, 2001, K).tolist()
        return delta, mem, sizes

    def ops(self, r: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        d10, m10, f10 = self._asym(rng, self.K_plan)
        d8, m8, f8 = self._asym(rng, self.K_perm)
        p8 = [m / self.K_perm for m in m8]
        rates = rng.uniform(0.1, 1.0, self.K_perm)
        target = float(rng.choice([0.8, 1.25]))
        top, _ = refs.lattice_max(p8, d8, rates)
        rates = [float(x) for x in rates * (target / top)]
        d4 = rng.uniform(0.1, 0.9, 4).tolist()
        verify_seed = int(rng.integers(0, 2 ** 31))
        self.inputs = {"plan": (d10, [m / self.K_plan for m in m10], f10),
                       "perm": (d8, p8, f8, rates), "opt": d4}
        plan_cfg = self._write("plan.json", self.K_plan, self.K_plan, d10, m10, f10)
        perm_cfg = self._write("perm.json", self.K_perm, self.K_perm, d8, m8, f8)
        opt_cfg = self._write("opt.json", 4, self.OPT_N, d4, (0.0,) * 4,
                              (1,) * self.OPT_N)
        budget = 4 * self.OPT_M
        return [
            ("plan", partial(_cli, ["plan", "--config", plan_cfg])),
            ("ttot", partial(_cli, ["ttot", "--config", perm_cfg])),
            ("feasible", partial(_cli, ["feasible", "--config", perm_cfg,
                                        "--rates", ",".join(map(repr, rates))])),
            ("optimize-mem", partial(_cli, [
                "optimize-mem", "--config", opt_cfg, "--budget", str(budget),
                "--step", str(self.OPT_STEP)])),
            ("verify", partial(_cli, ["verify", "--K", str(self.K_verify),
                                      "--samples", str(self.verify_samples),
                                      "--seed", str(verify_seed)])),
        ]

    def work(self, index: int, out) -> float:
        return 1.0

    def check(self, outs) -> list[str]:
        labels = ("plan", "ttot", "feasible", "optimize-mem", "verify")
        docs = {}
        bad = []
        for label, out in zip(labels, outs):
            if out is None:
                continue
            code, text = out
            if code != 0:
                bad.append(f"{label}: exit status {code}")
            else:
                docs[label] = json.loads(text)
        d10, p10, f10 = self.inputs["plan"]
        d8, p8, f8, rates = self.inputs["perm"]
        if "plan" in docs:
            bad += check_plan(docs["plan"], p10, d10, f10)
        if "ttot" in docs:
            bad += check_ttot(docs["ttot"], p8, d8, f8)
        if "feasible" in docs:
            bad += check_feasible(docs["feasible"], p8, d8, rates)
        if "optimize-mem" in docs:
            bad += check_optimize(docs["optimize-mem"], self.inputs["opt"],
                                  self.OPT_N, self.OPT_M, self.OPT_STEP)
        if "verify" in docs:
            doc = docs["verify"]
            if doc["ok"] is not True or not doc["max_residual"] < 1e-9:
                bad.append(f"verify: ok={doc['ok']} max_residual="
                           f"{doc['max_residual']}")
        return bad

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_plan(doc, p, delta, sizes) -> list[str]:
    """The recursion's total is at least the closed form (the max over
    orders) and is the sum of its 2^K - 1 sub-phases."""
    bad = []
    ref, _ = refs.lattice_max(p, delta, sizes)
    subs = doc["subphases"]
    if len(subs) != (1 << len(sizes)) - 1:
        bad.append(f"plan: {len(subs)} sub-phases for K={len(sizes)}")
    if doc["total"] < ref * (1.0 - REL_TOL):
        bad.append(f"plan: total {doc['total']} below the closed form {ref}")
    if not _rel_close(sum(s["t"] for s in subs), doc["total"]):
        bad.append("plan: sub-phase lengths do not add up to the total")
    return bad


def check_ttot(doc, p, delta, sizes) -> list[str]:
    bad = []
    ref, _ = refs.lattice_max(p, delta, sizes)
    if not _rel_close(doc["ttot_closed_form"], ref):
        bad.append(f"ttot: {doc['ttot_closed_form']!r} != lattice {ref!r}")
    if not _rel_close(refs.prefix_sum(p, delta, sizes, doc["maximizer"]), ref):
        bad.append(f"ttot: maximizer {doc['maximizer']} does not attain {ref!r}")
    if doc["plan_total"] < ref * (1.0 - REL_TOL):
        bad.append(f"ttot: plan_total {doc['plan_total']} below {ref}")
    return bad


def check_feasible(doc, p, delta, rates) -> list[str]:
    bad = []
    ref, _ = refs.lattice_max(p, delta, rates)
    if not _rel_close(doc["max_lhs"], ref):
        bad.append(f"feasible: max_lhs {doc['max_lhs']!r} != lattice {ref!r}")
    if doc["feasible"] != (ref <= 1.0):
        bad.append(f"feasible: {doc['feasible']} with max_lhs {ref}")
    if not _rel_close(refs.prefix_sum(p, delta, rates, doc["worst_perm"]), ref):
        bad.append(f"feasible: worst_perm {doc['worst_perm']} does not attain {ref!r}")
    return bad


def _compositions(total: int, parts: int, cap: int):
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def check_optimize(doc, delta, N: int, M: int, step: int) -> list[str]:
    """The searched objective is no worse than the symmetric split and no
    better than the closed-form lower bound, which must be the smallest
    closed form over the grid."""
    bad = []
    K = len(delta)
    if not _rel_close(sum(doc["mem"]), K * M):
        bad.append(f"optimize-mem: allocation {doc['mem']} misses the budget")
    sym = phase_plan(SystemConfig(K=K, N=N, delta=tuple(delta),
                                  mem=(float(M),) * K,
                                  file_sizes=(1,) * N)).total
    if doc["objective"] > sym * (1.0 + REL_TOL):
        bad.append(f"optimize-mem: objective {doc['objective']} above the "
                   f"symmetric split {sym}")
    if doc["objective"] < doc["lower_bound"] * (1.0 - REL_TOL):
        bad.append(f"optimize-mem: objective {doc['objective']} below its "
                   f"lower bound {doc['lower_bound']}")
    ones = [1.0] * K
    lb = min(refs.lattice_max([step * c / N for c in parts], delta, ones)[0]
             for parts in _compositions(K * M // step, K, N // step))
    if not _rel_close(doc["lower_bound"], lb):
        bad.append(f"optimize-mem: lower_bound {doc['lower_bound']!r} != "
                   f"lattice minimum {lb!r}")
    return bad


WORKLOADS = {w.name: w for w in (Decode, DecodeWide, MonteCarlo, Planning)}
