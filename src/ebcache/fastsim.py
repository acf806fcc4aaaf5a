"""Length-only delivery simulation, vectorized over slots.

Runs the same per-slot bookkeeping as the full engine (reception or
overheard promotion counts as progress; promotions enlarge the target
pool) but tracks only per-user outstanding-equation counters, never the
equations themselves.  Distributionally identical slot counts at a small
fraction of the cost, which is what makes file sizes of 10^5 practical
for Monte Carlo runs.
"""

from __future__ import annotations

import numpy as np

from .delivery import DeliveryError, SimResult, checked_delta
from .model import Demand, SystemConfig, subsets_ascending, users_of
from .placement import PlacementMap

_CHUNK = 8192


def initial_needs(cfg: SystemConfig, pm: PlacementMap,
                  demand: Demand | None = None) -> dict[int, np.ndarray]:
    """Per-pool initial outstanding counts: packets of user k's file
    cached by exactly C are outstanding for k in pool C + {k}."""
    demand = demand or Demand.identity(cfg.K)
    needs = {m: np.zeros(cfg.K, dtype=np.int64)
             for m in range(1, 1 << cfg.K)}
    for k in range(1, cfg.K + 1):
        counts = pm.subset_counts(demand.file_of(k))
        bit = 1 << (k - 1)
        for cmask in range(len(counts)):
            if cmask & bit or counts[cmask] == 0:
                continue
            needs[cmask | bit][k - 1] += int(counts[cmask])
    return needs


def order_start_needs(K: int, order: int, n_packets: int) -> dict[int, np.ndarray]:
    """Seed every subset of the given size with packets all its members
    still need."""
    needs = {m: np.zeros(K, dtype=np.int64) for m in range(1, 1 << K)}
    for m in range(1, 1 << K):
        if bin(m).count("1") != order:
            continue
        for k0 in range(K):
            if m >> k0 & 1:
                needs[m][k0] = n_packets
    return needs


def simulate_lengths(K: int, delta, needs: dict[int, np.ndarray], seed: int,
                     start_phase: int = 1) -> SimResult:
    """Slot counts for the whole delivery given initial per-pool needs."""
    delta = checked_delta(K, delta)
    if not 1 <= start_phase <= K:
        raise DeliveryError("start_phase out of range")
    rng = np.random.default_rng(seed)
    powers = (1 << np.arange(K)).astype(np.int64)
    pending = {m: needs.get(m, np.zeros(K, dtype=np.int64)).copy()
               for m in range(1, 1 << K)}
    per_subphase: dict[tuple[int, ...], int] = {}
    transfers: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
    total = 0
    for pool in subsets_ascending(K):
        if bin(pool).count("1") < start_phase:
            continue
        r = pending[pool].copy()
        members = [k0 for k0 in range(K) if pool >> k0 & 1]
        if not any(r[k0] for k0 in members):
            continue
        # lowest per-slot progress probability bounds the expected length
        q_min = min(1.0 - delta[k0] * float(np.prod(delta[[j for j in range(K)
                     if not pool >> j & 1]])) for k0 in members)
        length = 0
        while True:
            chunk = int(min(_CHUNK, max(128, 2 * max(r[k0] for k0 in members)
                                        / q_min)))
            states = ((rng.random((chunk, K)) < (1.0 - delta)) @ powers)
            recv = (states[:, None] & powers[None, :]) != 0
            outside = (states & ~pool) != 0
            progress = recv | outside[:, None]
            fin = {}
            for k0 in members:
                if r[k0] == 0:
                    continue
                cum = np.cumsum(progress[:, k0])
                pos = int(np.searchsorted(cum, r[k0]))
                fin[k0] = pos          # == chunk when not finished here
            used = chunk if any(p >= chunk for p in fin.values()) \
                else max(fin.values()) + 1
            for k0, pos in fin.items():
                lim = min(pos + 1, used) if pos < chunk else used
                promo = (~recv[:lim, k0]) & outside[:lim]
                if promo.any():
                    tgt = states[:lim][promo] | pool
                    cnt = np.bincount(tgt, minlength=1 << K)
                    for t in np.nonzero(cnt)[0]:
                        pending[int(t)][k0] += int(cnt[t])
                        key = (users_of(pool), users_of(int(t)), k0 + 1)
                        transfers[key] = transfers.get(key, 0) + int(cnt[t])
                if pos < used:
                    r[k0] = 0
                else:
                    r[k0] -= int(np.count_nonzero(progress[:used, k0]))
            length += used
            if not any(r[k0] for k0 in members):
                break
        per_subphase[users_of(pool)] = length
        total += length
    return SimResult(
        slots_total=total,
        slots_per_subphase=per_subphase,
        decode_ok=None,
        cleanup_slots=0,
        realized_transfers=transfers,
    )


def run_delivery_lengths(cfg: SystemConfig, pm: PlacementMap,
                         demand: Demand | None = None, seed: int = 0,
                         start_phase: int = 1) -> SimResult:
    return simulate_lengths(cfg.K, cfg.delta, initial_needs(cfg, pm, demand),
                            seed, start_phase=start_phase)
