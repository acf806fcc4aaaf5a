"""Cache placement: decentralized random caching and centralized split
caching, plus exact per-subset sub-file accounting.

A placement is stored as one uint32 bitmask per packet giving the exact
set of users caching it, so every sub-file question reduces to mask
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from itertools import combinations

import numpy as np

from .model import ConfigError, SystemConfig, mask_of, users_of

PLACEMENT_BLOCK = 1 << 16   # packets per draw of a decentralized placement


@dataclass
class PlacementMap:
    """cache_masks[i][f] = bitmask of users caching packet f of file i+1."""

    scheme: str
    K: int
    cache_masks: list[np.ndarray]
    b: int | None = None

    def cached_by(self, file: int, packet: int) -> tuple[int, ...]:
        """1-based users caching the given packet (file 1-based)."""
        return users_of(int(self.cache_masks[file - 1][packet]))

    def realized_cache_size(self, user: int) -> int:
        bit = 1 << (user - 1)
        return sum(int(np.count_nonzero(m & bit)) for m in self.cache_masks)

    def subset_counts(self, file: int) -> np.ndarray:
        """Packet count per exact caching subset (indexed by mask)."""
        return np.bincount(self.cache_masks[file - 1].astype(np.int64),
                           minlength=1 << self.K)

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "files": [[list(users_of(int(m))) for m in masks]
                      for masks in self.cache_masks],
        }


def validate_placement(cfg: SystemConfig, pm: PlacementMap) -> None:
    """ConfigError unless the placement caches the config's files: K
    users, N files, each with as many packets as the config gives it."""
    bad = []
    if pm.K != cfg.K:
        bad.append(f"K {pm.K} (config {cfg.K})")
    sizes = tuple(len(m) for m in pm.cache_masks)
    if len(sizes) != cfg.N:
        bad.append(f"{len(sizes)} files (config {cfg.N})")
    elif sizes != cfg.file_sizes:
        bad.append(f"file sizes {list(sizes)} (config "
                   f"{list(cfg.file_sizes)})")
    if bad:
        raise ConfigError(f"placement does not fit the config: "
                          f"{', '.join(bad)}")


def decentralized_placement(cfg: SystemConfig, seed: int) -> PlacementMap:
    """Each user caches each packet independently with probability
    M_k / N; deterministic given the seed.  A file's (F, K) doubles are
    drawn PLACEMENT_BLOCK packets at a time, which bounds the temporaries;
    numpy fills doubles in order, so the masks do not depend on it."""
    rng = np.random.default_rng(seed)
    p = np.asarray(cfg.p)
    powers = (1 << np.arange(cfg.K)).astype(np.uint32)
    masks = []
    for F in cfg.file_sizes:
        mask = np.empty(F, dtype=np.uint32)
        for lo in range(0, F, PLACEMENT_BLOCK):
            bits = rng.random((min(PLACEMENT_BLOCK, F - lo), cfg.K)) < p
            mask[lo:lo + len(bits)] = bits.astype(np.uint32) @ powers
        masks.append(mask)
    return PlacementMap("decentralized", cfg.K, masks)


def centralized_placement(cfg: SystemConfig) -> PlacementMap:
    """Split each file into C(K, b) equal runs, run r cached by the r-th
    b-subset of users in lexicographic order; requires equal cache sizes
    with b = M*K/N integer and every file size divisible by C(K, b)."""
    mem = set(cfg.mem)
    if len(mem) != 1:
        raise ValueError("centralized placement requires equal cache sizes")
    M = cfg.mem[0]
    b_real = M * cfg.K / cfg.N
    b = round(b_real)
    if abs(b_real - b) > 1e-9:
        raise ValueError(f"b = M*K/N = {b_real} is not an integer")
    nsub = comb(cfg.K, b)
    subset_masks = [mask_of(c) for c in combinations(range(1, cfg.K + 1), b)]
    masks = []
    for F in cfg.file_sizes:
        if F % nsub:
            raise ValueError(f"file size {F} not divisible by C(K,b) = {nsub}")
        run = F // nsub
        arr = np.repeat(np.asarray(subset_masks, dtype=np.uint32), run)
        masks.append(arr)
    return PlacementMap("centralized", cfg.K, masks, b=b)


def unknown_fraction(pm: PlacementMap, file: int, users) -> float:
    """Fraction of the file's packets cached by nobody in `users`."""
    m = mask_of(users)
    arr = pm.cache_masks[file - 1]
    if len(arr) == 0:
        return 0.0
    return float(np.count_nonzero(arr & m == 0)) / len(arr)
