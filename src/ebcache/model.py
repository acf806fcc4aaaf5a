"""Core domain types: system configuration, demands, rate vectors and the
one-sided fairness predicate.

Users are 1-based in every public interface and serialized form; internal
code works with 0-based indices and bitmasks.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from numbers import Integral, Real
from typing import Sequence

CONFIG_KEYS = {"K", "N", "delta", "mem", "file_sizes", "field_order"}
SUPPORTED_FIELD_ORDERS = (2, 256)
# Upper bounds, so every accepted config runs to completion in bounded
# time and memory.  `ebcache plan` (2-vCPU x86-64 host, Python 3.11,
# numpy 2.4) took 0.7, 1.4 and 3.1 s at K = 14, 15 and 16, with peak RSS
# 122, 222 and 432 MB, most of both in writing its 2^K - 1 sub-phases as
# JSON; time and memory double per user.
# `simulate --length-only` at K = N = 16 (delta 0.5, mem 8) peaked at
# 174, 255 and 413 MB RSS for files of 250k, 500k and 1M packets (4-6 s
# at 500k).  The largest size in use elsewhere is 100k packets.
MAX_K = 16
MAX_FILE_PACKETS = 500_000


def mask_of(users: Iterable[int]) -> int:
    """Bitmask of a 1-based user collection."""
    m = 0
    for u in users:
        m |= 1 << (u - 1)
    return m


@lru_cache(maxsize=None)
def users_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based users of a bitmask."""
    out = []
    u = 1
    while mask:
        if mask & 1:
            out.append(u)
        mask >>= 1
        u += 1
    return tuple(out)


@lru_cache(maxsize=None)
def subsets_ascending(K: int) -> tuple[int, ...]:
    """All nonempty subsets of [K] as masks, by (cardinality, lexicographic
    member order) — the global sub-phase processing order."""
    return tuple(sorted(range(1, 1 << K),
                        key=lambda m: (bin(m).count("1"), users_of(m))))


class ConfigError(ValueError):
    pass


def _is_number(x) -> bool:
    """A real number: bool and str are not, numpy scalars are."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _count(x, name: str, bad: list[str], lo: int, hi: float) -> int | None:
    """`x` as an int in [lo, hi], or None with a violation appended.  A
    float must be whole; nothing is truncated."""
    if not (type(x) is int or _is_number(x) and (
            isinstance(x, Integral) or float(x).is_integer())):
        bad.append(f"{name} must be a whole number, got {x!r}")
        return None
    x = int(x)
    if lo <= x <= hi:
        return x
    bad.append(name)
    return None


def _reals(xs, name: str, bad: list[str], length: int | None
           ) -> tuple | None:
    """`xs` as a tuple of `length` numbers, or None with a violation
    appended (no length check while the length is itself invalid)."""
    try:
        items = tuple(xs)
    except TypeError:       # not iterable
        items = None
    # plain ints and floats skip the slower abstract-type check, which
    # optimize_memory would pay on every one of its candidate configs
    if items is None or not (set(map(type, items)) <= {int, float}
                             or all(map(_is_number, items))):
        bad.append(f"{name} must be a list of numbers, got {xs!r}")
        return None
    if length is None:
        return None
    if len(items) != length:
        bad.append(f"{name} must have {length} entries, got {len(items)}")
        return None
    return items


@dataclass(frozen=True)
class SystemConfig:
    """Erasure broadcast setup: K users, N files, per-user erasure
    probabilities and cache sizes (in files), per-file packet counts.

    Construction is the one place a configuration is checked: every
    field's type, length and range, with every violation named in one
    ConfigError.  Counts become ints and probabilities and cache sizes
    floats.
    """

    K: int
    N: int
    delta: tuple[float, ...]
    mem: tuple[float, ...]
    file_sizes: tuple[int, ...]
    field_order: int = 256

    def __post_init__(self):
        bad: list[str] = []
        K = _count(self.K, "K", bad, 1, MAX_K)
        N = _count(self.N, "N", bad, K or 1, inf)
        delta = _reals(self.delta, "delta", bad, K)
        if delta is not None:
            bad += [f"delta[{i}]" for i, d in enumerate(delta, 1)
                    if not 0 <= d < 1]
        mem = _reals(self.mem, "mem", bad, K)
        if mem is not None and N is not None:
            bad += [f"mem[{i}]" for i, m in enumerate(mem, 1)
                    if not 0 <= m <= N]
        sizes = _reals(self.file_sizes, "file_sizes", bad, N)
        # only entries that are not already ints in range need a look
        if sizes and not (set(map(type, sizes)) == {int} and 0 <= min(sizes)
                          and max(sizes) <= MAX_FILE_PACKETS):
            sizes = tuple(_count(f, f"file_sizes[{i}]", bad, 0,
                                 MAX_FILE_PACKETS)
                          for i, f in enumerate(sizes, 1))
        q = _count(self.field_order, "field_order", bad, 0, inf)
        if q is not None and q not in SUPPORTED_FIELD_ORDERS:
            bad.append("field_order")
        if bad:
            raise ConfigError(f"invalid config: {', '.join(bad)}")
        # frozen: write the checked values past __setattr__
        self.__dict__.update(K=K, N=N, delta=tuple(map(float, delta)),
                             mem=tuple(map(float, mem)), file_sizes=sizes,
                             field_order=q)

    @property
    def p(self) -> tuple[float, ...]:
        """Per-user caching probability M_k / N."""
        return tuple(m / self.N for m in self.mem)

    @property
    def mean_file_size(self) -> float:
        return sum(self.file_sizes) / self.N

    def with_mem(self, mem: Sequence[float]) -> "SystemConfig":
        return SystemConfig(self.K, self.N, self.delta, tuple(mem),
                            self.file_sizes, self.field_order)


@dataclass(frozen=True)
class Demand:
    """Distinct file request per user: assignment[k-1] = demanded file
    (1-based) of user k.  An entry must be a whole number; a fraction is
    refused, not truncated."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        bad: list[str] = []
        files = tuple(_count(d, f"demand[{i}]", bad, -inf, inf)
                      for i, d in enumerate(self.assignment, 1))
        if bad:
            raise ConfigError(f"invalid demand: {', '.join(bad)}")
        object.__setattr__(self, "assignment", files)

    @classmethod
    def identity(cls, K: int) -> "Demand":
        return cls(tuple(range(1, K + 1)))

    def file_of(self, user: int) -> int:
        return self.assignment[user - 1]


@dataclass(frozen=True)
class RateVector:
    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))


def validate_demand(cfg: SystemConfig, demand: Demand) -> None:
    """ConfigError naming each bad entry unless the demand gives every
    user a distinct file in 1..N."""
    v = []
    if len(demand.assignment) != cfg.K:
        v.append("demand")
    else:
        if len(set(demand.assignment)) != cfg.K:
            v.append("demand (non-distinct)")
        for i, d in enumerate(demand.assignment):
            if not (1 <= d <= cfg.N):
                v.append(f"demand[{i + 1}]")
    if v:
        raise ConfigError(f"invalid demand: {', '.join(v)}")


def demand_for(cfg: SystemConfig, demand: Demand | None) -> Demand:
    """The given demand, checked by `validate_demand`, or user k
    requesting file k when none is given, which every config admits."""
    if demand is None:
        return Demand.identity(cfg.K)
    validate_demand(cfg, demand)
    return demand


def config_from_dict(doc: dict) -> SystemConfig:
    """Build a SystemConfig from a parsed JSON document, which it checks.

    Unknown keys are rejected so typos never pass silently.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"invalid config: expected a JSON object, got "
                          f"{type(doc).__name__}")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"K", "N", "delta", "mem", "file_sizes"} - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return SystemConfig(**doc)


def load_config(path: str) -> SystemConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


_REL_TOL = 1e-12


def _geq(a: float, b: float) -> bool:
    return a >= b - _REL_TOL * max(1.0, abs(b))


def is_one_sided_fair(cfg: SystemConfig, r: RateVector) -> bool:
    """Ordering condition coupling erasure rates, cache fractions and
    rates: whenever delta_k >= delta_j, both delta_k*R_k >= delta_j*R_j
    and ((1-p_k)/p_k)*R_k >= ((1-p_j)/p_j)*R_j must hold.

    With every p_k = 0 the ratio condition drops out.  A compared pair
    mixing a zero and a nonzero cache fraction leaves the ratio undefined
    and raises ValueError.  Ties delta_k = delta_j are checked both ways.
    """
    if len(r.rates) != cfg.K:
        raise ValueError("rate vector length != K")
    p = cfg.p
    d = cfg.delta
    for k in range(cfg.K):
        for j in range(cfg.K):
            if k == j or d[k] < d[j]:
                continue
            if not _geq(d[k] * r.rates[k], d[j] * r.rates[j]):
                return False
            if p[k] == 0.0 and p[j] == 0.0:
                continue
            if p[k] == 0.0 or p[j] == 0.0:
                raise ValueError(
                    "one-sided fairness undefined: mixed zero/nonzero cache "
                    f"fractions for users {k + 1} and {j + 1}")
            if not _geq((1 - p[k]) / p[k] * r.rates[k],
                        (1 - p[j]) / p[j] * r.rates[j]):
                return False
    return True
