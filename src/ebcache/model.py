"""Core domain types: system configuration, demands, rate vectors and the
one-sided fairness predicate.

Users are 1-based in every public interface and serialized form; internal
code works with 0-based indices and bitmasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

CONFIG_KEYS = {"K", "N", "delta", "mem", "file_sizes", "field_order"}
SUPPORTED_FIELD_ORDERS = (2, 256)


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


@dataclass(frozen=True)
class SystemConfig:
    """Erasure broadcast setup: K users, N files, per-user erasure
    probabilities and cache sizes (in files), per-file packet counts."""

    K: int
    N: int
    delta: tuple[float, ...]
    mem: tuple[float, ...]
    file_sizes: tuple[int, ...]
    field_order: int = 256

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        object.__setattr__(self, "mem", tuple(float(m) for m in self.mem))
        object.__setattr__(self, "file_sizes", tuple(int(f) for f in self.file_sizes))

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
    (1-based) of user k."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(d) for d in self.assignment))

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


@dataclass
class ValidationResult:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_config(cfg: SystemConfig) -> ValidationResult:
    """Check every structural constraint; violations name the offending
    field with a 1-based index."""
    v: list[str] = []
    if not isinstance(cfg.K, int) or cfg.K < 1:
        v.append("K")
    if not isinstance(cfg.N, int) or cfg.N < max(cfg.K, 1):
        v.append("N")
    if len(cfg.delta) != cfg.K:
        v.append("delta")
    else:
        for i, d in enumerate(cfg.delta):
            if not (0.0 <= d < 1.0):
                v.append(f"delta[{i + 1}]")
    if len(cfg.mem) != cfg.K:
        v.append("mem")
    else:
        for i, m in enumerate(cfg.mem):
            if not (0.0 <= m <= cfg.N):
                v.append(f"mem[{i + 1}]")
    if len(cfg.file_sizes) != cfg.N:
        v.append("file_sizes")
    else:
        for i, f in enumerate(cfg.file_sizes):
            if not isinstance(f, int) or f < 0:
                v.append(f"file_sizes[{i + 1}]")
    q = cfg.field_order
    if not isinstance(q, int) or q not in SUPPORTED_FIELD_ORDERS:
        v.append("field_order")
    return ValidationResult(not v, v)


def validate_demand(cfg: SystemConfig, demand: Demand) -> ValidationResult:
    v = []
    if len(demand.assignment) != cfg.K:
        v.append("demand")
    else:
        if len(set(demand.assignment)) != cfg.K:
            v.append("demand (non-distinct)")
        for i, d in enumerate(demand.assignment):
            if not (1 <= d <= cfg.N):
                v.append(f"demand[{i + 1}]")
    return ValidationResult(not v, v)


class ConfigError(ValueError):
    pass


def _whole(value, name: str) -> int:
    """`value` as an int, or ConfigError naming the field unless it is a
    whole number (an int, or a float with no fractional part)."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"invalid config: {name} must be a whole number, "
                          f"got {value!r}")
    return int(value)


def _numbers(value, name: str) -> list:
    """`value`, or ConfigError naming the field unless it is a JSON list
    of numbers (a bool or a string is not a number)."""
    if not isinstance(value, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in value):
        raise ConfigError(f"invalid config: {name} must be a list of "
                          f"numbers, got {value!r}")
    return value


def config_from_dict(doc: dict) -> SystemConfig:
    """Build and validate a SystemConfig from a parsed JSON document.

    Unknown keys are rejected so typos never pass silently, and so are
    counts that are not whole numbers, which would otherwise be truncated,
    and lists that hold anything but numbers.
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
    cfg = SystemConfig(
        K=_whole(doc["K"], "K"),
        N=_whole(doc["N"], "N"),
        delta=tuple(_numbers(doc["delta"], "delta")),
        mem=tuple(_numbers(doc["mem"], "mem")),
        file_sizes=tuple(_whole(f, f"file_sizes[{i + 1}]") for i, f in
                         enumerate(_numbers(doc["file_sizes"], "file_sizes"))),
        field_order=_whole(doc.get("field_order", 256), "field_order"),
    )
    res = validate_config(cfg)
    if not res.ok:
        raise ConfigError(f"invalid config: {', '.join(res.violations)}")
    return cfg


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
