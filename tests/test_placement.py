import math

import numpy as np
import pytest

from ebcache import placement
from ebcache.model import SystemConfig
from ebcache.placement import (centralized_placement, decentralized_placement,
                               unknown_fraction)


def cfg_of(delta, p, N=None, F=100):
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p), file_sizes=(F,) * N)


def test_no_memory_caches_nothing():
    cfg = cfg_of((.2, .2, .2), (0, 0, 0))
    pm = decentralized_placement(cfg, 0)
    assert all((m == 0).all() for m in pm.cache_masks)


def test_full_memory_caches_everything():
    cfg = cfg_of((.2, .2, .2), (1, 1, 1))
    pm = decentralized_placement(cfg, 0)
    assert all((m == 0b111).all() for m in pm.cache_masks)


def test_same_seed_same_placement():
    cfg = cfg_of((.2,) * 3, (.5,) * 3)
    a = decentralized_placement(cfg, 42)
    b = decentralized_placement(cfg, 42)
    assert all(np.array_equal(x, y) for x, y in zip(a.cache_masks, b.cache_masks))


def test_subfile_fractions_concentrate():
    # per-subset counts within 3 standard errors of the product form
    F = 100_000
    p = (0.2, 0.5, 0.7)
    cfg = cfg_of((.1,) * 3, p, F=F)
    pm = decentralized_placement(cfg, 7)
    counts = pm.subset_counts(1)
    for mask in range(8):
        q = math.prod(p[i] if mask >> i & 1 else 1 - p[i] for i in range(3))
        se = math.sqrt(F * q * (1 - q))
        assert abs(counts[mask] - F * q) <= 3 * se + 1


def test_realized_cache_size_tracks_memory_constraint():
    F = 50_000
    cfg = cfg_of((.1, .1), (0.3, 0.8), F=F)
    pm = decentralized_placement(cfg, 3)
    for k, pk in enumerate(cfg.p, start=1):
        target = pk * F * cfg.N
        se = math.sqrt(cfg.N * F * pk * (1 - pk))
        assert abs(pm.realized_cache_size(k) - target) <= 4 * se


def test_partition_every_packet_has_one_subset():
    cfg = cfg_of((.1,) * 3, (.5,) * 3, F=1000)
    pm = decentralized_placement(cfg, 1)
    assert int(pm.subset_counts(2).sum()) == 1000
    assert all(0 <= int(m) < 8 for m in pm.cache_masks[0][:50])


def test_centralized_single_subset_runs():
    cfg = cfg_of((.5,) * 3, (1 / 3,) * 3, F=3)
    pm = centralized_placement(cfg)
    assert pm.b == 1
    assert pm.cached_by(1, 0) == (1,)
    assert pm.cached_by(1, 1) == (2,)
    assert pm.cached_by(1, 2) == (3,)
    # |Z_k| = M*F per user, exactly
    for k in range(1, 4):
        assert pm.realized_cache_size(k) == cfg.mem[0] * 3


def test_centralized_edges():
    cfg = cfg_of((.5,) * 3, (0,) * 3, F=4)
    assert all((m == 0).all() for m in centralized_placement(cfg).cache_masks)
    cfg = cfg_of((.5, .5), (1, 1), F=4)
    assert all((m == 0b11).all() for m in centralized_placement(cfg).cache_masks)


def test_centralized_rejects_bad_parameters():
    with pytest.raises(ValueError, match="integer"):
        centralized_placement(cfg_of((.5,) * 3, (0.5,) * 3, F=6))
    with pytest.raises(ValueError, match="divisible"):
        centralized_placement(cfg_of((.5,) * 3, (1 / 3,) * 3, F=4))
    with pytest.raises(ValueError, match="equal"):
        centralized_placement(SystemConfig(K=2, N=2, delta=(.5, .5),
                                           mem=(1, 2), file_sizes=(4, 4)))


def test_placement_blocks_change_no_mask(monkeypatch):
    # drawing a file's doubles in blocks of rows gives the masks of one
    # draw per file, the empty file and a block that ends a file included
    cfg = SystemConfig(K=4, N=4, delta=(.5,) * 4, mem=(1, 2, .5, 3),
                       file_sizes=(0, 1, 37, 8))
    rng = np.random.default_rng(8)
    one_shot = [(rng.random((F, 4)) < np.asarray(cfg.p)) @ (1 << np.arange(4))
                for F in cfg.file_sizes]
    monkeypatch.setattr(placement, "PLACEMENT_BLOCK", 4)
    pm = decentralized_placement(cfg, 8)
    assert [m.dtype for m in pm.cache_masks] == [np.uint32] * 4
    assert all(map(np.array_equal, pm.cache_masks, one_shot))


def test_unknown_fraction_of_an_empty_file_is_zero():
    cfg = SystemConfig(K=2, N=2, delta=(.5, .5), mem=(1, 1), file_sizes=(0, 3))
    pm = decentralized_placement(cfg, 0)
    assert unknown_fraction(pm, 1, [1, 2]) == 0.0


def test_unknown_fraction_centralized_exact():
    cfg = cfg_of((.5,) * 3, (1 / 3,) * 3, F=9)
    pm = centralized_placement(cfg)
    assert unknown_fraction(pm, 1, [1, 2]) == pytest.approx(1 / 3, abs=0)


def test_unknown_fraction_empty_users_is_one():
    cfg = cfg_of((.5,) * 2, (.5, .5), F=1000)
    pm = decentralized_placement(cfg, 5)
    assert unknown_fraction(pm, 1, []) == 1.0


def test_unknown_fraction_decentralized_concentrates():
    F = 100_000
    cfg = cfg_of((.5, .5), (1 / 3, 2 / 3), F=F)
    pm = decentralized_placement(cfg, 11)
    q = (1 - 1 / 3) * (1 - 2 / 3)
    se = math.sqrt(q * (1 - q) / F)
    assert abs(unknown_fraction(pm, 1, [1, 2]) - q) <= 3 * se


def test_placement_json_shape():
    cfg = cfg_of((.5,) * 2, (.5, .5), F=4)
    pm = decentralized_placement(cfg, 1)
    doc = pm.to_json()
    assert doc["scheme"] == "decentralized"
    assert len(doc["files"]) == 2 and len(doc["files"][0]) == 4
    assert all(isinstance(s, list) for s in doc["files"][0])
