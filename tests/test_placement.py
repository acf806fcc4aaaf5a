import math

import numpy as np
import pytest

from ebcache import analysis, delivery, fastsim, placement
from ebcache.model import ConfigError, Demand, SystemConfig
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


@pytest.mark.parametrize("K", [1, 2, 3, 7, 10, 16])
def test_decentralized_placement_is_its_definition(K):
    # a file of F packets takes the rows of random((F, K)) < p, files
    # drawn in order from one generator: files of one packet, across a
    # block of doubles and empty, cache probabilities 0 and 1 included,
    # and with `files`, only the first files
    block = placement.PLACEMENT_BLOCK // K
    sizes = (block, block + 1, 0, 1, 3 * block - 1, 17) + (2,) * (K - 6)
    N = len(sizes)
    mem = np.random.default_rng(K).uniform(0, N, K)
    mem[0], mem[-1] = 0, N
    cfg = SystemConfig(K=K, N=N, delta=(.5,) * K, mem=tuple(mem),
                       file_sizes=sizes)
    rng = np.random.default_rng(11)
    want = [(rng.random((F, K)) < np.asarray(cfg.p)) @ (1 << np.arange(K))
            for F in sizes]
    # user K caches everything, and user 1, if another, nothing
    assert all((w >> (K - 1) & 1).all() for w in want)
    assert K == 1 or all((w & 1 == 0).all() for w in want)
    for files in (None, 2, 4):
        pm = decentralized_placement(cfg, 11, files=files)
        assert [m.dtype for m in pm.cache_masks] == [np.uint32] * (
            files or N)
        assert all(map(np.array_equal, pm.cache_masks, want[:files]))


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


@pytest.mark.parametrize("other", [
    dict(K=3, N=3, delta=(0.3,) * 3, mem=(1.5,) * 3, file_sizes=(30,) * 3),
    dict(K=2, N=3, delta=(0.3,) * 2, mem=(1.5,) * 2, file_sizes=(30,) * 3),
    dict(K=2, N=2, delta=(0.3,) * 2, mem=(1.0,) * 2, file_sizes=(20, 20)),
    dict(K=2, N=2, delta=(0.3,) * 2, mem=(1.0,) * 2, file_sizes=(30, 31)),
], ids=["K", "files", "packets", "one-file"])
def test_a_placement_of_other_files_is_refused(other):
    # every consumer of a placement checks it against its config: a
    # placement of 20-packet files once made a 30-packet config simulate
    # 20 packets in length-only mode and fail with an IndexError in full
    cfg = SystemConfig(K=2, N=2, delta=(0.3,) * 2, mem=(1.0,) * 2,
                       file_sizes=(30, 30))
    pm = decentralized_placement(SystemConfig(**other), 1)
    for use in (fastsim.run_delivery_lengths, delivery.run_delivery,
                lambda c, p: analysis.phase_plan(c, placement=p)):
        with pytest.raises(ConfigError, match="placement does not fit"):
            use(cfg, pm)
    placement.validate_placement(cfg, decentralized_placement(cfg, 1))


def test_the_first_files_of_a_placement_are_drawn_alone():
    # files are drawn in order, so files 1..n come out the same without
    # the rest; the first crosses a PLACEMENT_BLOCK boundary
    cfg = SystemConfig(K=3, N=5, delta=(0.3,) * 3, mem=(1.0, 2.0, 4.0),
                       file_sizes=(placement.PLACEMENT_BLOCK + 7, 0, 5, 40, 9))
    whole = decentralized_placement(cfg, 8)
    for n in range(cfg.N + 1):
        part = decentralized_placement(cfg, 8, files=n)
        assert len(part.cache_masks) == n
        assert all(np.array_equal(a, b) for a, b in
                   zip(part.cache_masks, whole.cache_masks))
        placement.validate_placement(cfg, part, files=n)
        if n < cfg.N:
            with pytest.raises(ConfigError, match=f"{n} files"):
                placement.validate_placement(cfg, part)
            with pytest.raises(ConfigError, match=f"{n} files"):
                placement.validate_placement(cfg, part, files=n + 1)
    # a placement that stops after the demanded files gives their needs
    part = decentralized_placement(cfg, 8, files=3)
    assert np.array_equal(fastsim.initial_needs(cfg, part),
                          fastsim.initial_needs(cfg, whole))
    with pytest.raises(ConfigError, match="placement does not fit"):
        fastsim.initial_needs(cfg, part, Demand((1, 2, 5)))
    first = whole.cache_masks
    short = placement.PlacementMap("decentralized", 3,
                                   [first[0], first[1], first[2][1:]])
    with pytest.raises(ConfigError, match="file sizes"):
        fastsim.initial_needs(cfg, short)
