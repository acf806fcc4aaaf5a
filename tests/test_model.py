import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache.model import (MAX_FILE_PACKETS, MAX_K, ConfigError, Demand,
                           RateVector, SystemConfig, config_from_dict,
                           is_one_sided_fair, load_config, mask_of,
                           subsets_ascending, users_of, validate_demand)


def cfg_of(delta, p, N=None, sizes=None):
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p),
                        file_sizes=tuple(sizes) if sizes else (100,) * N)


def test_validate_accepts_reference_config():
    cfg = SystemConfig(K=3, N=3, delta=(.25, .25, .25), mem=(1, 1, 1),
                       file_sizes=(100, 100, 100))
    assert (cfg.K, cfg.mem, cfg.file_sizes) == (3, (1.0,) * 3, (100,) * 3)


def test_validate_names_bad_delta_entry():
    with pytest.raises(ConfigError, match=r"delta\[2\]"):
        SystemConfig(K=3, N=3, delta=(.25, 1.0, .25), mem=(1, 1, 1),
                     file_sizes=(100, 100, 100))


def test_validate_names_bad_mem_entry():
    with pytest.raises(ConfigError, match=r"mem\[1\]"):
        SystemConfig(K=3, N=3, delta=(.25,) * 3, mem=(4, 1, 1),
                     file_sizes=(100,) * 3)


def test_validate_rejects_n_below_k_and_bad_field_order():
    with pytest.raises(ConfigError, match=r"\bN\b.*field_order"):
        SystemConfig(K=3, N=2, delta=(.25,) * 3, mem=(1,) * 3,
                     file_sizes=(10, 10), field_order=100)


def test_validate_accepts_only_supported_field_orders():
    for q, ok in ((2, True), (256, True), (16, False), (4, False)):
        try:
            SystemConfig(K=2, N=2, delta=(.25,) * 2, mem=(1,) * 2,
                         file_sizes=(10, 10), field_order=q)
        except ConfigError as exc:
            assert not ok and "field_order" in str(exc)
        else:
            assert ok


def test_demand_validation():
    cfg = cfg_of((.2, .2), (0, 0))
    validate_demand(cfg, Demand.identity(2))
    with pytest.raises(ConfigError, match="non-distinct"):
        validate_demand(cfg, Demand((1, 1)))


def test_config_json_round_trip(tmp_path):
    doc = {"K": 2, "N": 2, "delta": [0.25, 0.5], "mem": [2 / 3, 4 / 3],
           "file_sizes": [1, 1]}
    cfg = config_from_dict(doc)
    assert cfg.field_order == 256
    assert cfg.p == (1 / 3, 2 / 3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(str(path)) == cfg


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"K": 1, "N": 1, "delta": [0], "mem": [0],
                          "file_sizes": [1], "extra": 1})
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict({"K": 1})
    with pytest.raises(ConfigError, match="invalid"):
        config_from_dict({"K": 1, "N": 1, "delta": [1.0], "mem": [0],
                          "file_sizes": [1]})


@pytest.mark.parametrize("key, value, name", [
    ("K", 2.9, "K"),
    ("N", 2.5, "N"),
    ("field_order", 2.5, "field_order"),
    ("file_sizes", [10.7, 20.2], "file_sizes[1]"),
    ("file_sizes", [10, 20.2], "file_sizes[2]"),
    ("file_sizes", [10, float("inf")], "file_sizes[2]"),
    ("K", True, "K"),
])
def test_config_rejects_counts_that_are_not_whole_numbers(key, value, name):
    doc = {"K": 2, "N": 2, "delta": [0.2, 0.2], "mem": [0, 0],
           "file_sizes": [10, 20], key: value}
    with pytest.raises(ConfigError, match=re.escape(name) + " must be a whole number"):
        config_from_dict(doc)


def test_config_accepts_whole_floats():
    cfg = config_from_dict({"K": 2.0, "N": 2, "delta": [0.2, 0.2],
                            "mem": [0, 0], "file_sizes": [10.0, 20],
                            "field_order": 2.0})
    assert (cfg.K, cfg.file_sizes, cfg.field_order) == (2, (10, 20), 2)
    assert all(type(v) is int for v in (cfg.K, *cfg.file_sizes,
                                        cfg.field_order))


def _sys_cfg(**kw):
    args = dict(K=2, N=2, delta=(0.2, 0.2), mem=(0, 0), file_sizes=(10, 20))
    return SystemConfig(**{**args, **kw})


@pytest.mark.parametrize("kw, match", [
    ({"file_sizes": (2.9, 3)}, "file_sizes[1] must be a whole number"),
    ({"file_sizes": (10, True)}, "file_sizes must be a list of numbers"),
    ({"delta": (0.2, "0.3")}, "delta must be a list of numbers"),
    ({"mem": (False, 0)}, "mem must be a list of numbers"),
    ({"K": "2"}, "K must be a whole number"),
    ({"N": True}, "N must be a whole number"),
    ({"field_order": 2.5}, "field_order must be a whole number"),
    ({"K": MAX_K + 1, "N": MAX_K + 1, "delta": (0.2,) * (MAX_K + 1),
      "mem": (0,) * (MAX_K + 1), "file_sizes": (1,) * (MAX_K + 1)},
     "invalid config: K"),
    ({"file_sizes": (10, MAX_FILE_PACKETS + 1)}, "file_sizes[2]"),
    ({"file_sizes": (10, 1e30)}, "file_sizes[2]"),
    ({"delta": (float("nan"), 0.2)}, "delta[1]"),
])
def test_construction_rejects_each_bad_field(kw, match):
    with pytest.raises(ConfigError, match=re.escape(match)):
        _sys_cfg(**kw)


def test_construction_names_every_violation_at_once():
    with pytest.raises(ConfigError) as exc:
        _sys_cfg(N=2.5, delta=(0.2, 1.0), mem=(-1, 0), field_order=16)
    assert str(exc.value) == ("invalid config: N must be a whole number, "
                              "got 2.5, delta[2], field_order")


def test_construction_accepts_numpy_scalars_and_the_bounds():
    import numpy as np
    cfg = _sys_cfg(K=np.int64(2), delta=np.array([0.0, 0.5]),
                   mem=(np.float32(2), 0), file_sizes=(0, MAX_FILE_PACKETS),
                   field_order=np.float64(2))
    assert (cfg.K, cfg.delta, cfg.mem, cfg.file_sizes, cfg.field_order) == (
        2, (0.0, 0.5), (2.0, 0.0), (0, MAX_FILE_PACKETS), 2)
    assert all(type(v) is int for v in (cfg.K, *cfg.file_sizes,
                                        cfg.field_order))
    assert all(type(v) is float for v in (*cfg.delta, *cfg.mem))


def test_subsets_ascending_order():
    got = [users_of(m) for m in subsets_ascending(3)]
    assert got == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert users_of(mask_of([2, 4])) == (2, 4)


def test_one_sided_fair_reference_cases():
    # equal caches and rates, delta sorted descending
    cfg = cfg_of((1 / 2, 1 / 4), (1 / 2, 1 / 2))
    assert is_one_sided_fair(cfg, RateVector((1, 1)))
    # ratio condition fails although the delta chain holds
    cfg = cfg_of((1 / 4, 1 / 2), (1 / 3, 2 / 3))
    assert not is_one_sided_fair(cfg, RateVector((1, 1)))
    # all-zero cache fractions reduce to the delta*R chain
    cfg = cfg_of((.5, .5), (0, 0))
    assert is_one_sided_fair(cfg, RateVector((3, 3)))


def test_one_sided_fair_mixed_zero_cache_is_an_error():
    cfg = cfg_of((.5, .4), (0, .5))
    with pytest.raises(ValueError, match="mixed"):
        is_one_sided_fair(cfg, RateVector((1, 1)))


def test_one_sided_fair_wrong_length():
    with pytest.raises(ValueError):
        is_one_sided_fair(cfg_of((.5, .4), (.1, .1)), RateVector((1,)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000))
def test_one_sided_fair_invariant_under_relabeling(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 5))
    d = rng.uniform(0, 0.95, K)
    p = rng.uniform(0.05, 0.95, K)
    r = rng.uniform(0.1, 2.0, K)
    cfg = cfg_of(d, p)
    base = is_one_sided_fair(cfg, RateVector(tuple(r)))
    perm = rng.permutation(K)
    cfg2 = cfg_of(d[perm], p[perm])
    assert is_one_sided_fair(cfg2, RateVector(tuple(r[perm]))) == base


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 0.999), min_size=1, max_size=6),
       st.data())
def test_subset_product_never_grows_with_more_factors(deltas, data):
    sub = data.draw(st.lists(st.sampled_from(range(len(deltas))),
                             unique=True, max_size=len(deltas)))
    prod_all = math.prod(deltas)
    prod_sub = math.prod(deltas[i] for i in sub)
    assert prod_sub >= prod_all - 1e-15
