"""Fuzzed command line: small valid configs, most with one field or entry
replaced by a wild value, run through `cli.main` in process with
generated flags.
Every run must end with exit 0, 1 or 2, raise nothing past `main`, and
print an `error:` line when it exits 1."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache.cli import main

WILD = [True, False, "1", "0.3", None, [[1]], [0.5, [2]], 2.5, 0.5,
        float("nan"), 1e30, 40]
FIELDS = ["K", "N", "delta", "mem", "file_sizes", "field_order"]


@st.composite
def configs(draw):
    K = draw(st.integers(1, 4))
    N = draw(st.integers(K, K + 2))
    doc = {"K": K, "N": N,
           "delta": draw(st.lists(st.floats(0, 0.9), min_size=K, max_size=K)),
           "mem": draw(st.lists(st.floats(0, N), min_size=K, max_size=K)),
           "file_sizes": draw(st.lists(st.integers(0, 30), min_size=N,
                                       max_size=N))}
    if draw(st.booleans()):
        doc["field_order"] = draw(st.sampled_from([2, 256]))
    if draw(st.booleans()):
        return doc
    field = draw(st.sampled_from(FIELDS))
    wild = draw(st.sampled_from(WILD))
    if field in ("delta", "mem", "file_sizes") and draw(st.booleans()):
        doc[field][draw(st.integers(0, len(doc[field]) - 1))] = wild
    else:
        doc[field] = wild
    return doc


def _csv(draw, values, max_size=4):
    return ",".join(map(str, draw(st.lists(st.sampled_from(values),
                                           min_size=1, max_size=max_size))))


@st.composite
def flags(draw):
    verb = draw(st.sampled_from(["region", "feasible", "ttot", "plan",
                                 "simulate", "sweep", "optimize-mem"]))
    argv = [verb]
    if verb in ("ttot", "plan", "simulate", "sweep", "optimize-mem") \
            and draw(st.booleans()):
        argv += ["--F", str(draw(st.sampled_from([0, 5, 30, -1])))]
    if verb == "feasible":
        argv += ["--rates", _csv(draw, [0.1, 0.5, 2, "nan", "inf"])]
    if verb in ("ttot", "plan", "simulate") and draw(st.booleans()):
        argv += ["--demand", _csv(draw, [0, 1, 2, 3, 5])]
    if verb == "simulate":
        argv += ["--seed", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--start-phase", str(draw(st.integers(1, 3)))]
        argv += draw(st.sampled_from([[], ["--length-only"], ["--full"],
                                      [], ["--scheme", "centralized"]]))
    if verb == "sweep":
        argv += ["--vary", draw(st.sampled_from(["delta", "mem", "K"])),
                 "--grid", _csv(draw, [0, 0.5, 1, 2, 2.5, 40], 3),
                 "--trials", str(draw(st.integers(1, 2))), "--jobs", "1"]
        if "--F" not in argv:
            argv += ["--F", "20"]
    if verb == "optimize-mem":
        argv += ["--budget", str(draw(st.sampled_from([2, 0, 4, -1]))),
                 "--step", str(draw(st.sampled_from([1, 2, 0, "inf"])))]
    return argv


@settings(max_examples=300, deadline=None)
@given(doc=configs(), argv=flags())
def test_fuzzed_cli_exits_0_1_or_2(tmp_path_factory, doc, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([argv[0], "--config", str(path), *argv[1:]])
        except SystemExit as exc:       # usage errors exit through argparse
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert "error: " in err.getvalue()
