"""BENCHMARK.json keeps its fixed form and names the workloads run.py knows.

The printed metric names and units are read from BENCHMARK.json by
run.py; test_workloads checks that every workload prints each of them."""

import json
import re

from conftest import BENCH

ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    import workloads

    bench = load()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fixed_form():
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
