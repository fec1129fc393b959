"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

MODULES = ["evoarch"] + [f"evoarch.{m}" for m in tracer_mod.MODULES]


def _bindings():
    """Every module-level and class-level binding in the evoarch package."""
    out = {}
    for mod in [importlib.import_module(name) for name in MODULES]:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_patched_name_is_restored():
    before = _bindings()
    t = tracer_mod.Tracer(nproc=2)
    t.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # each traced function is replaced wherever it is bound, including
        # the copies engine, selection, mutation and trainer import
        assert ("evoarch.engine", "rank") in changed
        assert ("evoarch.trainer", "topological_order") in changed
        assert ("evoarch.fitness", "train") in changed
        assert ("evoarch.fitness", "TrainedEvaluator", "evaluate") in changed
        assert len(changed) >= len(tracer_mod.TRACED)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def _traced_counts(tmp_path):
    wl = workloads.SearchKsweep(3, str(tmp_path))
    wl.generations = 6
    t = tracer_mod.Tracer(nproc=2)
    t.install()
    try:
        wl.setup()
        wl.op(0)
        workloads.layer_probe(str(tmp_path))
    finally:
        t.uninstall()
    return {k: v for k, v in t.layer_metrics().items() if not k.endswith(("self_s", "cpu_util"))}


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    assert first["genome.topological_order.calls"] > 0
    assert first["mutation.attempts"] > 0
    assert first["trainer.iterations"] == 2  # the probe's one trained evaluation


def test_benchmark_json_is_within_contract():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_composite_keeps_each_part_s_operation_indices(tmp_path):
    wl = workloads.Search(0, str(tmp_path))
    kinds = [(part.name, j) for part, j in map(wl.member, range(2 * wl.op_group))]
    assert kinds == [("search-evolve", 0), ("search-evolve", 1), ("search-evolve", 2), ("search-ksweep", 0),
                     ("search-evolve", 3), ("search-evolve", 4), ("search-evolve", 5), ("search-ksweep", 1)]
    assert wl.op_count(50) % wl.op_group == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metric_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "search",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
