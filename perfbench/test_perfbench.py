"""Self-checks of the benchmark: determinism, tracing and its contract.

Run with: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert (workloads.pass_ops(name, 7, 3)
                == workloads.pass_ops(name, 7, 3))
        assert (workloads.pass_ops(name, 7, 3)
                != workloads.pass_ops(name, 8, 3))
        assert (workloads.pass_ops(name, 7, 3)
                != workloads.pass_ops(name, 7, 4))


def test_benchmark_json_names_what_the_runner_emits():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == run.per_layer_units())
    pinned = _load(run.PINNED)
    for name in workloads.WORKLOADS:
        assert len(pinned[name]) == workloads.GROUPS
        for group, hashes in enumerate(pinned[name]):
            assert len(hashes) == len(
                workloads.pass_ops(name, workloads.DEFAULT_SEED, group))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    tail = run.tail_latency(list(range(30, 0, -1)))
    assert (tail["value"], tail["beyond"], tail["samples"]) == (20, 10, 30)
    assert run.tail_latency([4.0, 3.0, 1.0, 2.0])["value"] == 3.0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_two_traced_passes_agree(workload):
    """Counts and report bytes of two traced passes on one seed are equal,
    match an untraced pass and the pinned hashes, and show that the tracer
    reached functions through the names other modules imported."""
    seed = workloads.DEFAULT_SEED
    first = run.spawn(workload, seed, 0, "traced", 300)
    second = run.spawn(workload, seed, 0, "traced", 300)
    plain = run.spawn(workload, seed, 0, "plain", 300)
    assert first["calls"] == second["calls"]
    assert first["counters"] == second["counters"]
    hashes = [op["sha256"] for op in first["ops"]]
    assert hashes == [op["sha256"] for op in second["ops"]]
    assert hashes == [op["sha256"] for op in plain["ops"]]
    assert hashes == _load(run.PINNED)[workload][0]
    assert all(op["ok"] for op in first["ops"])
    n_ops = len(first["ops"])
    # cli dispatches through its _COMMANDS dict and its own dump_json name
    assert first["calls"]["cli.command"] == n_ops
    assert first["calls"]["cli.render"] == n_ops
    # the constructors reach echelon_rows and catalecticant through the
    # names `algebra` imported
    if workload == "theorem_c":
        assert first["calls"]["exactla.echelon_q"] > 0
        assert first["counters"]["gnlab.trial.attempted"] == 2 * n_ops
    elif workload == "ci6_fp":
        assert first["calls"]["exactla.echelon_fp"] > 0
    else:
        assert first["calls"]["apolarity.catalecticant"] > 0


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "perazzo_queries", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
