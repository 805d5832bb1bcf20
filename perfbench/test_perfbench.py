"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sql_dashboard", "mixed_live")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seed", "3", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_run_py_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    completed = bench("--workload", workload, "--trace", trace)
    result = result_of(completed)
    assert result["correct"], completed.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        line = [ln for ln in completed.stdout.splitlines()
                if ln.split()[:1] == [metric["name"]]]
        assert line and line[0].split()[-1] == metric["unit"]
    assert "sanitizers=off" in completed.stdout
    assert "materialize=True" in completed.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_result_fails_the_output_check(workload):
    result = result_of(bench("--workload", workload, "--trace", "0",
                             "--expect-wrong"))
    assert not result["correct"]
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_virtual_outputs_match(workload):
    fingerprints = []
    for trace in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1",
             "--size", "tiny", "--trace", trace, "--started", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        fingerprints.append(
            json.loads(completed.stdout.splitlines()[-1])["fingerprint"])
    assert fingerprints[0] == fingerprints[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "mixed_live", "--trace", "0",
                      cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
