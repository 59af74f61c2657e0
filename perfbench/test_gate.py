"""The benchmark's correctness gate can fail, and passes at this commit.

    python3 -m pytest -q perfbench/test_gate.py

Runs every workload for one pass, so it takes a couple of minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(*args, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, timeout=600)
    return proc, proc.stdout.splitlines()


@pytest.fixture
def scratch():
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as path:
        yield path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_inputs(workload, scratch):
    expected = oracle.load_expected()
    trees = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        path = os.path.join(scratch, name)
        os.mkdir(path)
        workloads.build(workload, seed, path, expected)
        files = {}
        for entry in sorted(os.listdir(path)):
            with open(os.path.join(path, entry), "rb") as handle:
                files[entry] = handle.read()
        trees.append(files)
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_passes_the_gate(workload):
    proc, lines = _run("--workload", workload, "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert any(line.startswith("failed_frac") and " 0.000000 " in line for line in lines)


def test_a_corrupted_answer_makes_failed_frac_nonzero(monkeypatch, capsys):
    expected = oracle.load_expected()
    doc = expected["catalog_polytope"]["V22"]
    doc[doc.index("degree: 22")] = "degree: 23"
    monkeypatch.setattr(oracle, "load_expected", lambda: expected)
    assert run.main(["--workload", "screen", "--seed", "1", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 18
    assert any(line.startswith("FAILED polytope-V22: line 3") for line in lines)
    assert any(line.startswith("failed_frac") and "(1 of 18 jobs)" in line for line in lines)
    assert json.loads(lines[-2])["record"]["failed_frac"] == 1 / 18


def test_a_flipped_exit_code_fails_the_check(scratch):
    jobs = workloads.build("verify", 1, scratch, oracle.load_expected())
    job = next(job for job in jobs if job.name == "verify-V22")
    _, _, _, code, text = run.spawn(["-m", "weaklg.cli", *job.argv], scratch)
    assert code == 3 and "first-mismatch: 1\n" in text and "coeff.1: 4 32/5 MISMATCH" in text
    assert job.check(text, code) is None
    assert job.check(text, 0) == "exit 0, expected 3"


def test_without_sources_it_fails_without_a_result(scratch):
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), scratch)
    proc, lines = _run("--workload", "verify", "--seed", "1", "--seconds", "1",
                       script=os.path.join(scratch, "perfbench", "run.py"))
    assert proc.returncode != 0
    assert lines == []
