"""Tests of the benchmark itself, on small sizes of every workload.

Run with ``python3 -m pytest bench/test_bench.py``.  They go through the
same code path as a benchmark run (``run.run_workload``), only with a
smaller ``size`` and a single invocation.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SMALL = {"discordancy_power": 2000, "sample_write": 2000,
         "density_numeric": 41, "validate_numeric": 2000}
SEED = 3
SPEC = run.load_spec()


def small(name, **changes):
    return dataclasses.replace(WORKLOADS[name], size=SMALL[name], **changes)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_pass_of_every_workload(name, capsys):
    result = run.run_workload(small(name), SEED, 0, trace=False)
    assert result["attempted"] == 1
    assert result["failed"] == 0, result["invocations"][0]["problems"]
    run.emit([result], SPEC, trace=False)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is True
    assert set(line["metrics"]) == {d["name"] for d in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def _unsort_sample(outdir):
    path = outdir / "simulate.csv"
    lines = path.read_text().splitlines()
    lines[-1], lines[-2] = lines[-2], lines[-1]
    path.write_text("\n".join(lines) + "\n")


def _drop_manifest(outdir):
    (outdir / "simulate.manifest.json").unlink()


@pytest.mark.parametrize("corrupt", [_unsort_sample, _drop_manifest])
def test_corrupted_output_counts_as_failure(corrupt, capsys):
    honest = WORKLOADS["sample_write"].check

    def check(outdir, size, seed, cache):
        corrupt(outdir)
        return honest(outdir, size, seed, cache)

    result = run.run_workload(small("sample_write", check=check), SEED, 0, trace=False)
    assert result["failed"] == 1
    assert result["metrics"]["fail_ratio"][0] == 1.0
    run.emit([result], SPEC, trace=False)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_are_exact_and_repeat(name):
    workload = small(name)
    runs = [run.run_workload(workload, SEED + i, 0, trace=True) for i in range(2)]
    counts = [{key: r["metrics"][key][0] for key in
               ("gamma.streams", "montecarlo.reps", "spacings.pdf_calls")} for r in runs]
    assert counts[0] == counts[1]
    reps = {"discordancy_power": 4 * workload.size, "sample_write": workload.size,
            "validate_numeric": workload.size}.get(name, 0)
    pdf_calls = {"density_numeric": workload.size, "validate_numeric": 2049}.get(name, 0)
    assert counts[0] == {"gamma.streams": reps, "montecarlo.reps": reps,
                         "spacings.pdf_calls": pdf_calls}
    for r in runs:
        assert r["failed"] == 0
        metrics = {key: value for key, (value, _) in r["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in
                     ("gamma", "stats", "montecarlo", "spacings", "gof"))
        total = layers + metrics["cli.write_s"] + metrics["cli.self_s"]
        assert total == pytest.approx(metrics["trace.command_s"], abs=1e-9)
        assert {d["name"] for d in SPEC["per_layer"]} <= set(metrics)


def test_verdict_rules():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2]
    assert run.verdict(parent, faster, "lower", 0.1, 0, 0) == "improved"
    assert run.verdict(parent, faster, "lower", 0.1, 0, 1) == "unresolved"
    assert run.verdict(parent[:5], faster[:5], "lower", 0.1, 0, 0) == "unresolved"
    assert run.verdict(parent, slower, "lower", 0.1, 0, 0) == "worse"
    assert run.verdict(parent, parent[::-1], "lower", 0.1, 0, 0) == "unchanged"
    assert run.verdict(noisy, noisy[::-1], "lower", 0.1, 0, 0) == "unresolved"
    assert run.verdict(parent, faster, "higher", 0.1, 0, 0) == "worse"


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample_write", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not list(Path(tmp_path).glob(".bench_runs/*"))
