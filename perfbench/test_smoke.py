"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs one job of every kind; tampered results must count as
failures; the traced run's per-layer self times must fit in its wall time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def generated():
    """Jobs of every workload, from one fresh import of the package."""
    mods = run.import_package()
    return mods, {name: make(run.random.Random(SEED), run.SimpleNamespace(**mods)) for name, make in W.WORKLOADS.items()}


def one_per_kind(jobs, where=lambda job: True):
    picked = {}
    for job in jobs:
        if job.kind not in picked and where(job):
            picked[job.kind] = job
    return list(picked.values())


def tampered(job, change):
    return dataclasses.replace(job, run=lambda timed: change(job.run(timed)))


def cheap(job):
    # keeps the tiny runs tiny: no 1e-4-step trajectories
    return job.kind != "trajectory" or "step=0.001 " in job.label


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_each_workload_runs_tiny(generated, workload):
    mods, jobs = generated
    subset = one_per_kind(jobs[workload], lambda j: j.kind != "eval_high_k" and cheap(j))
    result = run.run_pass(subset)
    assert result.failures == []
    assert len(result.spent) == len(subset) and all(t > 0 for t in result.spent)


def test_known_overflow_counts_as_failed_not_wrong(generated):
    _, jobs = generated
    high = [j for j in jobs["grid_eval"] if j.kind == "eval_high_k" and int(j.label.split("K=")[1].split()[0]) >= 90]
    result = run.run_pass(high[:1])
    assert len(result.failures) == 1 and result.wrong == 0
    assert "OverflowError" in result.failures[0][2]


def test_perturbed_phi_entry_is_wrong(generated):
    mods, jobs = generated
    job = next(j for j in jobs["exact_pipeline"] if j.kind == "phi_reduced")

    def perturb(table):
        entries = list(table.entries)
        entries[2] = entries[2] + mods["grpoly"].GradedPoly.const(entries[2].family, entries[2].nvars, 1)
        return dataclasses.replace(table, entries=tuple(entries))

    assert run.run_pass([job]).wrong == 0
    result = run.run_pass([tampered(job, perturb)])
    assert result.wrong == 1 and result.failures[0][2].startswith("wrong:")


def alter_csv(text: str, row: int, column: int, factor: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_csv_value_past_tolerance_is_wrong(generated):
    _, jobs = generated
    job = next(j for j in jobs["grid_eval"] if j.kind == "eval" and j.label.startswith(("n=0", "n=1")))

    def alter(res):
        return dataclasses.replace(res, out=alter_csv(res.out, 3, 2, 1 + 1e-6))

    result = run.run_pass([tampered(job, alter)])
    assert result.wrong == 1


def test_trajectory_end_state_past_tolerance_is_wrong(generated):
    _, jobs = generated
    job = next(j for j in jobs["trajectory"] if "step=0.001" in j.label)

    def alter(out):
        header, rows, values = out
        last = list(rows[-1])
        last[1] *= 1 + 1e-6
        return header, rows[:-1] + [tuple(last)], values

    assert run.run_pass([job]).wrong == 0
    assert run.run_pass([tampered(job, alter)]).wrong == 1


def test_nonzero_exit_counts_as_failed_not_wrong(generated):
    mods, _ = generated
    job = W.Job("eval", "pole inside the grid", lambda timed: W.run_cli(timed, run.SimpleNamespace(**mods), [
        "eval", "--family", "nansatz", "--poles", "1:1", "--t0", "0", "--t1", "2", "--tnum", "3"]), lambda out: None)
    result = run.run_pass([job])
    assert result.wrong == 0 and result.failures[0][2].startswith("exit:")


def test_times_scale_with_the_nearest_reference_slices():
    # the host runs at half speed for the last four jobs: their scaled times halve
    res = run.PassResult(spent=[0.01] * 8, reference=[run.REFERENCE_S] * 4 + [2 * run.REFERENCE_S] * 4)
    assert res.scaled[:2] == [0.01, 0.01] and res.scaled[-2:] == [0.005, 0.005]


def test_traced_self_times_fit_in_wall():
    def prepare():
        seconds, mods, jobs = run.setup("grid_eval", SEED)
        return seconds, mods, one_per_kind(jobs, cheap)

    got = run.measure(argparse.Namespace(seconds=1, trace=1), prepare)
    assert got.tracer._restore == [] and len(got.traced) >= 1 and len(got.plain) >= 1
    assert len(got.setup_times) == run.SETUP_REPEATS + len(got.plain) + len(got.traced) - 1
    for snap, res in zip(got.snapshots, got.traced):
        assert 0 < sum(snap["_layers"].values()) <= res.wall
        assert snap["grpoly.build.calls"] > 0 and snap["solution.eval.points"] > 0 and snap["cli.bytes_out"] > 0


def test_result_line_has_the_declared_metrics(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "exact_pipeline", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert [u["unit"] for u in last["metrics"].values()] == [m["unit"] for m in spec["per_layer"]]
    assert [name for name, _ in run.END_TO_END] == [m["name"] for m in spec["end_to_end"]]
