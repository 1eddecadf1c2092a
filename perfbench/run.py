#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the heatansatz package.

    python3 perfbench/run.py --workload exact_pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client runs a workload's jobs one
after another, each job starting when the previous one has finished; a
pass is one run over all jobs, and passes repeat until ``--seconds`` is
used up.  Every output is checked.  The package is imported afresh from
``src/`` of the same checkout, in this process, before every pass, so its
caches start cold each time.

Times are scaled to a reference host speed: after every job, and around
every set-up, the benchmark times one fixed slice of pure-Python work (see
``reference_seconds``), and each time is multiplied by
``REFERENCE_S / (median of the nearest slices)``.  The shared host's speed
drifts by tens of percent over seconds to minutes; the scaling takes that
drift out while a change in the program's own cost passes through in full.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see spans.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("grpoly", "operators", "ansatz", "dynsys", "solution", "verify", "cli")
SETUP_REPEATS = 9
REFERENCE_S = 0.002  # nominal time of one reference slice: times are reported at this host speed
SPEED_WINDOW = 2     # jobs on each side whose reference slices set a job's speed factor

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, NonZeroExit  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("grpoly.build.calls", "count"), ("grpoly.build.self_s", "s"), ("grpoly.terms_out", "count"),
    ("grpoly.max_coeff_bits", "bits"), ("grpoly.max_nvars", "count"),
    ("grpoly.evaluate.calls", "count"), ("grpoly.evaluate.self_s", "s"),
    ("operators.calls", "count"), ("operators.self_s", "s"),
    ("ansatz.calls", "count"), ("ansatz.self_s", "s"), ("ansatz.table_terms", "count"),
    ("dynsys.top.self_s", "s"), ("dynsys.jets.calls", "count"), ("dynsys.jets.self_s", "s"),
    ("dynsys.field.calls", "count"), ("dynsys.field.self_s", "s"),
    ("dynsys.rk4.steps", "count"), ("dynsys.rk4.self_s", "s"),
    ("solution.exact.calls", "count"), ("solution.exact.self_s", "s"), ("solution.image_terms", "count"),
    ("solution.eval.points", "count"), ("solution.eval.self_s", "s"),
    ("solution.fd.calls", "count"), ("solution.fd.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.overhead", "ratio"),
]


# -- host speed ------------------------------------------------------------------------


def _reference_work():
    # a fixed mix like the program's: rational and big-int arithmetic,
    # tuple-keyed dicts, float arithmetic and math calls
    acc, terms = Fraction(0), {}
    for i in range(1, 160):
        acc += Fraction(i, i * i + 1)
        terms[(i % 11, i % 7)] = acc * acc.denominator
    x = 0.0
    for i in range(3000):
        x = 0.999 * x + math.sin(1e-3 * i)
    return acc, x, len(terms)


def reference_seconds() -> float:
    """Seconds for one reference slice, with the cyclic collector held off
    so the program's leftover heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factors(samples: list) -> list:
    """REFERENCE_S over the median of the reference slices near each index."""
    return [REFERENCE_S / statistics.median(samples[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i in range(len(samples))]


# -- set-up ----------------------------------------------------------------------------


def import_package() -> dict:
    """Import heatansatz afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "heatansatz" or k.startswith("heatansatz.")]:
        del sys.modules[name]
    mods = {"heatansatz": importlib.import_module("heatansatz")}
    origin = Path(mods["heatansatz"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"heatansatz imported from {origin}, not from {SRC}")
    for name in MODULES:
        mods[name] = importlib.import_module(f"heatansatz.{name}")
    return mods


def setup(workload: str, seed: int):
    """One set-up: a fresh import of the package plus input generation."""
    start = perf_counter()
    mods = import_package()
    jobs = WORKLOADS[workload](random.Random(seed), SimpleNamespace(**mods))
    return perf_counter() - start, mods, jobs


# -- passes ----------------------------------------------------------------------------


@dataclass
class PassResult:
    spent: list = field(default_factory=list)     # seconds in program calls, per job
    ok: list = field(default_factory=list)        # per job: ran, exited 0 and passed its check
    failures: list = field(default_factory=list)  # (kind, label, reason)
    reference: list = field(default_factory=list)  # reference slice seconds, after each job
    wrong: int = 0

    @property
    def wall(self) -> float:
        return sum(self.spent)

    @property
    def scaled(self) -> list:
        """Per-job seconds at the reference host speed."""
        return [t * f for t, f in zip(self.spent, speed_factors(self.reference))]

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.reference)


def run_pass(jobs, tracer: Tracer | None = None) -> PassResult:
    result = PassResult()
    for index, job in enumerate(jobs):
        spent = 0.0

        def timed(fn, *args):
            nonlocal spent
            if tracer is not None:
                tracer.job, tracer.active = index, True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                spent += perf_counter() - start
                if tracer is not None:
                    tracer.active = False

        reason = None
        try:
            out = job.run(timed)
        except NonZeroExit as exc:
            reason = f"exit: {exc}"
        except Exception as exc:  # the program raised: a failed job, not a benchmark error
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            try:
                job.check(out)
            except CheckFailed as exc:
                reason = f"wrong: {exc}"
            except Exception as exc:  # a check that cannot run counts as a wrong result
                reason = f"wrong: check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                result.wrong += 1
        result.spent.append(spent)
        result.ok.append(reason is None)
        if reason is not None:
            result.failures.append((job.kind, job.label, reason))
        result.reference.append(reference_seconds())
    return result


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; failed jobs sort last as infinitely slow."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- metrics ---------------------------------------------------------------------------


def end_to_end(setup_times: list, passes: list[PassResult]) -> dict:
    """Times at the reference host speed.  ``setup_s`` is the median set-up;
    ``wall_s`` is the median pass; the latency quantiles are over every job
    of every pass, a failed job counting as infinitely slow."""
    latencies = [t if good else math.inf for p in passes for t, good in zip(p.scaled, p.ok)]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p.scaled) for p in passes),
        "job_p50_ms": 1e3 * quantile(latencies, 0.5),
        "job_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_snapshot(tracer: Tracer, res: PassResult) -> dict:
    """Per-layer values of one traced pass; self times at the reference
    host speed (the pass's median factor), shares and ``_wall`` as measured."""
    c = tracer.counters
    calls = tracer.group_calls

    def self_s(group):
        return tracer.group_self(group) * res.factor

    snap = {
        "grpoly.build.calls": calls("grpoly.build"), "grpoly.build.self_s": self_s("grpoly.build"),
        "grpoly.terms_out": c["grpoly.terms_out"], "grpoly.max_coeff_bits": c["grpoly.max_coeff_bits"],
        "grpoly.max_nvars": c["grpoly.max_nvars"],
        "grpoly.evaluate.calls": calls("grpoly.evaluate"), "grpoly.evaluate.self_s": self_s("grpoly.evaluate"),
        "operators.calls": calls("operators"), "operators.self_s": self_s("operators"),
        "ansatz.calls": calls("ansatz"), "ansatz.self_s": self_s("ansatz"), "ansatz.table_terms": c["ansatz.table_terms"],
        "dynsys.top.self_s": self_s("dynsys.top"),
        "dynsys.jets.calls": calls("dynsys.jets"), "dynsys.jets.self_s": self_s("dynsys.jets"),
        "dynsys.field.calls": calls("dynsys.field"), "dynsys.field.self_s": self_s("dynsys.field"),
        "dynsys.rk4.steps": c["dynsys.rk4.steps"], "dynsys.rk4.self_s": self_s("dynsys.rk4"),
        "solution.exact.calls": calls("solution.exact"), "solution.exact.self_s": self_s("solution.exact"),
        "solution.image_terms": c["solution.image_terms"],
        "solution.eval.points": calls("solution.eval"), "solution.eval.self_s": self_s("solution.eval"),
        "solution.fd.calls": calls("solution.fd"), "solution.fd.self_s": self_s("solution.fd"),
        "cli.calls": calls("cli"), "cli.self_s": self_s("cli"), "cli.bytes_out": c["cli.bytes_out"],
    }
    snap["_layers"] = tracer.layer_self()
    snap["_wall"] = res.wall
    return snap


# -- host ------------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main ------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


@dataclass
class Measured:
    jobs: list
    setup_times: list
    plain: list
    traced: list
    snapshots: list
    tracer: Tracer | None


def scaled_setup(prepare):
    """``prepare()`` with its seconds at the reference host speed, from the
    median of two reference slices before it and three after it."""
    before = [reference_seconds() for _ in range(2)]
    seconds, mods, jobs = prepare()
    slices = before + [reference_seconds() for _ in range(3)]
    return seconds * REFERENCE_S / statistics.median(slices), mods, jobs


def measure(args, prepare) -> Measured:
    """Set up SETUP_REPEATS times, then run passes until --seconds is used.

    Every pass runs on a set-up of its own, so the package's memo caches
    start cold as in a new interpreter, and the set-up samples spread over
    the run like the passes do.  In trace mode untraced and traced passes
    alternate.  ``prepare()`` returns (seconds, modules, jobs).
    """
    begin = perf_counter()
    got = Measured([], [], [], [], [], Tracer() if args.trace else None)
    for _ in range(SETUP_REPEATS):
        seconds, mods, got.jobs = scaled_setup(prepare)
        got.setup_times.append(seconds)
    tracer, last = got.tracer, 0.0
    while True:
        start = perf_counter()
        if got.plain:
            seconds, mods, got.jobs = scaled_setup(prepare)
            got.setup_times.append(seconds)
        if tracer is not None and len(got.traced) < len(got.plain):
            tracer.reset()
            tracer.install(mods)
            try:
                res = run_pass(got.jobs, tracer)
            finally:
                tracer.uninstall()
            got.traced.append(res)
            got.snapshots.append(layer_snapshot(tracer, res))
            last = max(last, perf_counter() - start)
        else:
            got.plain.append(run_pass(got.jobs))
            last = max(last, perf_counter() - start) if tracer is not None else perf_counter() - start
        pending = tracer is not None and not got.traced
        if not pending and perf_counter() - begin + last > args.seconds:
            return got


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        got = measure(args, lambda: setup(args.workload, args.seed))
    except ImportError as exc:
        print(f"error: cannot import heatansatz from {SRC}: {exc}", file=sys.stderr)
        return 2
    tracer, plain, traced, snapshots, jobs = got.tracer, got.plain, got.traced, got.snapshots, got.jobs
    passes = plain + traced
    attempted = sum(len(p.spent) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    wrong = sum(p.wrong for p in passes)
    kinds: dict[str, int] = {}
    for job in jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    reasons = sorted({f"{kind} [{label}]: {reason}" for p in passes for kind, label, reason in p.failures})
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "commit": git_commit(), "jobs_by_kind": kinds,
        "passes_untraced": len(plain), "passes_traced": len(traced), "setups": len(got.setup_times),
        "jobs_per_pass": len(jobs), "job_samples": sum(len(p.spent) for p in plain),
        "failed_frac": failed / attempted, "failures": reasons[:10],
    }
    print("info " + json.dumps(info))

    if tracer is None:
        values = end_to_end(got.setup_times, plain)
        units = dict(END_TO_END)
        print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} jobs)")
    else:
        values = {}
        for name, _ in PER_LAYER[:-1]:
            values[name] = statistics.median(s[name] for s in snapshots)
        plain_wall = statistics.median(p.wall for p in plain)
        values["trace.overhead"] = (statistics.median(sum(p.scaled) for p in traced)
                                    / statistics.median(sum(p.scaled) for p in plain) - 1)
        units = dict(PER_LAYER)
        last = snapshots[-1]
        layers = last["_layers"]
        total = sum(layers.values())
        print("self-time share (last traced pass): "
              + ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        print(f"layer self time {total!r} s of traced pass wall {last['_wall']!r} s; untraced wall {plain_wall!r} s")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write_spans(path)
        print(f"spans of the last traced pass: {path.relative_to(ROOT)} ({len(tracer.span_start)} spans)")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
