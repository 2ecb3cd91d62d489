#!/usr/bin/env python3
"""Reproduction benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload table6-cold --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  Every measurement comes from a fresh
process (``worker.py``) whose result cache and trace store live in a
private directory under ``perfbench/.work/``, removed on exit.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, measured next to an untraced one.  See README.md beside
this file for the workloads, the metrics and the stages.

The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table6-cold", "sweep-hot", "table6-warm")

#: The seed whose digests ``pins.json`` holds.  Must match
#: ``workloads.DEFAULT_SEED``: this process does not import the program.
DEFAULT_SEED = 1

#: Set-up-only launches per untraced run, on top of the pass launches.
SETUP_LAUNCHES = 5
#: Processes per run for workloads that repeat passes inside a process;
#: each gets this share of ``--seconds``.
REPEAT_PROCESSES = 4
#: Wall-clock limit for everything after the native build.
TIME_LIMIT_S = 165.0
#: The first run in a checkout compiles the native loop.
BUILD_LIMIT_S = 600.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ad_energy_gap_pp": "pp",
    "ad_degradation_gap_pp": "pp",
}

#: Per-layer metric -> (span name, what to report).
SPAN_METRICS = {
    "workloads.build_trace_s": ("workloads.build_trace", "self"),
    "uarch.compiled_trace.trace_columns_s": ("uarch.compiled_trace.trace_columns", "self"),
    "uarch.compiled_trace.from_columns_s": ("uarch.compiled_trace.from_columns", "self"),
    "uarch.compiled_trace.from_columns_calls": ("uarch.compiled_trace.from_columns", "calls"),
    "uarch.compiled_trace.store_load_s": ("uarch.compiled_trace.store_load", "self"),
    "uarch.compiled_trace.store_write_s": ("uarch.compiled_trace.store_write", "self"),
    "sim.engine.trace_lookup_s": ("sim.engine.trace_lookup", "self"),
    "uarch.core.build_s": ("uarch.core.build", "self"),
    "uarch.core.build_calls": ("uarch.core.build", "calls"),
    "uarch.core.warm_up_s": ("uarch.core.warm_up", "self"),
    "uarch.core.warm_up_calls": ("uarch.core.warm_up", "calls"),
    "uarch.core.warm_restore_s": ("uarch.core.warm_restore", "self"),
    "uarch.core.warm_restore_calls": ("uarch.core.warm_restore", "calls"),
    "uarch.core.warm_snapshot_s": ("uarch.core.warm_snapshot", "self"),
    "uarch.core.marshal_s": ("uarch.core.marshal", "self"),
    "uarch.native.compute_s": ("uarch.native.compute", "self"),
    "uarch.core.writeback_s": ("uarch.core.writeback", "self"),
    "clocks.jitter.refill_s": ("clocks.jitter.refill", "self"),
    "clocks.jitter.refill_calls": ("clocks.jitter.refill", "calls"),
    "sim.engine.batch_calls": ("sim.engine.run_specs_batch", "calls"),
    "metrics.summarize_s": ("metrics.summarize", "self"),
    "experiments.cache.load_s": ("experiments.cache.load", "self"),
    "experiments.cache.load_calls": ("experiments.cache.load", "calls"),
    "experiments.cache.store_s": ("experiments.cache.store", "self"),
    "experiments.cache.store_calls": ("experiments.cache.store", "calls"),
    "sim.paper_results.global_search_s": ("sim.paper_results.global_search", "self"),
    "execution.bus.publish_s": ("execution.bus.publish", "self"),
}


class ChildFailed(Exception):
    """A worker process exited non-zero or ran out of time."""


def git_commit() -> str | None:
    """The checked-out commit; None outside a git repository."""
    # The ceiling keeps git from reporting a repository that merely
    # contains a checkout which is not one itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark run: build, prepare, launch the measured processes."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # The load is the program's own worker threads; keep numerical
        # libraries from starting thread pools of their own.
        for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[knob] = "1"
        self.deadline = time.monotonic() + BUILD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.oracle_pending = True
        self.digest: str | None = None
        self.walls: list[float] = []

    def launch(self, mode: str, **options) -> tuple[dict, float]:
        """Run one worker; returns its report and its spawn time."""
        command = [
            sys.executable, str(WORKER), mode,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--work", str(self.work),
        ]
        for option, value in options.items():
            command += [f"--{option}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"{mode}: no time left")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: timed out") from None
        if proc.returncode != 0:
            raise ChildFailed(
                f"{mode}: exit {proc.returncode}\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned

    def oracle_option(self) -> dict:
        """``--oracle 1`` for the first process that checks outputs; the
        worker re-runs its sample unless the seed has pinned digests."""
        if not self.oracle_pending:
            return {}
        self.oracle_pending = False
        return {"oracle": 1}

    def measure(self, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
        """Launch pass processes for ``--seconds``; untraced and traced
        reports, plus set-up samples from every launch."""
        budget = self.seconds / REPEAT_PROCESSES
        untraced, traced, setups = [], [], []
        start = time.monotonic()
        while True:
            want_trace = trace and len(traced) < len(untraced)
            options = {"budget": budget, "trace": int(want_trace)}
            options.update(self.oracle_option())
            try:
                report, spawned = self.launch("pass", **options)
            except ChildFailed as exc:
                self.attempted += 1
                self.failed += 1
                self.problems.append(str(exc))
                break
            (traced if want_trace else untraced).append(report)
            if not want_trace:
                setups.append(setup_seconds(report, spawned))
            self.count(report)
            done = time.monotonic() - start >= self.seconds
            if done and (not trace or traced):
                break
        return untraced, traced, setups

    def count(self, report: dict) -> None:
        """Fold one process's outputs into the attempted/failed tally."""
        self.attempted += sum(report["ops"]) + report["oracle_attempted"]
        self.failed += sum(report["errors"])
        self.count_oracle(report)

    def count_oracle(self, report: dict) -> None:
        self.failed += len(report["oracle_mismatches"])
        for run_id in report["oracle_mismatches"]:
            self.problems.append(f"generator oracle disagrees on {run_id}")

    def check_digests(self, reports: list[dict], expected: str | None) -> None:
        """Every pass must produce the expected digest (the pin for the
        default seed, else the first pass's, traced or not)."""
        for report in reports:
            for ops, errors, value in zip(report["ops"], report["errors"], report["digests"]):
                if expected is None:
                    expected = value
                if value != expected:
                    self.failed += ops - errors
                    self.problems.append(f"output digest {value[:12]} != {expected[:12]}")
                self.digest = self.digest or value

    def execute(self, trace: bool) -> dict | None:
        build, _ = self.launch("build")
        self.deadline = time.monotonic() + TIME_LIMIT_S
        identity = {
            **build,
            "git_commit": git_commit(),
            "workload": self.workload,
            "seed": self.seed,
        }
        print("identity " + json.dumps(identity, sort_keys=True))

        warm = self.workload == "table6-warm"
        # table6-warm checks its records where it makes them, in prep.
        prep, _ = self.launch("prep", **(self.oracle_option() if warm else {}))
        pins = json.loads((HERE / "pins.json").read_text())
        expected = pins[self.workload] if self.seed == DEFAULT_SEED else None
        if warm:
            self.attempted += 1 + prep["oracle_attempted"]
            self.count_oracle(prep)
            if self.seed == DEFAULT_SEED and prep["records_digest"] != pins["table6-cold"]:
                self.failed += 1
                self.problems.append("warm-up reproduction digest differs from the pin")
            expected = expected or prep["render_digest"]

        setups = []
        if not trace:
            setups = [
                setup_seconds(*self.launch("setup")) for _ in range(SETUP_LAUNCHES)
            ]
        untraced, traced, pass_setups = self.measure(trace)
        self.walls = [w for report in untraced for w in report["walls"]]
        if not untraced or (trace and not traced):
            return None
        self.check_digests(untraced + traced, expected)
        if warm:
            for report in untraced + traced:
                if report["records_digest"] != prep["records_digest"]:
                    self.failed += sum(report["ops"])
                    self.problems.append("a render changed the result cache")
        if trace:
            return per_layer(traced, untraced)
        return end_to_end(untraced, setups + pass_setups)


def setup_seconds(report: dict, spawned: float) -> float:
    """Spawn to first workload call, less the benchmark's own preparation."""
    return report["first_call"] - spawned - report["prep_s"]


def end_to_end(reports: list[dict], setups: list[float]) -> dict:
    # Pass times report the run's fastest pass, not the median: this
    # host's speed changes for 5-15 s at a time, and over 20 s windows
    # of renders the median spread 17% against 6.5% for the minimum
    # (README.md, "Steadiness").
    passes = [(w, n) for r in reports for w, n in zip(r["walls"], r["ops"])]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": min(w for w, _ in passes),
        "runs_per_s": max(n / w for w, n in passes),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
        "ad_energy_gap_pp": reports[0]["gaps"][0],
        "ad_degradation_gap_pp": reports[0]["gaps"][1],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    self_s, calls, counts, cache = Counter(), Counter(), Counter(), Counter()
    covered = 0.0
    walls = []
    for report in traced:
        self_s.update(report["trace"]["self_s"])
        calls.update(report["trace"]["calls"])
        counts.update(report["trace"]["counts"])
        cache.update(report["trace_cache"])
        covered += report["trace"]["covered_s"]
        walls += report["walls"]
    passes = len(walls)
    workers = traced[0]["workers"]
    metrics = {}
    for name, (span, kind) in SPAN_METRICS.items():
        source = self_s if kind == "self" else calls
        unit = "s" if kind == "self" else "count"
        metrics[name] = (source.get(span, 0) / passes, unit)
    for counter in ("hits", "misses", "evictions"):
        metrics[f"sim.engine.trace_cache_{counter}"] = (cache[counter] / passes, "count")
    metrics["sim.engine.batch_fallbacks"] = (
        counts.get("sim.engine.batch_fallbacks", 0) / passes, "count"
    )
    loads = calls.get("experiments.cache.load", 0)
    metrics["experiments.cache.hit_ratio"] = (
        counts.get("experiments.cache.load_hits", 0) / loads if loads else 0.0, "ratio"
    )
    metrics["uarch.native.gil_held_share"] = (
        1.0 - self_s.get("uarch.native.compute", 0) / covered if covered else 1.0, "ratio"
    )
    metrics["trace.coverage"] = (covered / (sum(walls) * workers), "ratio")
    untraced_walls = [w for r in untraced for w in r["walls"]]
    metrics["trace.overhead"] = (min(walls) / min(untraced_walls) - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still stops its worker and removes its directory:
    # SystemExit unwinds through subprocess.run, which kills the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    run = Run(args.workload, args.seed, args.seconds, work)
    try:
        metrics = run.execute(bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if metrics is None:
        return 1
    print(f"output digest {run.digest}")
    print("pass seconds " + " ".join(f"{w:.4g}" for w in run.walls))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
