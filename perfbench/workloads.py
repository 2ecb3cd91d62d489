"""The benchmark's three workloads, driven through public entry points.

Each workload makes its inputs from the benchmark seed and hands the
program only what it generated: the Table 6 runner (which fixes the
clock seed) or the sweep's scenario matrix.  :mod:`worker` runs the
steps of one workload in a fresh process:

``prepare``
    Untimed data preparation that the run's processes share: the trace
    store for ``sweep-hot``, the result cache for ``table6-warm``.
``open``
    Context construction, the last part of the measured set-up.
``run``
    One timed pass: a cold Table 6 reproduction, one sweep, or one
    render of Table 6 from the result cache.
``check``
    Untimed output checks after the passes: the digest of every
    ``RunSummary`` record, the Attack/Decay gaps to the paper, and,
    on request, a seeded sample re-run through the generator oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import random
from pathlib import Path

from repro.execution.bus import EventBus
from repro.execution.progress import ConsoleProgress
from repro.experiments import Orchestrator, Suite
from repro.experiments.executor import ExecutionContext
from repro.experiments.registry import CONFIGURATIONS
from repro.experiments.results import RunRecord
from repro.experiments.scenario import Scenario
from repro.metrics.aggregate import aggregate
from repro.metrics.summary import compare, summarize
from repro.reporting.experiments import PAPER_TABLE6
from repro.sim.engine import run_spec
from repro.sim.experiment import ExperimentRunner
from repro.sim.paper_results import compute_paper_results, paper_suite_scenarios

#: The seed whose output digests are pinned in ``pins.json``; every
#: other seed is checked against the generator oracle instead.
DEFAULT_SEED = 1

#: Workload scale of both Table 6 workloads.  A cold reproduction's
#: time is mostly per-run Python set-up that does not shrink with the
#: scale: on a 2-core host it took 15 s at 0.05, 11.6 s at 0.02 and
#: 10.6 s at 0.01, and below 0.01 the dynamic_* searches find no
#: schedule for some benchmarks.  0.02 fits two to four cold passes
#: into a 20 s run.
TABLE6_SCALE = 0.02

#: The closed-loop sweep: six catalog benchmarks at full scale, each
#: under Attack/Decay and under the baseline MCD processor that the
#: Attack/Decay gaps are measured against.  The degradation gap moves
#: with the clock seeds drawn: over 30 benchmark seeds with six clock
#: seeds a sweep, its spread across ten runs exceeded 20% in one set
#: in seven.  Eight clock seeds average more of that out.
SWEEP_BENCHMARKS = ("adpcm", "gsm", "epic", "mcf", "gcc", "swim")
SWEEP_CONFIGURATIONS = ("attack_decay", "mcd_base")
SWEEP_SCALE = 1.0
SWEEP_SEEDS = 8

#: Generator-oracle re-runs per checked run.  A full-scale sweep run
#: costs 0.5-5 s on the generator path, a Table 6 run at 0.02 under 0.1 s.
ORACLE_SAMPLE = {"table6-cold": 8, "sweep-hot": 2, "table6-warm": 8}

_PAPER_AD_DEGRADATION_PCT, _PAPER_AD_ENERGY_PCT = PAPER_TABLE6["attack_decay"][:2]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def canonical(data) -> str:
    """Key-sorted JSON; floats print with every digit."""
    return json.dumps(data, sort_keys=True)


def digest(lines) -> str:
    """SHA-256 over canonical lines, in the given order."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def ad_gaps(comparisons) -> list[float]:
    """Absolute gaps (pp) of Attack/Decay's energy savings and degradation
    to the paper's Table 6 row."""
    agg = aggregate(comparisons)
    return [
        abs(agg.energy_savings * 100 - _PAPER_AD_ENERGY_PCT),
        abs(agg.performance_degradation * 100 - _PAPER_AD_DEGRADATION_PCT),
    ]


def oracle_mismatches(
    context: ExecutionContext, pairs: list[tuple[Scenario, RunRecord]]
) -> list[str]:
    """Re-run each scenario on the generator path; list the mismatches.

    The scenario resolves through the configuration registry as the
    program resolves it and only the execution path changes, so the
    summaries must agree byte for byte.
    """
    mismatches = []
    for scenario, record in pairs:
        factory, parsed = CONFIGURATIONS.resolve(scenario.configuration)
        spec = factory(
            context,
            scenario.benchmark,
            scale=context.effective_scale(scenario),
            seed=context.effective_seed(scenario),
            **{**parsed, **scenario.override_mapping()},
        )
        oracle = summarize(run_spec(dataclasses.replace(spec, path="generator")))
        if canonical(oracle.to_dict()) != canonical(record.summary.to_dict()):
            mismatches.append(scenario.run_id)
    return mismatches


class _Table6:
    """What both Table 6 workloads share."""

    workers = 1

    def open(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.cache = self.cache_dir(work)
        self.runner = ExperimentRunner(
            cache_dir=self.cache, scale=TABLE6_SCALE, seed=seed
        )

    def reproduce(self):
        runner, self.runner = self.runner, None
        if runner is None:
            runner = ExperimentRunner(
                cache_dir=self.cache, scale=TABLE6_SCALE, seed=self.seed
            )
        self.last_runner = runner
        return compute_paper_results(runner=runner, workers=1)

    @staticmethod
    def render(results) -> str:
        """Canonical Table 6 output: its rows and matched frequencies."""
        return canonical(
            {
                "rows": [dataclasses.asdict(row) for row in results.table6_rows()],
                "global_frequency": results.global_frequency,
            }
        )

    def public_records(self, results) -> list[tuple[Scenario, RunRecord]]:
        """Every record behind ``results``, fetched through the runner.

        The base matrix's scenarios, then each benchmark's run at every
        matched global frequency, in a fixed order.  After a
        reproduction these are cache hits; the check does not depend on
        how or where the cache keeps them, and a record the cache lost
        is simulated again.
        """
        runner = self.last_runner
        scenarios, _ = paper_suite_scenarios(list(results.benchmarks))
        pairs = [(s, runner.run_scenario(s)) for s in scenarios]
        for algorithm in sorted(results.global_frequency):
            mhz = results.global_frequency[algorithm]
            for benchmark in results.benchmarks:
                record = runner.global_at(benchmark, mhz)
                pairs.append((Scenario(benchmark, record.configuration), record))
        return pairs

    def oracle(
        self, pairs: list[tuple[Scenario, RunRecord]], k: int
    ) -> tuple[int, list[str]]:
        """Generator re-runs of a seeded sample of single-run records.

        ``dynamic_*`` results come from multi-run searches with no
        single spec to re-run, so the pool is the baselines, the
        Attack/Decay runs and the runs at the matched global frequencies.
        """
        if k == 0:
            return 0, []
        pool = {
            scenario.run_id: (scenario, record)
            for scenario, record in pairs
            if not scenario.configuration.startswith("dynamic_")
        }
        chosen = random.Random(self.seed).sample(sorted(pool), min(k, len(pool)))
        runner = self.last_runner
        return len(chosen), oracle_mismatches(runner.context, [pool[c] for c in chosen])

    def table6_check(self, results, oracle_k: int) -> dict:
        """The records behind ``results`` and the rendered Table 6,
        digested in order, plus the gaps and the oracle sample."""
        pairs = self.public_records(results)
        lines = [canonical(record.to_dict()) for _, record in pairs]
        attempted, mismatches = self.oracle(pairs, oracle_k)
        return {
            "records": len(pairs),
            "records_digest": digest(lines + [self.render(results)]),
            "gaps": ad_gaps(results.vs_mcd["attack_decay"]),
            "oracle_attempted": attempted,
            "oracle_mismatches": mismatches,
        }


class Table6Cold(_Table6):
    """The full Table 6 / Figure 4 matrix from empty stores.

    Serial backend, globals search on, and a result cache and trace
    store that are new to the process: a fresh-clone reproduction.
    One pass per process, because the process-wide trace cache would
    make a second pass warm.
    """

    name = "table6-cold"
    repeat = False

    def trace_dir(self, work: Path) -> Path:
        return work / f"traces-{os.getpid()}"

    def cache_dir(self, work: Path) -> Path:
        return work / f"cache-{os.getpid()}"

    def prepare(self, work: Path, seed: int, oracle_k: int) -> dict:
        return {}

    def run(self):
        return self.reproduce()

    def check(self, outputs: list, oracle_k: int) -> dict:
        result = self.table6_check(outputs[0], oracle_k)
        # A pass that yields no records checked nothing: it failed.
        return {
            "ops": [result["records"] or 1],
            "errors": [0 if result["records"] else 1],
            "digests": [result["records_digest"]],
            "gaps": result["gaps"],
            "oracle_attempted": result["oracle_attempted"],
            "oracle_mismatches": result["oracle_mismatches"],
        }


class Table6Warm(_Table6):
    """Table 6 re-rendered from a result cache filled during set-up.

    Every render uses a fresh :class:`ExperimentRunner`, so records are
    read from disk, not from a runner's memory front: about a thousand
    cache loads, the compare/aggregate step and the globals bisection
    over cached records, with zero simulations.
    """

    name = "table6-warm"
    repeat = True

    def trace_dir(self, work: Path) -> Path:
        return work / "traces"

    def cache_dir(self, work: Path) -> Path:
        return work / "cache"

    def prepare(self, work: Path, seed: int, oracle_k: int) -> dict:
        self.open(work, seed)
        results = self.reproduce()
        return {
            **self.table6_check(results, oracle_k),
            "render_digest": digest([self.render(results)]),
        }

    def run(self):
        return self.reproduce()

    def check(self, outputs: list, oracle_k: int) -> dict:
        return {
            "ops": [1] * len(outputs),
            "errors": [0] * len(outputs),
            "digests": [digest([self.render(r)]) for r in outputs],
            "records_digest": self.table6_check(outputs[-1], 0)["records_digest"],
            "gaps": ad_gaps(outputs[0].vs_mcd["attack_decay"]),
            "oracle_attempted": 0,
            "oracle_mismatches": [],
        }


class SweepHot:
    """A closed-loop sweep at full scale over a warm trace store.

    ``auto`` backend and batch, ``nproc`` workers, result cache off,
    and an event-bus progress subscriber as ``repro sweep --progress``
    attaches.  The trace store is filled during preparation, as on a
    user's second sweep, so every run reuses one of six traces and the
    time goes to native compute, jitter refills, warm-state restores,
    marshalling and contention for the interpreter lock.
    """

    name = "sweep-hot"
    repeat = False

    @property
    def workers(self) -> int:
        return nproc()

    def trace_dir(self, work: Path) -> Path:
        return work / "traces"

    def prepare(self, work: Path, seed: int, oracle_k: int) -> dict:
        suite = Suite(SWEEP_BENCHMARKS, ["mcd_base"], scale=SWEEP_SCALE)
        result = Orchestrator(workers=1, scale=SWEEP_SCALE, use_cache=False).run(suite)
        if result.errors:
            raise RuntimeError(result.errors[0].error)
        return {}

    def open(self, work: Path, seed: int) -> None:
        seeds = sorted(random.Random(seed).sample(range(1, 2**31), SWEEP_SEEDS))
        self.suite = Suite(
            SWEEP_BENCHMARKS, SWEEP_CONFIGURATIONS, seeds=seeds, scale=SWEEP_SCALE
        )
        self.seed = seed
        bus = EventBus()
        bus.subscribe(ConsoleProgress(io.StringIO()))
        self.orchestrator = Orchestrator(
            workers=self.workers,
            scale=SWEEP_SCALE,
            use_cache=False,
            backend="auto",
            batch="auto",
            events=bus,
        )

    def run(self):
        return self.orchestrator.run(self.suite)

    def check(self, outputs: list, oracle_k: int) -> dict:
        result = outputs[0]
        lines = [
            canonical(o.record.to_dict() if o.ok else {"failed": o.scenario.run_id})
            for o in result
        ]
        by_run = {
            (o.scenario.benchmark, o.scenario.seed, o.scenario.configuration): o.record
            for o in result
            if o.ok
        }
        comparisons = {
            f"{benchmark}@{seed}": compare(record.summary, by_run[benchmark, seed, "mcd_base"].summary)
            for (benchmark, seed, configuration), record in by_run.items()
            if configuration == "attack_decay" and (benchmark, seed, "mcd_base") in by_run
        }
        ok = [(o.scenario, o.record) for o in result if o.ok]
        pairs = random.Random(self.seed).sample(ok, min(oracle_k, len(ok)))
        context = ExecutionContext(scale=SWEEP_SCALE, use_cache=False)
        return {
            "ops": [len(result)],
            "errors": [len(result.errors)],
            "digests": [digest(lines)],
            "gaps": ad_gaps(comparisons),
            "oracle_attempted": len(pairs),
            "oracle_mismatches": oracle_mismatches(context, pairs),
        }


WORKLOADS = {w.name: w for w in (Table6Cold, SweepHot, Table6Warm)}
