"""Seeded Monte Carlo over wear-out fault scenarios.

Each scenario samples a per-PE endurance-budget field, runs a policy on
the accelerator until ``deaths`` PEs have failed (or ``max_iterations``
passes elapse), and records when and where the failures happened. The
seeding follows the determinism convention of
:mod:`repro.reliability.montecarlo`: one :class:`numpy.random.
SeedSequence` child is spawned per scenario *up front*, so the sampled
scenario set depends only on ``(seed, num_scenarios)`` — never on the
chunk size or on how chunks are distributed over worker processes.
Serial and parallel runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.engine import WearLevelingEngine
from repro.core.policies import StrideTrigger, make_policy
from repro.dataflow.tiling import TileStream
from repro.errors import ConfigurationError
from repro.faults.injection import sample_endurance_budgets
from repro.reliability.weibull import JEDEC_BETA
from repro.resilience import CheckpointJournal
from repro.runtime import ParallelRunner, accelerator_fingerprint, content_hash
from repro.runtime.seeds import fresh_seed_sequence

Seed = Union[int, np.random.SeedSequence]

#: Scenario engine runs are orders of magnitude heavier than the pure
#: Weibull draws of ``repro.reliability.montecarlo``, so chunks default
#: much smaller.
DEFAULT_CHUNK_SIZE = 8


@dataclass(frozen=True)
class ScenarioOutcome:
    """Death record of one sampled fault scenario."""

    #: Network iteration of each observed death, in death order.
    death_iterations: Tuple[int, ...]
    #: ``(u, v)`` coordinate of each observed death, in death order.
    death_coords: Tuple[Tuple[int, int], ...]
    #: Passes actually executed (== iteration of the last requested
    #: death, or the cap when the array outlived the run).
    iterations_run: int
    #: Usable-throughput fraction at the end of the scenario.
    usable_throughput: float

    @property
    def num_deaths(self) -> int:
        """Deaths observed before the run ended."""
        return len(self.death_iterations)

    @property
    def first_death_iteration(self) -> Optional[int]:
        """Iteration of the first failure (``None`` if none occurred)."""
        return self.death_iterations[0] if self.death_iterations else None


@dataclass(frozen=True)
class FaultScenarioSamples:
    """Aggregate of many sampled fault scenarios for one policy."""

    policy_name: str
    deaths: int
    max_iterations: int
    outcomes: Tuple[ScenarioOutcome, ...]

    @property
    def num_scenarios(self) -> int:
        """How many scenarios were sampled."""
        return len(self.outcomes)

    def lifetime_to(self, k: int) -> np.ndarray:
        """Iterations until the ``k``-th death, per scenario.

        Scenarios whose array outlived the run are censored at
        ``max_iterations`` (a conservative lower bound on the lifetime).
        """
        if not 1 <= k <= self.deaths:
            raise ConfigurationError(
                f"k must be in [1, {self.deaths}], got {k}"
            )
        values = [
            outcome.death_iterations[k - 1]
            if outcome.num_deaths >= k
            else self.max_iterations
            for outcome in self.outcomes
        ]
        return np.array(values, dtype=np.int64)

    @property
    def mean_lifetime_to_first(self) -> float:
        """Mean iterations to the first PE failure."""
        return float(self.lifetime_to(1).mean())

    def death_histogram(self, shape: Tuple[int, int]) -> np.ndarray:
        """How often each PE died, accumulated over all scenarios."""
        h, w = shape
        histogram = np.zeros((h, w), dtype=np.int64)
        for outcome in self.outcomes:
            for u, v in outcome.death_coords:
                histogram[v, u] += 1
        return histogram


def run_until_deaths(
    accelerator: Accelerator,
    policy_name: str,
    streams: Sequence[TileStream],
    budgets,
    deaths: int = 1,
    max_iterations: int = 1000,
    trigger: StrideTrigger = StrideTrigger.ORIGIN,
) -> Tuple[WearLevelingEngine, "ScenarioOutcome"]:
    """Run one policy until ``deaths`` PEs fail (or the iteration cap).

    Follows the :func:`repro.experiments.common.run_policies` topology
    convention: the baseline runs on the mesh variant, torus policies on
    the torus variant. Returns the engine (for ledger inspection) plus
    the scenario outcome.
    """
    policy = make_policy(policy_name, trigger)
    target = (
        accelerator.as_torus() if policy.requires_torus else accelerator.as_mesh()
    )
    engine = WearLevelingEngine(target, policy, budgets=budgets)
    # Untraced budget runs take the analytic fast path: whole orbit
    # periods are folded between deaths while death timing stays
    # bit-identical to the iterative walk (budget-guarded cycle jumps).
    result = engine.run(
        streams,
        iterations=max_iterations,
        record_trace=False,
        stop_after_deaths=deaths,
        mode="analytic",
    )
    outcome = ScenarioOutcome(
        death_iterations=tuple(event.iteration for event in result.death_events),
        death_coords=tuple(event.coord for event in result.death_events),
        iterations_run=result.iterations,
        usable_throughput=result.degradation.usable_throughput,
    )
    return engine, outcome


def _scenario_chunk(spec: Tuple) -> Tuple[ScenarioOutcome, ...]:
    """Run one chunk of scenarios (module-level so pools can pickle it)."""
    (
        accelerator,
        policy_name,
        trigger,
        streams,
        scenario_seeds,
        mean_budget,
        beta,
        deaths,
        max_iterations,
    ) = spec
    outcomes = []
    for scenario_seed in scenario_seeds:
        budgets = sample_endurance_budgets(
            accelerator.array, mean_budget, beta=beta, seed=scenario_seed
        )
        _, outcome = run_until_deaths(
            accelerator,
            policy_name,
            streams,
            budgets,
            deaths=deaths,
            max_iterations=max_iterations,
            trigger=trigger,
        )
        outcomes.append(outcome)
    return tuple(outcomes)


def sample_fault_scenarios(
    accelerator: Accelerator,
    streams: Sequence[TileStream],
    policy_name: str = "rwl+ro",
    num_scenarios: int = 32,
    mean_budget: float = 10_000.0,
    beta: float = JEDEC_BETA,
    deaths: int = 1,
    max_iterations: int = 1000,
    seed: Seed = 2025,
    trigger: StrideTrigger = StrideTrigger.ORIGIN,
    jobs: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint: Optional[str] = None,
) -> FaultScenarioSamples:
    """Monte Carlo death statistics of one policy under sampled wear-out.

    ``jobs`` fans scenario chunks over a
    :class:`~repro.runtime.parallel.ParallelRunner` (``None`` reads
    ``REPRO_JOBS``; serial by default). Death times and locations are
    bit-identical for any ``jobs`` and ``chunk_size`` value: every
    scenario's budget field derives from its own pre-spawned
    ``SeedSequence`` child. ``checkpoint`` names a journal directory:
    completed chunks are recorded there and a rerun of the same
    configuration (enforced by a content-hash run key) skips them.
    """
    if num_scenarios < 1:
        raise ConfigurationError(
            f"num_scenarios must be positive, got {num_scenarios}"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    sequence = fresh_seed_sequence(seed)
    scenario_seeds = sequence.spawn(num_scenarios)
    streams = tuple(streams)
    chunks = [
        scenario_seeds[start : start + chunk_size]
        for start in range(0, num_scenarios, chunk_size)
    ]
    journal = None
    if checkpoint is not None:
        journal = CheckpointJournal(
            checkpoint,
            run_key=content_hash(
                "fault-scenarios",
                accelerator_fingerprint(accelerator),
                policy_name,
                trigger,
                streams,
                num_scenarios,
                float(mean_budget),
                float(beta),
                deaths,
                max_iterations,
                chunk_size,
                sequence,
            ),
        )
    runner = ParallelRunner(jobs)
    chunk_outcomes = runner.map(
        _scenario_chunk,
        [
            (
                accelerator,
                policy_name,
                trigger,
                streams,
                chunk,
                mean_budget,
                beta,
                deaths,
                max_iterations,
            )
            for chunk in chunks
        ],
        labels=[f"chunk-{index}" for index in range(len(chunks))],
        checkpoint=journal,
    )
    outcomes = tuple(
        outcome for chunk in chunk_outcomes for outcome in chunk
    )
    return FaultScenarioSamples(
        policy_name=policy_name,
        deaths=deaths,
        max_iterations=max_iterations,
        outcomes=outcomes,
    )
