"""Every Monte Carlo entry point treats a caller's ``SeedSequence`` as read-only.

``SeedSequence.spawn`` advances the parent's child counter, so an entry
point that spawned from the caller's object would draw different
children on a second call with the very same sequence.
"""

import pickle

import numpy as np
import pytest

from repro.faults.montecarlo import sample_fault_scenarios
from repro.fleet.montecarlo import sample_fleet_scenarios
from repro.fleet.simulate import FleetConfig, simulate_fleet
from repro.fleet.traffic import bursty_requests
from repro.reliability.montecarlo import sample_array_lifetimes
from tests.conftest import make_stream
from tests.fleet.test_simulate import MIX, toy_profiles

#: Budgets small enough that toy traffic kills PEs, so the sampled
#: budgets (the seeded draw) shape the fleet results.
FLEET = FleetConfig(num_devices=2, mean_budget=40.0)


def faults_mc(accelerator, seed):
    return sample_fault_scenarios(
        accelerator,
        [make_stream("conv1", x=3, y=2, z=5)],
        policy_name="rwl",
        num_scenarios=4,
        mean_budget=60.0,
        max_iterations=40,
        seed=seed,
        jobs=1,
    ).outcomes


def reliability_mc(accelerator, seed):
    return sample_array_lifetimes(
        np.arange(1, accelerator.array.num_pes + 1), num_samples=64, seed=seed, jobs=1
    ).lifetimes


def fleet_mc(accelerator, seed):
    return sample_fleet_scenarios(
        accelerator,
        config=FLEET,
        num_requests=40,
        rate_rps=1000.0,
        mix=MIX,
        profiles=toy_profiles(accelerator),
        num_scenarios=3,
        seed=seed,
        jobs=1,
    ).outcomes


def fleet_simulation(accelerator, seed):
    requests = bursty_requests(40, 1000.0, MIX, seed=3)
    return simulate_fleet(
        toy_profiles(accelerator), requests, accelerator=accelerator, config=FLEET, seed=seed
    )


@pytest.mark.parametrize(
    "entry",
    [faults_mc, reliability_mc, fleet_mc, fleet_simulation],
    ids=["faults", "reliability", "fleet-mc", "simulate-fleet"],
)
def test_same_seed_sequence_twice_gives_identical_results(small_torus, entry):
    shared = np.random.SeedSequence(7)
    first = pickle.dumps(entry(small_torus, shared))
    second = pickle.dumps(entry(small_torus, shared))
    assert first == second
    assert first == pickle.dumps(entry(small_torus, np.random.SeedSequence(7)))
    # The seed really drives the draw: another sequence gives other results.
    assert first != pickle.dumps(entry(small_torus, np.random.SeedSequence(8)))
