"""Every integer that comes from outside, tried at and past its bounds.

Each row names one integer field, a builder that sets it, and its range
[low, high] (high None: no upper bound). Each field is tried at low - 1,
low, high, high + 1, a bool, a float and 2**63. A value is accepted exactly
when it is an integer (a bool is not one) inside the range, and a refusal
raises the row's error class.
"""

import sys

import numpy as np
import pytest

from lidar_cfe import (
    ActionBounds,
    Activation,
    CfeQuery,
    Conv1d,
    Dense,
    GaConfig,
    GoalFeatures,
    NetworkConfigError,
    NetworkSpec,
    Scan,
    Scenario,
    external_policy,
    run_ga,
    scripted_policy,
)
from lidar_cfe.cfe import SearchFacts
from lidar_cfe.geometry import Point2

# Answers the handshake with the sizes it is given, then waits for its input to close.
SIZED_CHILD = "import sys; print('HELLO', *sys.argv[1:], flush=True); sys.stdin.read()"


def query(**fields):
    return CfeQuery(Scan.empty(180, 3.5), GoalFeatures(1.0, 0.0, 2.0), ActionBounds.from_pairs([(-1.0, 0.0), (-0.2, 0.2)]), **fields)


def ga(**fields):
    return GaConfig(**{"population": 100, "parents_mating": 10, "keep_parents": 0, "tournament_size": 3, **fields})


def spec(lidar, extra):
    # The dense layer takes whatever the spec gives it, so only the spec's own check can refuse.
    return NetworkSpec(lidar, extra, (Dense(max(1, int(lidar) + int(extra)), 2), Activation("tanh")))


def bridge(input_size, output_size):
    external_policy([sys.executable, "-c", SIZED_CHILD, str(input_size), str(output_size)], input_size, output_size).close()


def search(value):
    return run_ga(ga(generations=1, population=2, parents_mating=1, tournament_size=1), value, lambda pop: np.zeros(len(pop)), 0)


# (field, builder, low, high, error class)
INT_FIELDS = [
    ("GaConfig.generations", lambda v: ga(generations=v), 1, None, ValueError),
    ("GaConfig.population", lambda v: ga(population=v, parents_mating=1, tournament_size=1), 1, sys.maxsize, ValueError),
    ("GaConfig.parents_mating", lambda v: ga(parents_mating=v), 1, 100, ValueError),
    ("GaConfig.keep_parents", lambda v: ga(keep_parents=v), 0, 10, ValueError),
    ("GaConfig.tournament_size", lambda v: ga(tournament_size=v), 1, 100, ValueError),
    ("GaConfig.saturate_k", lambda v: ga(saturate_k=v), 1, None, ValueError),
    ("run_ga.genome_length", search, 1, None, ValueError),
    ("CfeQuery.n_obstacles", lambda v: query(n_obstacles=v), 1, 180, ValueError),
    ("CfeQuery.n_cfes", lambda v: query(n_cfes=v), 0, sys.maxsize, ValueError),
    ("CfeQuery.seed", lambda v: query(seed=v), 0, None, ValueError),
    ("SearchFacts.seed", lambda v: SearchFacts(v, "generations", 5, 500), 0, None, ValueError),
    ("SearchFacts.generations", lambda v: SearchFacts(0, "generations", v, 500), 1, 500, ValueError),
    ("SearchFacts.evaluations", lambda v: SearchFacts(0, "generations", 5, v), 5, None, ValueError),
    ("Scenario.n_rays", lambda v: Scenario("room", Point2(2.0, 0.0), n_rays=v), 1, sys.maxsize, ValueError),
    ("Conv1d.in_channels", lambda v: Conv1d(v, 1, 1), 1, None, ValueError),
    ("Conv1d.out_channels", lambda v: Conv1d(1, v, 1), 1, None, ValueError),
    ("Conv1d.kernel", lambda v: Conv1d(1, 1, v), 1, None, ValueError),
    ("Conv1d.stride", lambda v: Conv1d(1, 1, 1, stride=v), 1, None, ValueError),
    ("Conv1d.padding", lambda v: Conv1d(1, 1, 1, padding=v), 0, None, ValueError),
    ("Dense.in_size", lambda v: Dense(v, 1), 1, None, ValueError),
    ("Dense.out_size", lambda v: Dense(1, v), 1, None, ValueError),
    ("NetworkSpec.lidar_inputs", lambda v: spec(v, 3), 1, None, NetworkConfigError),
    ("NetworkSpec.extra_inputs", lambda v: spec(8, v), 0, None, NetworkConfigError),
    ("scripted_policy.n_lidar", lambda v: scripted_policy("goal_seeker", v), 8, None, ValueError),
    ("ExternalPolicy.input_size", lambda v: bridge(v, 2), 1, None, ValueError),
    ("ExternalPolicy.output_size", lambda v: bridge(19, v), 1, None, ValueError),
]

# These two build one array element per unit of the value, so numpy refuses 2**63 after the check passes it.
PER_UNIT = {"run_ga.genome_length", "scripted_policy.n_lidar"}


def probes():
    for field, build, low, high, error in INT_FIELDS:
        values = {"low-1": low - 1, "low": low, "bool": True, "float": float(low), "2**63": 2**63}
        if high is not None:
            values.update({"high": high, "high+1": high + 1})
        for name, value in values.items():
            inside = not isinstance(value, (bool, float)) and low <= value <= (high if high is not None else value)
            if name == "2**63" and field in PER_UNIT:
                error, inside = Exception, False
            yield pytest.param(build, value, inside, error, id=f"{field}-{name}")


@pytest.mark.parametrize("build, value, accepted, error", probes())
def test_an_integer_field_takes_exactly_the_integers_of_its_range(build, value, accepted, error):
    if accepted:
        build(value)
    else:
        with pytest.raises(error):
            build(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ga(generations=0), "generations must be >= 1, got 0"),
        (lambda: ga(parents_mating=200), "parents_mating must lie in [1, 100], got 200"),
        (lambda: ga(saturate_k=0), "saturate_k must be >= 1, got 0"),
        (lambda: query(n_obstacles=181), "n_obstacles must lie in [1, 180], got 181"),
        (lambda: Conv1d(1, 1, 1, padding=-1), "padding must be >= 0, got -1"),
        (lambda: Dense(0, 2), "in_size must be >= 1, got 0"),
        (lambda: spec(8, -1), "extra_inputs must be >= 0, got -1"),
        (lambda: scripted_policy("goal_seeker", 7), "n_lidar must be >= 8, got 7"),
        (lambda: bridge(19, 0), "output_size must be >= 1, got 0"),
    ],
    ids=["generations", "parents_mating", "saturate_k", "n_obstacles", "padding", "in_size", "extra_inputs", "n_lidar", "output_size"],
)
def test_a_refusal_names_the_field_its_range_and_the_value(build, message):
    with pytest.raises(Exception) as caught:
        build()
    assert str(caught.value) == message
