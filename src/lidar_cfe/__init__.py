"""Realistic counterfactual explanations for 2D range-scan controllers.

Given a black-box policy that maps a normalized scan-plus-goal state to a
bounded action, this package searches for small sets of geometric obstacles
(circles and oriented rectangles) whose raycast merges with a base scan to
drive the policy's output into user-chosen action bounds. Obstacles are
encoded as normalized genes and evolved with a seeded genetic algorithm, so
every counterfactual corresponds to a physically placeable scene rather
than free-form per-ray noise.
"""

from .cfe import ActionBounds, CfeQuery, CfeResult, fitness_for_query, generate_cfes
from .errors import BridgeError, BridgeTimeout, InputError, LidarCfeError, ModelError, NetworkConfigError
from .ga import GaConfig, run_ga
from .model import (ActionVector, Activation, Conv1d, Dense, NetworkPolicy, NetworkSpec, PolicyModel, load_weight_file,
                    save_weight_file, scripted_policy)
from .scan import GoalFeatures, ModelState, Scan
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"


def __getattr__(name: str):  # external_policy imports the bridge, and with it subprocess, on first use
    if name != "external_policy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .bridge import external_policy
    return external_policy

__all__ = [
    "ActionBounds",
    "ActionVector",
    "Activation",
    "BridgeError",
    "BridgeTimeout",
    "CfeQuery",
    "CfeResult",
    "Conv1d",
    "Dense",
    "GaConfig",
    "GoalFeatures",
    "InputError",
    "LidarCfeError",
    "ModelError",
    "ModelState",
    "NetworkConfigError",
    "NetworkPolicy",
    "NetworkSpec",
    "PolicyModel",
    "Scan",
    "Scenario",
    "external_policy",
    "fitness_for_query",
    "generate_cfes",
    "load_scenario",
    "load_weight_file",
    "run_ga",
    "save_weight_file",
    "scripted_policy",
]
