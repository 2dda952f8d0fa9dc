"""Realistic counterfactual explanations for 2D range-scan controllers.

Given a black-box policy that maps a normalized scan-plus-goal state to a
bounded action, this package searches for small sets of geometric obstacles
(circles and oriented rectangles) whose raycast merges with a base scan to
drive the policy's output into user-chosen action bounds. Obstacles are
encoded as normalized genes and evolved with a seeded genetic algorithm, so
every counterfactual corresponds to a physically placeable scene rather
than free-form per-ray noise.
"""

from .bridge import ExternalPolicy, external_policy
from .cfe import (
    GEN_PRIORITY,
    GENES_PER_OBSTACLE,
    MIN_DISTANCE,
    ActionBounds,
    CfeQuery,
    CfeResult,
    decode_genome,
    fitness_for_query,
    generate_cfes,
    hinge_loss,
)
from .errors import (
    BridgeError,
    BridgeTimeout,
    InputError,
    LidarCfeError,
    ModelError,
    NetworkConfigError,
)
from .ga import GaConfig, GaRun, run_ga
from .geometry import (
    CIRCLE,
    ORIGIN,
    RECTANGLE,
    ObstacleShape,
    Point2,
    raycast_scan,
    shape_contains,
    shape_overlaps_disk,
)
from .model import (
    GOAL_SEEKER,
    LEFT_PREFERRER,
    ActionVector,
    Activation,
    Conv1d,
    Dense,
    NetworkPolicy,
    NetworkSpec,
    PolicyModel,
    ScriptedParams,
    conv1d_forward,
    load_weight_file,
    net_forward,
    save_weight_file,
    scripted_policy,
)
from .scan import (
    GoalFeatures,
    ModelState,
    Scan,
    assemble_state,
    combine_gen_priority,
    combine_min_distance,
    proximity_loss,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "ActionBounds",
    "ActionVector",
    "Activation",
    "BridgeError",
    "BridgeTimeout",
    "CIRCLE",
    "CfeQuery",
    "CfeResult",
    "Conv1d",
    "Dense",
    "ExternalPolicy",
    "GEN_PRIORITY",
    "GENES_PER_OBSTACLE",
    "GOAL_SEEKER",
    "GaConfig",
    "GaRun",
    "GoalFeatures",
    "InputError",
    "LEFT_PREFERRER",
    "LidarCfeError",
    "MIN_DISTANCE",
    "ModelError",
    "ModelState",
    "NetworkConfigError",
    "NetworkPolicy",
    "NetworkSpec",
    "ORIGIN",
    "ObstacleShape",
    "Point2",
    "PolicyModel",
    "RECTANGLE",
    "Scan",
    "Scenario",
    "ScriptedParams",
    "assemble_state",
    "combine_gen_priority",
    "combine_min_distance",
    "conv1d_forward",
    "decode_genome",
    "external_policy",
    "fitness_for_query",
    "generate_cfes",
    "hinge_loss",
    "load_scenario",
    "load_weight_file",
    "net_forward",
    "proximity_loss",
    "raycast_scan",
    "run_ga",
    "save_weight_file",
    "scripted_policy",
    "shape_contains",
    "shape_overlaps_disk",
]
