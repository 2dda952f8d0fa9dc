"""Obstacle gene decoding, the penalty objective, and counterfactual search."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError
from .ga import GaConfig, require_int, run_ga
from .geometry import ORIGIN, ObstacleShape, Point2, raycast_scan, shape_overlaps_disk
from .model import ActionVector, PolicyModel
from .scan import (
    GoalFeatures,
    Scan,
    assemble_state,
    combine_gen_priority,
    combine_min_distance,
    proximity_loss,
)

logger = logging.getLogger(__name__)

MIN_DISTANCE = "min_distance"
GEN_PRIORITY = "gen_priority"
GENES_PER_OBSTACLE = 6


@dataclass(frozen=True, eq=False)
class ActionBounds:
    """Per-dimension inclusive [lower, upper] target ranges inside [-1, 1]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError("bounds must be two 1-d vectors of equal, non-zero length")
        if not (np.all(lower >= -1.0) and np.all(upper <= 1.0)):
            raise ValueError("bounds must lie within [-1, 1]")
        if not np.all(lower <= upper):
            raise ValueError("every lower bound must be <= its upper bound")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_pairs(cls, pairs) -> "ActionBounds":
        """Build from a sequence of (lower, upper) pairs, one per output dimension."""
        pairs = list(pairs)
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    def __len__(self) -> int:
        return int(self.lower.size)

    def contains(self, action: ActionVector) -> bool:
        """Inclusive membership test."""
        a = action.values
        return bool(np.all((a >= self.lower) & (a <= self.upper)))


@dataclass(frozen=True)
class CfeQuery:
    """Everything needed to search for counterfactual scans against one base state.

    ``world_bounds`` is the half-width of the square region obstacles decode
    into, centered on the sensor (defaults to the scan's max range);
    ``d_min`` is the protective radius around the sensor that obstacles may
    not enter.
    """

    base_scan: Scan
    goal: GoalFeatures
    bounds: ActionBounds
    combination: str = MIN_DISTANCE
    lambda_y: float = 1.0
    lambda_p: float = 0.0
    n_obstacles: int = 5
    d_min: float = 0.2
    world_bounds: float | None = None
    size_limits: tuple[float, float] = (0.05, 1.0)
    d_g_max: float | None = None
    n_cfes: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_obstacles", "n_cfes", "rng_seed"):
            require_int(name, getattr(self, name))
        for name in ("lambda_y", "lambda_p", "d_min", "world_bounds", "d_g_max"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if value is not None and not (real and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.combination not in (MIN_DISTANCE, GEN_PRIORITY):
            raise ValueError(f"combination must be {MIN_DISTANCE!r} or {GEN_PRIORITY!r}, got {self.combination!r}")
        if self.lambda_y < 0.0 or self.lambda_p < 0.0:
            raise ValueError("lambda_y and lambda_p must be >= 0")
        if self.n_obstacles < 1:
            raise ValueError(f"n_obstacles must be >= 1, got {self.n_obstacles}")
        if self.d_min < 0.0:
            raise ValueError(f"d_min must be >= 0, got {self.d_min}")
        if self.n_cfes < 0:
            raise ValueError(f"n_cfes must be >= 0, got {self.n_cfes}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.rng_seed}")
        lo, hi = self.size_limits
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"size_limits must satisfy 0 < lo <= hi < inf, got {self.size_limits}")
        if self.world_bounds is not None and not self.world_bounds > 0.0:
            raise ValueError(f"world_bounds must be > 0, got {self.world_bounds}")
        if self.d_g_max is not None and not self.d_g_max > 0.0:
            raise ValueError(f"d_g_max must be > 0, got {self.d_g_max}")

    @property
    def world_extent(self) -> float:
        """Half-width of the square decode region."""
        return self.world_bounds if self.world_bounds is not None else self.base_scan.max_range

    @property
    def goal_distance_scale(self) -> float:
        """Normalizer for the goal-distance feature: the decode region's diagonal by default."""
        return self.d_g_max if self.d_g_max is not None else 2.0 * math.sqrt(2.0) * self.world_extent


@dataclass(frozen=True, eq=False)
class CfeResult:
    """One counterfactual: decoded obstacles, merged scan, achieved action, scores.

    ``satisfied`` is true exactly when the hinge component is zero, i.e. the
    action landed inside the requested bounds (inclusive).
    """

    obstacles: tuple[ObstacleShape, ...]
    combined_scan: Scan
    achieved_action: ActionVector
    fitness: float
    hinge_component: float
    proximity_component: float
    satisfied: bool
    genome: np.ndarray


def decode_genome(genome, n_obstacles: int, world_bounds: float, size_limits=(0.05, 1.0)) -> list[ObstacleShape]:
    """Decode 6 genes per obstacle: type, x, y, orientation, and two sizes.

    Positions map affinely from [0,1] onto [-world_bounds, world_bounds];
    sizes map onto [size_limits[0], size_limits[1]]. Gene 0 picks circle
    (< 0.5) or rectangle; circles ignore the orientation gene and the second
    size gene.
    """
    genes = np.asarray(genome, dtype=float)
    if genes.ndim != 1 or genes.size != GENES_PER_OBSTACLE * n_obstacles:
        raise ValueError(f"genome length {genes.size} != {GENES_PER_OBSTACLE} * {n_obstacles}")
    if not world_bounds > 0.0:
        raise ValueError(f"world_bounds must be > 0, got {world_bounds}")
    lo, hi = size_limits
    if not 0.0 < lo <= hi:
        raise ValueError(f"size_limits must satisfy 0 < lo <= hi, got {size_limits}")
    span = hi - lo
    shapes = []
    for t, x, y, theta, s1, s2 in genes.reshape(-1, GENES_PER_OBSTACLE):
        center = Point2((2.0 * x - 1.0) * world_bounds, (2.0 * y - 1.0) * world_bounds)
        if t < 0.5:
            shapes.append(ObstacleShape.circle(center, lo + s1 * span))
        else:
            shapes.append(
                ObstacleShape.rectangle(center, (lo + s1 * span, lo + s2 * span), orientation=theta * math.pi)
            )
    return shapes


def hinge_loss(action: ActionVector, bounds: ActionBounds) -> float:
    """Summed distance from each action component to its target range; 0 inside."""
    a = action.values
    if a.size != len(bounds):
        raise ValueError(f"action has {a.size} dimensions, bounds cover {len(bounds)}")
    inside = (a >= bounds.lower) & (a <= bounds.upper)
    nearest_edge = np.minimum(np.abs(a - bounds.lower), np.abs(a - bounds.upper))
    return float(np.where(inside, 0.0, nearest_edge).sum())


def _scorer(query: CfeQuery, model: PolicyModel):
    """Build the one chain from genome to score, shared by the objective and packaging.

    ``score(genome, full)`` returns ``(fitness, shapes, combined, action,
    hinge, proximity)``. A genome with an obstacle crowding the sensor's
    protective disk scores -inf. Without ``full`` (the search objective) the
    chain stops there, leaving the remaining parts None, and proximity is
    only computed when ``lambda_p`` weights it; with ``full`` (packaging)
    every part is computed.
    """
    base = query.base_scan
    if model.input_size != base.n + 3:
        raise ModelError(f"model expects {model.input_size} inputs, query state has {base.n + 3}")
    if model.output_size != len(query.bounds):
        raise ModelError(f"model outputs {model.output_size} values, bounds cover {len(query.bounds)}")
    combine = combine_min_distance if query.combination == MIN_DISTANCE else combine_gen_priority
    world = query.world_extent
    d_scale = query.goal_distance_scale

    def score(genome, full: bool) -> tuple:
        shapes = decode_genome(genome, query.n_obstacles, world, query.size_limits)
        crowds_sensor = any(shape_overlaps_disk(s, ORIGIN, query.d_min) for s in shapes)
        if crowds_sensor and not full:
            return -math.inf, shapes, None, None, None, None
        combined = combine(base, raycast_scan(ORIGIN, shapes, base.n, base.max_range))
        action = model.act(assemble_state(combined, query.goal, d_scale))
        hinge = hinge_loss(action, query.bounds)
        proximity = proximity_loss(combined, base) if full or query.lambda_p != 0.0 else 0.0
        fitness = -math.inf if crowds_sensor else -query.lambda_y * hinge - query.lambda_p * proximity
        return fitness, shapes, combined, action, hinge, proximity

    return score


def fitness_for_query(query: CfeQuery, model: PolicyModel):
    """Build the genome objective for a query.

    The returned function decodes a genome, rejects it with -inf when any
    obstacle crowds the sensor's protective disk, raycasts the obstacles,
    merges them with the base scan, runs the model, and scores
    ``-lambda_y * hinge - lambda_p * proximity`` (never positive).
    """
    score = _scorer(query, model)
    return lambda genome: score(genome, False)[0]


def generate_cfes(query: CfeQuery, model: PolicyModel, ga_config: GaConfig | None = None) -> list[CfeResult]:
    """Run ``query.n_cfes`` independent seeded searches and package the results.

    Search i runs with seed ``query.rng_seed + i`` (overriding the seed in
    ``ga_config``), so a batch is reproducible and its members explore
    independently. Results sort by fitness, best first; results that miss
    the bounds are kept but flagged unsatisfied.
    """
    config = ga_config if ga_config is not None else GaConfig()
    objective = fitness_for_query(query, model)
    score = _scorer(query, model)
    length = GENES_PER_OBSTACLE * query.n_obstacles
    results = []
    for i in range(query.n_cfes):
        genome = run_ga(replace(config, rng_seed=query.rng_seed + i), length, objective).best_genome
        fitness, shapes, combined, action, hinge, proximity = score(genome, True)
        results.append(
            CfeResult(
                obstacles=tuple(shapes),
                combined_scan=combined,
                achieved_action=action,
                fitness=fitness,
                hinge_component=hinge,
                proximity_component=proximity,
                satisfied=hinge == 0.0,
                genome=genome,
            )
        )
    results.sort(key=lambda r: r.fitness, reverse=True)  # stable, ties keep run order
    if results and not any(r.satisfied for r in results):
        logger.warning("no generated counterfactual landed inside the requested action bounds")
    return results
