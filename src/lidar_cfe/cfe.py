"""Obstacle gene decoding, the penalty objective, and counterfactual search."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError
from .ga import GaConfig, require_int, run_ga
from .geometry import ORIGIN, ObstacleShape, Point2, ShapeRows, overlaps_disk_rows, raycast_rows
from .model import ActionVector, PolicyModel, check_action_rows
from .scan import GoalFeatures, Scan, goal_state, state_rows

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
        """Inclusive membership test: the hinge is zero."""
        return bool(_hinge_rows(action.values[np.newaxis], self)[0] == 0.0)


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
        if not 1 <= self.n_obstacles <= self.base_scan.n:
            # More slots than rays would leave obstacles that no ray can show.
            raise ValueError(f"n_obstacles must lie in [1, {self.base_scan.n}], the scan's ray count, got {self.n_obstacles}")
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


@dataclass(frozen=True)
class SearchFacts:
    """How the search behind one result ran: its seed, why it stopped
    ("generations", "saturate" or "reach_zero"), the generations it ran and
    the genomes it scored."""

    seed: int
    termination: str
    generations: int
    evaluations: int


@dataclass(frozen=True, eq=False)
class CfeResult:
    """One counterfactual: decoded obstacles, merged scan, achieved action,
    scores, and the facts of the search that found it.

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
    search: SearchFacts


def _decode_rows(genes: np.ndarray, world_bounds: float, size_limits) -> ShapeRows:
    """Decode a (P, 6K) gene matrix into (P, K) shape parameter arrays."""
    t, x, y, theta, s1, s2 = np.moveaxis(genes.reshape(len(genes), -1, GENES_PER_OBSTACLE), 2, 0)
    lo, hi = size_limits
    span = hi - lo
    orientation = np.remainder(theta * math.pi, math.pi)  # normalized to [0, pi) as ObstacleShape does
    return ShapeRows(
        rect=t >= 0.5,
        cx=(2.0 * x - 1.0) * world_bounds,
        cy=(2.0 * y - 1.0) * world_bounds,
        size1=lo + s1 * span,
        size2=lo + s2 * span,
        orientation=orientation,
        cos_o=np.cos(orientation),
        sin_o=np.sin(orientation),
    )


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
    rows = _decode_rows(genes[np.newaxis], world_bounds, size_limits).take(0)
    shapes = []
    for k in range(n_obstacles):
        center = Point2(rows.cx[k], rows.cy[k])
        if rows.rect[k]:
            shapes.append(ObstacleShape.rectangle(center, (rows.size1[k], rows.size2[k]), rows.orientation[k]))
        else:
            shapes.append(ObstacleShape.circle(center, rows.size1[k]))
    return shapes


def hinge_loss(action: ActionVector, bounds: ActionBounds) -> float:
    """Summed distance from each action component to its target range; 0 inside."""
    a = action.values
    if a.size != len(bounds):
        raise ValueError(f"action has {a.size} dimensions, bounds cover {len(bounds)}")
    return float(_hinge_rows(a[np.newaxis], bounds)[0])


def _hinge_rows(actions: np.ndarray, bounds: ActionBounds) -> np.ndarray:
    inside = (actions >= bounds.lower) & (actions <= bounds.upper)
    nearest_edge = np.minimum(np.abs(actions - bounds.lower), np.abs(actions - bounds.upper))
    return np.where(inside, 0.0, nearest_edge).sum(axis=1)


def _scorer(query: CfeQuery, model: PolicyModel):
    """Build the one chain from genomes to scores, shared by the objective and packaging.

    ``score(pop, full)`` scores a (P, 6K) gene matrix and returns ``(fitness,
    merged, actions, hinge, proximity)``, one row per genome: the merged
    (P, n_rays) readings, the (P, m) actions and (P,) arrays. A genome with
    an obstacle crowding the sensor's protective disk scores -inf. Without
    ``full`` (the search objective) such rows skip the rest of the chain, so
    the other parts hold only the accepted rows (None when there are none),
    and proximity is only computed when ``lambda_p`` weights it. With
    ``full`` (packaging) every part of every row is computed.
    """
    base = query.base_scan
    if model.input_size != base.n + 3:
        raise ModelError(f"model expects {model.input_size} inputs, query state has {base.n + 3}")
    if model.output_size != len(query.bounds):
        raise ModelError(f"model outputs {model.output_size} values, bounds cover {len(query.bounds)}")
    readings, max_range = base.readings, base.max_range
    goal = goal_state(query.goal, query.goal_distance_scale)
    length = GENES_PER_OBSTACLE * query.n_obstacles

    def score(pop, full: bool) -> tuple:
        pop = np.asarray(pop, dtype=float)
        if pop.ndim != 2 or pop.shape[1] != length:
            raise ValueError(f"population shape {pop.shape} is not (P, {length})")
        shapes = _decode_rows(pop, query.world_extent, query.size_limits)
        rejected = overlaps_disk_rows(shapes, ORIGIN, query.d_min).any(axis=1)
        fitness = np.full(len(pop), -math.inf)
        rows = np.arange(len(pop)) if full else np.flatnonzero(~rejected)
        if rows.size == 0:
            return fitness, None, None, None, None
        scans = raycast_rows(ORIGIN, shapes.take(rows), base.n, max_range)
        if query.combination == MIN_DISTANCE:
            merged = np.minimum(readings, scans)
        else:  # every actual generated return overrides the base
            merged = np.where(scans < max_range, scans, readings)
        actions = np.asarray(model.act_batch(state_rows(merged, max_range, goal)), dtype=float)
        if actions.shape != (len(rows), model.output_size):
            raise ModelError(f"act_batch returned shape {actions.shape} for {len(rows)} states")
        check_action_rows(actions)
        hinge = _hinge_rows(actions, query.bounds)
        if full or query.lambda_p != 0.0:
            proximity = np.abs(merged - readings).sum(axis=1) / (base.n * max_range)
        else:
            proximity = np.zeros(len(rows))
        fitness[rows] = -query.lambda_y * hinge - query.lambda_p * proximity
        fitness[rejected] = -math.inf
        return fitness, merged, actions, hinge, proximity

    return score


def fitness_for_query(query: CfeQuery, model: PolicyModel):
    """Build the population objective for a query.

    The returned function maps a (P, 6K) gene matrix to P fitness values.
    For each genome it decodes the obstacles, rejects the genome with -inf
    when any obstacle crowds the sensor's protective disk, raycasts the
    obstacles, merges them with the base scan, runs the model, and scores
    ``-lambda_y * hinge - lambda_p * proximity`` (never positive). Each row's
    value is the same whatever the other rows are.
    """
    score = _scorer(query, model)
    return lambda pop: score(pop, False)[0]


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
    for seed in range(query.rng_seed, query.rng_seed + query.n_cfes):
        run = run_ga(replace(config, rng_seed=seed), length, objective)
        genome = run.best_genome
        fitness, merged, actions, hinge, proximity = (part[0] for part in score(genome[np.newaxis], True))
        results.append(
            CfeResult(
                obstacles=tuple(decode_genome(genome, query.n_obstacles, query.world_extent, query.size_limits)),
                combined_scan=Scan(merged, query.base_scan.max_range),
                achieved_action=ActionVector(actions),
                fitness=float(fitness),
                hinge_component=float(hinge),
                proximity_component=float(proximity),
                satisfied=bool(hinge == 0.0),
                genome=genome,
                search=SearchFacts(seed, run.termination, run.generations_run, run.generations_run * config.population),
            )
        )
    results.sort(key=lambda r: r.fitness, reverse=True)  # stable, ties keep run order
    if results and not any(r.satisfied for r in results):
        logger.warning("no generated counterfactual landed inside the requested action bounds")
    return results
