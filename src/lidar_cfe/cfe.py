"""Obstacle gene decoding, the penalty objective, and counterfactual search."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError
from .ga import GaConfig, require_int, require_real, run_ga
from .geometry import ORIGIN, ObstacleShape, ShapeRows, overlaps_disk_rows, raycast_rows
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
            if value is not None:
                require_real(name, value)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
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
    """Decode a (P, 6K) gene matrix into (P, K) shape parameter arrays.

    Genes per obstacle: type (circle below 0.5), x, y, turn, two sizes. x and
    y map onto [-world_bounds, world_bounds], the sizes onto ``size_limits``.
    """
    n_slots = genes.shape[1] // GENES_PER_OBSTACLE  # explicit, so that zero genomes reshape too
    t, x, y, theta, s1, s2 = np.moveaxis(genes.reshape(len(genes), n_slots, GENES_PER_OBSTACLE), 2, 0)
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


def _hinge_rows(actions: np.ndarray, bounds: ActionBounds) -> np.ndarray:
    inside = (actions >= bounds.lower) & (actions <= bounds.upper)
    nearest_edge = np.minimum(np.abs(actions - bounds.lower), np.abs(actions - bounds.upper))
    return np.where(inside, 0.0, nearest_edge).sum(axis=1)


def _act_rows(model: PolicyModel, states: np.ndarray) -> np.ndarray:
    """The model's (P, m) actions for (P, n) states; a wrong shape, or a value
    that is not finite or lies outside [-1, 1], raises ModelError."""
    actions = np.asarray(model.act_batch(states), dtype=float)
    if actions.shape != (len(states), model.output_size):
        raise ModelError(f"act_batch returned shape {actions.shape} for {len(states)} states")
    try:
        check_action_rows(actions)
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    return actions


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

    The scans, the merge and the proximity differences are written into two
    (P, n_rays) arrays that ``score`` keeps between calls and grows only for
    a larger P, so a search does not allocate them anew in every generation.
    The returned ``merged`` is a view of that workspace, valid until the
    next call; the other returned arrays are the caller's.
    """
    base = query.base_scan
    if model.input_size != base.n + 3:
        raise ModelError(f"model expects {model.input_size} inputs, query state has {base.n + 3}")
    if model.output_size != len(query.bounds):
        raise ModelError(f"model outputs {model.output_size} values, bounds cover {len(query.bounds)}")
    readings, max_range = base.readings, base.max_range
    goal = goal_state(query.goal, query.goal_distance_scale)
    length = GENES_PER_OBSTACLE * query.n_obstacles
    workspace = (np.empty((0, base.n)),) * 2  # scans (then merged) and proximity differences

    def score(pop, full: bool) -> tuple:
        nonlocal workspace
        pop = np.asarray(pop, dtype=float)
        if pop.ndim != 2 or pop.shape[1] != length:
            raise ValueError(f"population shape {pop.shape} is not (P, {length})")
        shapes = _decode_rows(pop, query.world_extent, query.size_limits)
        rejected = overlaps_disk_rows(shapes, ORIGIN, query.d_min).any(axis=1)
        fitness = np.full(len(pop), -math.inf)
        rows = np.arange(len(pop)) if full else np.flatnonzero(~rejected)
        if rows.size == 0:
            return fitness, None, None, None, None
        if len(workspace[0]) < rows.size:
            workspace = np.empty((rows.size, base.n)), np.empty((rows.size, base.n))
        merged, diff = (buffer[: rows.size] for buffer in workspace)
        raycast_rows(ORIGIN, shapes.take(rows), base.n, max_range, out=merged)
        if query.combination == MIN_DISTANCE:
            np.minimum(readings, merged, out=merged)
        else:  # every actual generated return overrides the base
            np.copyto(merged, readings, where=~(merged < max_range))
        actions = _act_rows(model, state_rows(merged, max_range, goal))
        hinge = _hinge_rows(actions, query.bounds)
        if full or query.lambda_p != 0.0:
            np.subtract(merged, readings, out=diff)
            proximity = np.abs(diff, out=diff).sum(axis=1) / (base.n * max_range)
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

    The objective keeps its scratch arrays between calls, so one objective
    must not be called from two threads at once; the fitness array it
    returns is the caller's.
    """
    score = _scorer(query, model)
    return lambda pop: score(pop, False)[0]


def _package(query: CfeQuery, model: PolicyModel, genomes: np.ndarray, searches: list[SearchFacts]) -> list[CfeResult]:
    """One result per row of a (P, 6K) gene matrix, in row order, all rows scored in one batch."""
    if len(genomes) == 0:
        return []  # spares the model a call on zero states
    scores = _scorer(query, model)(genomes, True)
    shapes = _decode_rows(genomes, query.world_extent, query.size_limits)
    return [
        CfeResult(
            obstacles=shapes.shapes(i),
            combined_scan=Scan(merged, query.base_scan.max_range),  # a copy of the scorer's workspace row
            achieved_action=ActionVector(action),
            fitness=float(fitness),
            hinge_component=float(hinge),
            proximity_component=float(proximity),
            satisfied=bool(hinge == 0.0),
            genome=genome,
            search=search,
        )
        for i, (genome, search, fitness, merged, action, hinge, proximity) in enumerate(zip(genomes, searches, *scores, strict=True))
    ]


def generate_cfes(query: CfeQuery, model: PolicyModel, ga_config: GaConfig | None = None) -> list[CfeResult]:
    """Run ``query.n_cfes`` independent seeded searches and package the results.

    Search i runs with seed ``query.rng_seed + i`` (overriding the seed in
    ``ga_config``), so a batch is reproducible and its members explore
    independently. Results sort by fitness, best first; results that miss
    the bounds are kept but flagged unsatisfied.
    """
    config = ga_config if ga_config is not None else GaConfig()
    objective = fitness_for_query(query, model)
    length = GENES_PER_OBSTACLE * query.n_obstacles
    genomes, searches = np.empty((query.n_cfes, length)), []
    for i, seed in enumerate(range(query.rng_seed, query.rng_seed + query.n_cfes)):
        run = run_ga(replace(config, rng_seed=seed), length, objective)  # a GaRun holds its population; keep none
        genomes[i] = run.best_genome
        searches.append(SearchFacts(seed, run.termination, run.generations_run, run.generations_run * config.population))
    results = _package(query, model, genomes, searches)
    results.sort(key=lambda r: r.fitness, reverse=True)  # stable, ties keep run order
    if results and not any(r.satisfied for r in results):
        logger.warning("no generated counterfactual landed inside the requested action bounds")
    return results
