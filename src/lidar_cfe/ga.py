"""Real-coded genetic algorithm with tournament selection, single-point
crossover, uniform gene resampling, and elitism."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

TERMINATED_GENERATIONS = "generations"
TERMINATED_SATURATE = "saturate"
TERMINATED_REACH_ZERO = "reach_zero"


def require_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GaConfig:
    """Engine settings.

    A run stops at the generation cap, after ``saturate_k`` generations
    without best-fitness improvement (exact comparison), or as soon as the
    best fitness reaches zero when ``reach_zero`` is set (for penalty-style
    objectives whose optimum is 0).

    ``keep_selected_parents`` switches elitism from carrying the globally
    best individuals to carrying the first ``keep_parents`` selected
    parents; the default preserves monotone best fitness.
    """

    generations: int = 100
    population: int = 100
    parents_mating: int = 10
    keep_parents: int = 10
    tournament_size: int = 3
    mutation_fraction: float = 0.20
    saturate_k: int | None = 10
    reach_zero: bool = True
    rng_seed: int = 0
    keep_selected_parents: bool = False

    def __post_init__(self) -> None:
        for name in ("generations", "population", "parents_mating", "keep_parents", "tournament_size", "rng_seed"):
            require_int(name, getattr(self, name))
        if self.saturate_k is not None:
            require_int("saturate_k", self.saturate_k)
        for name in ("reach_zero", "keep_selected_parents"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not 1 <= self.parents_mating <= self.population:
            raise ValueError(f"parents_mating must lie in [1, population], got {self.parents_mating}")
        if not 0 <= self.keep_parents <= self.parents_mating:
            raise ValueError(f"keep_parents must lie in [0, parents_mating], got {self.keep_parents}")
        if not 1 <= self.tournament_size <= self.population:
            raise ValueError(f"tournament_size must lie in [1, population], got {self.tournament_size}")
        if not 0.0 < self.mutation_fraction <= 1.0:
            raise ValueError(f"mutation_fraction must lie in (0, 1], got {self.mutation_fraction}")
        if self.saturate_k is not None and self.saturate_k < 1:
            raise ValueError(f"saturate_k must be >= 1 or None, got {self.saturate_k}")


@dataclass(frozen=True, eq=False)
class GaRun:
    """Outcome of one engine run.

    ``trace`` holds the best fitness of every evaluated generation;
    ``termination`` is one of "generations", "saturate", "reach_zero".
    """

    population: np.ndarray
    fitnesses: np.ndarray
    best_genome: np.ndarray
    best_fitness: float
    trace: tuple[float, ...]
    termination: str

    @property
    def generations_run(self) -> int:
        return len(self.trace)


def tournament_select(population, fitnesses, k: int, rng: np.random.Generator) -> int:
    """Sample k distinct contenders uniformly; return the index of the fittest.

    Ties go to the lowest index.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    n = fitnesses.size
    if len(population) != n:
        raise ValueError(f"population size {len(population)} does not match {n} fitness values")
    if not 1 <= k <= n:
        raise ValueError(f"tournament size must lie in [1, {n}], got {k}")
    contenders = np.sort(rng.choice(n, size=k, replace=False))
    return int(contenders[np.argmax(fitnesses[contenders])])


def single_point_crossover(a, b, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Swap tails at a uniform cut point in [1, L-1]; length-1 genomes return copies."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("parents must be 1-d and of equal length")
    length = a.size
    if length == 1:
        return a.copy(), b.copy()
    cut = int(rng.integers(1, length))
    child1 = np.concatenate([a[:cut], b[cut:]])
    child2 = np.concatenate([b[:cut], a[cut:]])
    return child1, child2


def mutate(genome, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Resample ``round(fraction * L)`` distinct genes uniformly in [0, 1]."""
    g = np.asarray(genome, dtype=float)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"mutation fraction must lie in [0, 1], got {fraction}")
    out = g.copy()
    count = int(round(fraction * g.size))
    if count == 0:
        return out
    where = rng.choice(g.size, size=count, replace=False)
    out[where] = rng.random(count)
    return out


def _next_generation(pop: np.ndarray, fits: np.ndarray, order: np.ndarray, config: GaConfig, rng) -> np.ndarray:
    parent_idx = [tournament_select(pop, fits, config.tournament_size, rng) for _ in range(config.parents_mating)]
    parents = pop[np.array(parent_idx, dtype=int)]
    if config.keep_selected_parents:
        elites = parents[: config.keep_parents].copy()
    else:
        elites = pop[order[: config.keep_parents]].copy()
    n_children = config.population - config.keep_parents
    children = np.empty((n_children, pop.shape[1]))
    made = 0
    pair = 0
    while made < n_children:
        a = parents[pair % len(parents)]
        b = parents[(pair + 1) % len(parents)]
        pair += 1
        c1, c2 = single_point_crossover(a, b, rng)
        children[made] = mutate(c1, config.mutation_fraction, rng)
        made += 1
        if made < n_children:
            children[made] = mutate(c2, config.mutation_fraction, rng)
            made += 1
    return np.vstack([elites, children])


def run_ga(config: GaConfig, genome_length: int, fitness) -> GaRun:
    """Evolve a uniform-random [0,1] population against ``fitness``.

    ``fitness`` maps the (population, genome_length) gene matrix of a
    generation to one float per genome (higher is better; -inf is a valid
    rejection sentinel, NaN is coerced to -inf with one warning per
    generation). It is called once per generation. The run is fully
    determined by (config, genome_length, fitness).
    """
    if genome_length < 1:
        raise ValueError(f"genome_length must be >= 1, got {genome_length}")
    rng = np.random.default_rng(config.rng_seed)
    pop = rng.random((config.population, genome_length))
    best_genome = pop[0].copy()
    best_fitness = -math.inf
    stale = 0
    trace: list[float] = []
    termination = TERMINATED_GENERATIONS
    for gen in range(1, config.generations + 1):
        fits = np.array(fitness(pop), dtype=float)
        if fits.shape != (config.population,):
            raise ValueError(f"fitness returned shape {fits.shape} for a population of {config.population}")
        nan = np.isnan(fits)
        if nan.any():
            logger.warning("fitness returned NaN for %d of %d individuals in generation %d; using -inf", nan.sum(), nan.size, gen)
            fits[nan] = -math.inf
        order = np.argsort(-fits, kind="stable")
        gen_best = float(fits[order[0]])
        trace.append(gen_best)
        if gen_best > best_fitness:
            best_fitness = gen_best
            best_genome = pop[order[0]].copy()
            stale = 0
        else:
            stale += 1
        if config.reach_zero and gen_best >= 0.0:
            termination = TERMINATED_REACH_ZERO
            break
        if config.saturate_k is not None and stale >= config.saturate_k:
            termination = TERMINATED_SATURATE
            break
        if gen == config.generations:
            break
        pop = _next_generation(pop, fits, order, config, rng)
    return GaRun(
        population=pop,
        fitnesses=fits,
        best_genome=best_genome,
        best_fitness=best_fitness,
        trace=tuple(trace),
        termination=termination,
    )
