"""Real-coded genetic algorithm with tournament selection, single-point
crossover, uniform gene resampling, and elitism.

Each generation is bred from a few whole-array random draws: the operators
work on every tournament, pair or child at once, one per row."""

from __future__ import annotations

import logging
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

TERMINATED_GENERATIONS = "generations"
TERMINATED_SATURATE = "saturate"
TERMINATED_REACH_ZERO = "reach_zero"


def require_int(name: str, value, error: type[Exception] = ValueError) -> int:
    """``value`` as an int; ``error`` unless it is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a real number a float can hold (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class GaConfig:
    """Engine settings.

    A run stops at the generation cap, after ``saturate_k`` generations
    without best-fitness improvement (exact comparison), or as soon as the
    best fitness reaches zero when ``reach_zero`` is set (for penalty-style
    objectives whose optimum is 0).
    """

    generations: int = 100
    population: int = 100
    parents_mating: int = 10
    keep_parents: int = 10
    tournament_size: int = 3
    mutation_fraction: float = 0.20
    saturate_k: int | None = 10
    reach_zero: bool = True

    def __post_init__(self) -> None:
        for name in ("generations", "population", "parents_mating", "keep_parents", "tournament_size"):
            require_int(name, getattr(self, name))
        if self.saturate_k is not None:
            require_int("saturate_k", self.saturate_k)
        if not isinstance(self.reach_zero, bool):
            raise ValueError(f"reach_zero must be true or false, got {self.reach_zero!r}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 1 <= self.population <= sys.maxsize:
            raise ValueError(f"population must lie in [1, {sys.maxsize}], got {self.population}")
        if not 1 <= self.parents_mating <= self.population:
            raise ValueError(f"parents_mating must lie in [1, population], got {self.parents_mating}")
        if not 0 <= self.keep_parents <= self.parents_mating:
            raise ValueError(f"keep_parents must lie in [0, parents_mating], got {self.keep_parents}")
        if not 1 <= self.tournament_size <= self.population:
            raise ValueError(f"tournament_size must lie in [1, population], got {self.tournament_size}")
        if not 0.0 < require_real("mutation_fraction", self.mutation_fraction) <= 1.0:
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


def tournament_rows(fitnesses: np.ndarray, n_winners: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Run ``n_winners`` independent k-contender tournaments; return the winners' indices.

    Each row of one random-key matrix names its k smallest keys as the
    contenders, a uniform draw of k distinct individuals. Ties go to the
    lowest index. ``GaConfig`` keeps k within [1, population].
    """
    contenders = np.sort(np.argpartition(rng.random((n_winners, fitnesses.size)), k - 1, axis=1)[:, :k], axis=1)
    return contenders[np.arange(n_winners), np.argmax(fitnesses[contenders], axis=1)]


def crossover_rows(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Swap the tails of each row pair at its own uniform cut point in [1, L-1].

    ``a`` and ``b`` are (pairs, L) float arrays of one shape; row i of the
    children mixes row i of each. Length-1 genomes are copied.
    """
    length = a.shape[1]
    if length == 1:
        return a.copy(), b.copy()
    head = np.arange(length) < rng.integers(1, length, size=len(a))[:, np.newaxis]
    return np.where(head, a, b), np.where(head, b, a)


def mutate_rows(genomes: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """A copy of a (P, L) float array with ``round(fraction * L)`` distinct
    genes of each row resampled uniformly in [0, 1]; ``fraction`` lies in [0, 1]."""
    out = genomes.copy()
    count = int(round(fraction * out.shape[1]))
    if count == 0:
        return out
    where = np.argpartition(rng.random(out.shape), count - 1, axis=1)[:, :count]
    out[np.arange(len(out))[:, np.newaxis], where] = rng.random((len(out), count))
    return out


def _next_generation(pop: np.ndarray, fits: np.ndarray, order: np.ndarray, config: GaConfig, rng) -> np.ndarray:
    parents = pop[tournament_rows(fits, config.parents_mating, config.tournament_size, rng)]
    keep = config.keep_parents
    pair = np.arange((config.population - keep + 1) // 2)  # pair p mates parents p and p + 1, wrapping around
    children = np.empty((2 * pair.size, pop.shape[1]))
    children[0::2], children[1::2] = crossover_rows(parents[pair % len(parents)], parents[(pair + 1) % len(parents)], rng)
    nxt = np.empty_like(pop)
    nxt[:keep] = pop[order[:keep]]
    nxt[keep:] = mutate_rows(children[: len(nxt) - keep], config.mutation_fraction, rng)
    return nxt


def run_ga(config: GaConfig, genome_length: int, fitness, seed: int) -> GaRun:
    """Evolve a uniform-random [0,1] population against ``fitness``, drawing from ``default_rng(seed)``.

    ``fitness`` maps the (population, genome_length) gene matrix of a
    generation to one float per genome (higher is better; -inf is a valid
    rejection sentinel, NaN is coerced to -inf with one warning per
    generation). It is called once per generation. The run is fully
    determined by (config, genome_length, fitness, seed).
    """
    if genome_length < 1:
        raise ValueError(f"genome_length must be >= 1, got {genome_length}")
    rng = np.random.default_rng(seed)
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
