import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidar_cfe import GaConfig, ga, run_ga
from lidar_cfe.ga import _next_generation, crossover_rows, mutate_rows, tournament_rows

from oracles import Recorded, frozen_mutate_rows, frozen_next_generation, rowwise


def l1_objective(pop):
    """Known optimum 0 at every gene = 0.5; one value per genome (row)."""
    return -np.abs(np.asarray(pop) - 0.5).sum(axis=1)


def chi_square(counts) -> float:
    """Pearson's statistic for counts expected to be equal."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


# Upper 0.1 % points of the chi-square distribution, by degrees of freedom.
CHI2_999 = {6: 22.458, 9: 27.877}


class FixedCut:
    """Stand-in rng whose integers() always returns a chosen cut point."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, lo, hi, size):
        assert lo <= self.cut < hi
        return np.full(size, self.cut)


class TestCrossover:
    def test_forced_cut_point(self):
        a = np.zeros((4, 6))
        b = np.ones((4, 6))
        c1, c2 = crossover_rows(a, b, FixedCut(3))
        assert c1.tolist() == [[0, 0, 0, 1, 1, 1]] * 4
        assert c2.tolist() == [[1, 1, 1, 0, 0, 0]] * 4

    def test_equal_parents_give_equal_children(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 8))
        for cut in range(1, 8):
            c1, c2 = crossover_rows(a, a, FixedCut(cut))
            assert np.array_equal(c1, a) and np.array_equal(c2, a)

    def test_length_one_copies_parents(self):
        rng = np.random.default_rng(1)
        a, b = np.array([[0.2], [0.3]]), np.array([[0.9], [0.8]])
        c1, c2 = crossover_rows(a, b, rng)
        assert c1.tolist() == [[0.2], [0.3]] and c2.tolist() == [[0.9], [0.8]]

    def test_positionwise_multiset_preserved(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((50, 12)), rng.random((50, 12))
        c1, c2 = crossover_rows(a, b, rng)
        for row in range(50):
            for i in range(12):
                assert {c1[row, i], c2[row, i]} == {a[row, i], b[row, i]}

    def test_cut_points_uniform(self):
        # A cut at c gives child 1 the first c genes of the all-zero parent
        # and the rest of the all-one parent; child 2 is the complement.
        rng = np.random.default_rng(15)
        length, pairs = 8, 70_000
        c1, c2 = crossover_rows(np.zeros((pairs, length)), np.ones((pairs, length)), rng)
        cuts = (c1 == 0).sum(axis=1)
        assert np.array_equal(c1, (np.arange(length) >= cuts[:, None]).astype(float))
        assert np.array_equal(c2, 1.0 - c1)
        counts = np.bincount(cuts, minlength=length)
        assert counts[0] == 0 and counts[length:].sum() == 0
        assert chi_square(counts[1:length]) < CHI2_999[length - 2]

    def test_searches_mate_float_parents_of_one_shape(self, monkeypatch):
        # crossover_rows trusts its parents to be two (pairs, L) float arrays of one shape.
        seen = []

        def spy(a, b, rng):
            seen.append((a.dtype, b.dtype, a.shape, b.shape))
            return crossover_rows(a, b, rng)

        monkeypatch.setattr(ga, "crossover_rows", spy)
        configs = [(30, 4, 2), (31, 4, 2), (5, 1, 0), (4, 4, 4), (1, 1, 1)]  # population, parents_mating, keep_parents
        for length in (1, 6):
            for population, parents_mating, keep_parents in configs:
                config = GaConfig(
                    generations=3, population=population, parents_mating=parents_mating, keep_parents=keep_parents,
                    tournament_size=1, saturate_k=None, reach_zero=False,
                )
                seen.clear()
                run_ga(config, length, l1_objective, 0)
                pairs = (population - keep_parents + 1) // 2
                assert seen == [(np.dtype(float), np.dtype(float), (pairs, length), (pairs, length))] * 2


class TestMutate:
    def test_fraction_zero_is_identity(self):
        rng = np.random.default_rng(4)
        g = rng.random((3, 10))
        assert np.array_equal(mutate_rows(g, 0.0, rng), g)

    def test_fraction_one_resamples_everything(self):
        rng = np.random.default_rng(5)
        g = np.full((4, 20), 0.5)
        out = mutate_rows(g, 1.0, rng)
        assert np.all((out >= 0) & (out <= 1))
        assert np.all(np.count_nonzero(out != 0.5, axis=1) == 20)  # collision has probability 0

    def test_exact_count_of_changed_positions(self):
        rng = np.random.default_rng(6)
        g = np.full((200, 30), 0.5)
        out = mutate_rows(g, 0.2, rng)
        assert np.all(np.count_nonzero(out != g, axis=1) == 6)

    def test_untouched_genes_identical(self):
        rng = np.random.default_rng(7)
        g = rng.random((20, 30))
        out = mutate_rows(g, 0.2, rng)
        for row in range(20):
            changed = np.flatnonzero(out[row] != g[row])
            assert changed.size <= 6
            untouched = np.setdiff1d(np.arange(30), changed)
            assert np.array_equal(out[row, untouched], g[row, untouched])

    def test_input_not_modified(self):
        rng = np.random.default_rng(16)
        g = np.full((5, 10), 0.5)
        mutate_rows(g, 0.5, rng)
        assert np.all(g == 0.5)

    def test_mutated_positions_uniform(self):
        rng = np.random.default_rng(17)
        length = 10
        out = mutate_rows(np.full((20_000, length), 2.0), 0.2, rng)  # 2.0 marks an untouched gene
        counts = (out != 2.0).sum(axis=0)
        assert counts.sum() == 20_000 * 2
        assert chi_square(counts) < CHI2_999[length - 1]

    def test_fraction_out_of_range_rejected(self):
        # mutate_rows trusts its fraction; GaConfig, which gives it, checks it.
        for fraction in (0.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="mutation_fraction must lie in"):
                GaConfig(mutation_fraction=fraction)


class TestTournament:
    def test_full_tournament_returns_global_argmax(self):
        rng = np.random.default_rng(9)
        fits = rng.normal(size=25)
        assert np.all(tournament_rows(fits, 10, 25, rng) == int(np.argmax(fits)))

    def test_single_contender_is_uniform_draw(self):
        rng = np.random.default_rng(10)
        fits = np.arange(10.0)
        assert set(tournament_rows(fits, 500, 1, rng).tolist()) == set(range(10))

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(11)
        assert np.all(tournament_rows(np.zeros(6), 50, 6, rng) == 0)
        # Among tied contenders the lowest index wins, so with every fitness
        # equal the winner is the smallest of k distinct uniform draws:
        # P(winner = 0) = k / n.
        n, k, draws = 20, 3, 100_000
        freq = np.mean(tournament_rows(np.zeros(n), draws, k, rng) == 0)
        assert abs(freq - k / n) / (k / n) < 0.02

    def test_best_selection_frequency_matches_closed_form(self):
        # P(best is drawn into a k-of-n tournament) = k / n.
        rng = np.random.default_rng(12)
        n, k, draws = 20, 3, 100_000
        fits = np.arange(float(n))
        best = n - 1
        freq = np.mean(tournament_rows(fits, draws, k, rng) == best)
        assert abs(freq - k / n) / (k / n) < 0.02

    def test_size_validation(self):
        # tournament_rows trusts its size k; GaConfig keeps it within [1, population].
        for size in (0, 5):
            with pytest.raises(ValueError, match="tournament_size must lie in"):
                GaConfig(population=4, parents_mating=1, keep_parents=0, tournament_size=size)


def breed(population: int, keep_parents: int, genome_length: int, seed: int = 0):
    """One generation from a population whose row i holds the constant i.

    The mutation fraction rounds to zero resampled genes, so every child gene
    names the individual it was copied from. Returns the population, its
    fitness order and the next generation.
    """
    rng = np.random.default_rng(seed)
    pop = np.repeat(np.arange(float(population))[:, None], genome_length, axis=1)
    fits = rng.normal(size=population)
    order = np.argsort(-fits, kind="stable")
    config = GaConfig(
        population=population,
        parents_mating=4,
        keep_parents=keep_parents,
        mutation_fraction=0.01,
    )
    return pop, order, _next_generation(pop, fits, order, config, rng)


class TestNextGeneration:
    @pytest.mark.parametrize("population", [30, 31])  # an even and an odd child count
    def test_pairs_wrap_and_children_interleave(self, population):
        pop, _, nxt = breed(population, keep_parents=2, genome_length=6)
        children = nxt[2:]
        n_children = population - 2
        assert nxt.shape == (population, 6) and len(children) == n_children
        # Pair p mates parents p % 4 and (p + 1) % 4; its children are rows 2p
        # (head of parent p) and 2p + 1 (head of parent p + 1).
        n_pairs = (n_children + 1) // 2
        parents = children[0::2, 0]
        assert np.array_equal(parents[4:], parents[: n_pairs - 4])
        for p in range(n_pairs):
            a, b = parents[p % 4], parents[(p + 1) % 4]
            assert children[2 * p, 0] == a and children[2 * p, -1] == b
            if 2 * p + 1 < n_children:
                assert children[2 * p + 1, 0] == b and children[2 * p + 1, -1] == a
                assert np.array_equal(children[2 * p] + children[2 * p + 1], np.full(6, a + b))

    def test_length_one_copies_parents(self):
        _, _, nxt = breed(31, keep_parents=2, genome_length=1)
        children = nxt[2:, 0]
        parents = children[0::2]
        for p in range(len(children) // 2):
            assert children[2 * p + 1] == parents[(p + 1) % 4]

    def test_elites_copied_unchanged(self):
        pop, order, nxt = breed(30, keep_parents=3, genome_length=6)
        assert np.array_equal(nxt[:3], pop[order[:3]])  # the three fittest


@st.composite
def breeding_cases(draw):
    """A config, a genome length and a seed; fitnesses hold ties and -inf."""
    population = draw(st.integers(1, 40))
    parents_mating = draw(st.integers(1, population))
    config = GaConfig(
        population=population,
        parents_mating=parents_mating,
        keep_parents=draw(st.integers(0, parents_mating)),
        tournament_size=draw(st.integers(1, population)),
        mutation_fraction=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
    )
    return config, draw(st.integers(1, 13)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=breeding_cases())
@example(case=(GaConfig(population=8, parents_mating=3, keep_parents=0, tournament_size=2, mutation_fraction=1.0), 1, 5))
@example(case=(GaConfig(population=12, parents_mating=4, keep_parents=1, tournament_size=3, mutation_fraction=1.0), 6, 6))
def test_breeding_equals_the_frozen_operators(case):
    config, length, seed = case
    rng = np.random.default_rng(seed)
    pop = rng.random((config.population, length))
    fits = np.where(rng.random(config.population) < 0.2, -math.inf, np.round(rng.normal(size=config.population), 1))
    order = np.argsort(-fits, kind="stable")
    ours, frozen = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert _next_generation(pop, fits, order, config, ours).tobytes() == frozen_next_generation(pop, fits, order, config, frozen).tobytes()
    assert mutate_rows(pop, config.mutation_fraction, ours).tobytes() == frozen_mutate_rows(pop, config.mutation_fraction, frozen).tobytes()
    assert ours.random() == frozen.random()  # the same draws, so the generators stay in step


class TestRunGa:
    def test_constant_zero_reaches_zero_immediately(self):
        run = run_ga(GaConfig(), 6, rowwise(lambda g: 0.0), 0)
        assert run.termination == "reach_zero"
        assert run.generations_run == 1

    def test_search_stopping_in_generation_one_returns_the_seeded_draw(self):
        # The first generation is rng.random((population, L)) from the run's
        # seed, before any operator draws; a search that stops there depends
        # on nothing else.
        def half_satisfied(pop):
            return np.where(pop[:, 0] > 0.5, 0.0, -1.0)

        objective = Recorded(half_satisfied)
        run = run_ga(GaConfig(), 6, objective, 3)
        pop = np.random.default_rng(3).random((100, 6))
        assert run.termination == "reach_zero" and run.trace == (0.0,) and run.best_fitness == 0.0
        assert len(objective.populations) == 1 and np.array_equal(objective.populations[0], pop)
        assert np.array_equal(run.best_genome, pop[np.argmax(pop[:, 0] > 0.5)])

    def test_constant_negative_saturates_after_k_plus_one(self):
        run = run_ga(GaConfig(saturate_k=10, reach_zero=True), 6, rowwise(lambda g: -1.0), 0)
        assert run.termination == "saturate"
        assert run.generations_run == 11

    def test_generation_cap(self):
        run = run_ga(GaConfig(generations=7, saturate_k=None, reach_zero=False), 6, l1_objective, 0)
        assert run.termination == "generations"
        assert run.generations_run == 7

    def test_trace_monotone_under_elitism(self):
        run = run_ga(GaConfig(saturate_k=None), 12, l1_objective, 1)
        trace = np.array(run.trace)
        assert np.all(np.diff(trace) >= 0.0)
        assert run.best_fitness == trace[-1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([-math.inf, -0.0, 0.0]) | st.floats(allow_nan=False), min_size=4, max_size=4), min_size=1, max_size=8))
    @example([[-math.inf] * 4] * 3)
    @example([[-0.0] * 4, [0.0, -0.0, 0.0, -0.0], [-1.0] * 4])
    @example([[-math.inf, 0.0, -0.0, -math.inf], [-0.0, -0.0, 0.0, -1.0]])
    def test_best_fitness_is_the_running_best_of_the_trace(self, generations):
        scores = iter(generations)
        objective = Recorded(lambda pop: np.array(next(scores)))
        config = GaConfig(len(generations), 4, 2, 1, 2, saturate_k=None, reach_zero=False)
        run = run_ga(config, 3, objective, 0)
        assert [np.float64(v).tobytes() for v in run.trace] == [np.float64(max(fits)).tobytes() for fits in generations]
        best = -math.inf
        for value in run.trace:
            if value > best:
                best = value
        assert np.float64(run.best_fitness).tobytes() == np.float64(best).tobytes()
        # The best genome is the first to reach that fitness: -inf or a tie (0.0 and -0.0) never takes its place.
        gen = next(g for g, value in enumerate(run.trace) if value == best)
        fits = objective.fitnesses[gen]
        assert np.array_equal(run.best_genome, objective.populations[gen][np.argmax(fits == fits.max())])

    def test_population_size_and_gene_range_every_generation(self):
        calls = []

        def spy(pop):
            g = np.asarray(pop)
            assert np.all((g >= 0.0) & (g <= 1.0))
            calls.append(g.shape)
            return l1_objective(g)

        config = GaConfig(generations=12, saturate_k=None, reach_zero=False)
        run_ga(config, 6, spy, 2)
        assert calls == [(config.population, 6)] * 12  # one call per generation, scoring the whole population

    def test_seed_determinism(self):
        cfg = GaConfig()
        o1, o2 = Recorded(l1_objective), Recorded(l1_objective)
        r1 = run_ga(cfg, 6, o1, 33)
        r2 = run_ga(cfg, 6, o2, 33)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.best_genome, r2.best_genome)
        assert len(o1.populations) == len(o2.populations)
        assert all(np.array_equal(a, b) for a, b in zip(o1.populations, o2.populations))
        assert r1.termination == r2.termination

    def test_different_seeds_differ(self):
        r1 = run_ga(GaConfig(), 6, l1_objective, 0)
        r2 = run_ga(GaConfig(), 6, l1_objective, 1)
        assert not np.array_equal(r1.best_genome, r2.best_genome)

    def test_nan_fitness_treated_as_rejection(self, caplog):
        nan_counts = []

        def sometimes_nan(pop):
            nan = pop[:, 0] > 0.95
            nan_counts.append(int(nan.sum()))
            return np.where(nan, math.nan, l1_objective(pop))

        config = GaConfig(generations=3, saturate_k=None, reach_zero=False)
        objective = Recorded(sometimes_nan)
        with caplog.at_level(logging.WARNING, logger="lidar_cfe.ga"):
            run = run_ga(config, 4, objective, 4)
        assert math.isfinite(run.best_fitness)
        # No NaN-scored individual comes back as an elite, one of the next generation's first keep_parents rows.
        for pop, fits, nxt in zip(objective.populations, objective.fitnesses, objective.populations[1:]):
            for elite in nxt[: config.keep_parents]:
                same = np.all(pop == elite, axis=1)
                assert same.any() and not np.isnan(fits[same]).any()
        # One record per generation that had NaN, giving that generation's count.
        warned = [record.getMessage() for record in caplog.records if "NaN" in record.getMessage()]
        affected = [(gen, count) for gen, count in enumerate(nan_counts, start=1) if count]
        assert affected
        assert len(warned) == len(affected)
        for message, (gen, count) in zip(warned, affected):
            assert f"NaN for {count} of 100 individuals in generation {gen}" in message
        # NaN scores are coerced to -inf: a generation scored all NaN reads -inf in the trace.
        all_nan = iter([l1_objective, lambda pop: np.full(len(pop), math.nan), l1_objective])
        run = run_ga(config, 4, lambda pop: next(all_nan)(pop), 4)
        assert run.trace[1] == -math.inf and math.isfinite(run.trace[2])

    def test_objective_must_return_one_value_per_genome(self):
        with pytest.raises(ValueError, match="shape"):
            run_ga(GaConfig(), 6, lambda pop: l1_objective(pop)[:-1], 0)
        with pytest.raises(ValueError, match="shape"):
            run_ga(GaConfig(), 6, lambda pop: 0.0, 0)

    def test_converges_on_analytic_objective(self):
        # Full-budget runs; a handful of seeds here, the wide sweep lives in
        # the acceptance suite.
        for seed in range(5):
            run = run_ga(GaConfig(saturate_k=None), 6, l1_objective, seed)
            assert run.best_fitness >= -0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(parents_mating=200)
        with pytest.raises(ValueError):
            GaConfig(keep_parents=11, parents_mating=10)
        with pytest.raises(ValueError):
            GaConfig(mutation_fraction=0.0)
        with pytest.raises(TypeError):
            GaConfig(crossover="two_point")
        with pytest.raises(ValueError):
            GaConfig(tournament_size=0)
        with pytest.raises(ValueError):
            GaConfig(generations=2.5)
        with pytest.raises(ValueError):
            GaConfig(population=True)

    def test_genome_length_validated(self):
        with pytest.raises(ValueError):
            run_ga(GaConfig(), 0, l1_objective, 0)
