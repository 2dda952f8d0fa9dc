import logging
import math

import numpy as np
import pytest

from lidar_cfe import (
    GaConfig,
    mutate,
    run_ga,
    single_point_crossover,
    tournament_select,
)

from oracles import rowwise


def l1_objective(pop):
    """Known optimum 0 at every gene = 0.5; one value per genome (row)."""
    return -np.abs(np.asarray(pop) - 0.5).sum(axis=1)


class FixedCut:
    """Stand-in rng whose integers() always returns a chosen cut point."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, lo, hi):
        assert lo <= self.cut < hi
        return self.cut


class TestCrossover:
    def test_forced_cut_point(self):
        a = np.zeros(6)
        b = np.ones(6)
        c1, c2 = single_point_crossover(a, b, FixedCut(3))
        assert c1.tolist() == [0, 0, 0, 1, 1, 1]
        assert c2.tolist() == [1, 1, 1, 0, 0, 0]

    def test_equal_parents_give_equal_children(self):
        rng = np.random.default_rng(0)
        a = rng.random(8)
        for cut in range(1, 8):
            c1, c2 = single_point_crossover(a, a, FixedCut(cut))
            assert np.array_equal(c1, a) and np.array_equal(c2, a)

    def test_length_one_copies_parents(self):
        rng = np.random.default_rng(1)
        a, b = np.array([0.2]), np.array([0.9])
        c1, c2 = single_point_crossover(a, b, rng)
        assert c1[0] == 0.2 and c2[0] == 0.9

    def test_positionwise_multiset_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.random(12), rng.random(12)
            c1, c2 = single_point_crossover(a, b, rng)
            for i in range(12):
                assert {c1[i], c2[i]} == {a[i], b[i]}

    def test_mismatched_parents_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            single_point_crossover(np.zeros(3), np.zeros(4), rng)


class TestMutate:
    def test_fraction_zero_is_identity(self):
        rng = np.random.default_rng(4)
        g = rng.random(10)
        assert np.array_equal(mutate(g, 0.0, rng), g)

    def test_fraction_one_resamples_everything(self):
        rng = np.random.default_rng(5)
        g = np.full(20, 0.5)
        out = mutate(g, 1.0, rng)
        assert np.all((out >= 0) & (out <= 1))
        assert np.count_nonzero(out != 0.5) == 20  # collision has probability 0

    def test_exact_count_of_changed_positions(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = np.full(30, 0.5)
            out = mutate(g, 0.2, rng)
            assert np.count_nonzero(out != g) == 6

    def test_untouched_genes_identical(self):
        rng = np.random.default_rng(7)
        g = rng.random(30)
        out = mutate(g, 0.2, rng)
        changed = np.flatnonzero(out != g)
        assert changed.size <= 6
        untouched = np.setdiff1d(np.arange(30), changed)
        assert np.array_equal(out[untouched], g[untouched])

    def test_fraction_out_of_range_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            mutate(np.zeros(4), 1.5, rng)


class TestTournament:
    def test_full_tournament_returns_global_argmax(self):
        rng = np.random.default_rng(9)
        fits = rng.normal(size=25)
        pop = np.zeros((25, 3))
        for _ in range(10):
            assert tournament_select(pop, fits, 25, rng) == int(np.argmax(fits))

    def test_single_contender_is_uniform_draw(self):
        rng = np.random.default_rng(10)
        fits = np.arange(10.0)
        pop = np.zeros((10, 2))
        seen = {tournament_select(pop, fits, 1, rng) for _ in range(500)}
        assert seen == set(range(10))

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(11)
        fits = np.zeros(6)
        pop = np.zeros((6, 2))
        for _ in range(50):
            winner = tournament_select(pop, fits, 6, rng)
            assert winner == 0

    def test_best_selection_frequency_matches_closed_form(self):
        # P(best is drawn into a k-of-n tournament) = k / n.
        rng = np.random.default_rng(12)
        n, k, draws = 20, 3, 100_000
        fits = np.arange(float(n))
        pop = np.zeros((n, 1))
        best = n - 1
        hits = sum(tournament_select(pop, fits, k, rng) == best for _ in range(draws))
        freq = hits / draws
        assert abs(freq - k / n) / (k / n) < 0.02

    def test_size_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            tournament_select(np.zeros((4, 1)), np.zeros(4), 0, rng)
        with pytest.raises(ValueError):
            tournament_select(np.zeros((4, 1)), np.zeros(4), 5, rng)


class TestRunGa:
    def test_constant_zero_reaches_zero_immediately(self):
        run = run_ga(GaConfig(rng_seed=0), 6, rowwise(lambda g: 0.0))
        assert run.termination == "reach_zero"
        assert run.generations_run == 1

    def test_constant_negative_saturates_after_k_plus_one(self):
        run = run_ga(GaConfig(rng_seed=0, saturate_k=10, reach_zero=True), 6, rowwise(lambda g: -1.0))
        assert run.termination == "saturate"
        assert run.generations_run == 11

    def test_generation_cap(self):
        run = run_ga(GaConfig(rng_seed=0, generations=7, saturate_k=None, reach_zero=False), 6, l1_objective)
        assert run.termination == "generations"
        assert run.generations_run == 7

    def test_trace_monotone_under_elitism(self):
        run = run_ga(GaConfig(rng_seed=1, saturate_k=None), 12, l1_objective)
        trace = np.array(run.trace)
        assert np.all(np.diff(trace) >= 0.0)
        assert run.best_fitness == trace[-1]

    def test_population_size_and_gene_range_every_generation(self):
        calls = []

        def spy(pop):
            g = np.asarray(pop)
            assert np.all((g >= 0.0) & (g <= 1.0))
            calls.append(len(g))
            return l1_objective(g)

        config = GaConfig(rng_seed=2, generations=12, saturate_k=None, reach_zero=False)
        run = run_ga(config, 6, spy)
        assert calls == [config.population] * 12  # one call per generation, scoring the whole population
        assert run.population.shape == (config.population, 6)
        assert np.all((run.population >= 0.0) & (run.population <= 1.0))

    def test_seed_determinism(self):
        cfg = GaConfig(rng_seed=33)
        r1 = run_ga(cfg, 6, l1_objective)
        r2 = run_ga(cfg, 6, l1_objective)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.best_genome, r2.best_genome)
        assert np.array_equal(r1.population, r2.population)
        assert r1.termination == r2.termination

    def test_different_seeds_differ(self):
        r1 = run_ga(GaConfig(rng_seed=0), 6, l1_objective)
        r2 = run_ga(GaConfig(rng_seed=1), 6, l1_objective)
        assert not np.array_equal(r1.best_genome, r2.best_genome)

    def test_nan_fitness_treated_as_rejection(self, caplog):
        nan_counts = []

        def sometimes_nan(pop):
            nan = pop[:, 0] > 0.95
            nan_counts.append(int(nan.sum()))
            return np.where(nan, math.nan, l1_objective(pop))

        with caplog.at_level(logging.WARNING, logger="lidar_cfe.ga"):
            run = run_ga(GaConfig(rng_seed=4, generations=3, saturate_k=None, reach_zero=False), 4, sometimes_nan)
        assert math.isfinite(run.best_fitness)
        assert not np.any(np.isnan(run.fitnesses))
        # One record per generation that had NaN, giving that generation's count.
        warned = [record.getMessage() for record in caplog.records if "NaN" in record.getMessage()]
        affected = [(gen, count) for gen, count in enumerate(nan_counts, start=1) if count]
        assert affected
        assert len(warned) == len(affected)
        for message, (gen, count) in zip(warned, affected):
            assert f"NaN for {count} of 100 individuals in generation {gen}" in message

    def test_objective_must_return_one_value_per_genome(self):
        with pytest.raises(ValueError, match="shape"):
            run_ga(GaConfig(rng_seed=0), 6, lambda pop: l1_objective(pop)[:-1])
        with pytest.raises(ValueError, match="shape"):
            run_ga(GaConfig(rng_seed=0), 6, lambda pop: 0.0)

    def test_converges_on_analytic_objective(self):
        # Full-budget runs; a handful of seeds here, the wide sweep lives in
        # the acceptance suite.
        for seed in range(5):
            run = run_ga(GaConfig(rng_seed=seed, saturate_k=None), 6, l1_objective)
            assert run.best_fitness >= -0.05

    def test_keep_selected_parents_mode_runs(self):
        config = GaConfig(rng_seed=5, generations=10, saturate_k=None, reach_zero=False, keep_selected_parents=True)
        run = run_ga(config, 6, l1_objective)
        assert run.generations_run == 10

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
            run_ga(GaConfig(), 0, l1_objective)
