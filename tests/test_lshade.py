"""Optimizer tests: selection rules, parameter adaptation, trial
generation contracts, convergence, and the deadline/determinism behavior."""

import time

import numpy as np
import pytest

from nurbsnav.lshade import (Individual, OptimizerConfig, ProblemDef,
                             SuccessMemory, adapt, generate_trial, optimize,
                             select)


def sphere_problem(dim=5, bound=5.0):
    return ProblemDef(dimension=dim, lower=np.full(dim, -bound),
                      upper=np.full(dim, bound),
                      objective=lambda x: float(x @ x))


# -- selection ------------------------------------------------------------

def test_feasible_beats_infeasible():
    parent = Individual(x=np.zeros(2), f=1.0, violation=0.1)
    trial = Individual(x=np.ones(2), f=2.0, violation=0.0)
    assert select(parent, trial) is trial


def test_feasible_compare_by_objective():
    parent = Individual(x=np.zeros(2), f=2.0, violation=0.0)
    trial = Individual(x=np.ones(2), f=3.0, violation=0.0)
    assert select(parent, trial) is parent


def test_infeasible_compare_by_violation():
    parent = Individual(x=np.zeros(2), f=0.1, violation=0.2)
    trial = Individual(x=np.ones(2), f=9.0, violation=0.1)
    assert select(parent, trial) is trial


def test_parent_wins_exact_tie():
    parent = Individual(x=np.zeros(2), f=1.0, violation=0.0)
    trial = Individual(x=np.ones(2), f=1.0, violation=0.0)
    assert select(parent, trial) is parent


# -- adaptation -----------------------------------------------------------

def test_linear_population_reduction():
    config = OptimizerConfig(budget=1000, n_min=4)
    memory = SuccessMemory(size=6)
    assert adapt([], memory, 500, config, 100) == 52


def test_empty_successes_leave_memory_unchanged():
    config = OptimizerConfig(budget=1000)
    memory = SuccessMemory(size=6)
    before_f = memory.m_f.copy()
    before_cr = memory.m_cr.copy()
    adapt([], memory, 100, config, 50)
    assert np.array_equal(memory.m_f, before_f)
    assert np.array_equal(memory.m_cr, before_cr)
    assert memory.index == 0


def test_weighted_lehmer_mean_hand_value():
    config = OptimizerConfig(budget=1000)
    memory = SuccessMemory(size=6)
    successes = [(0.5, 0.2, 1.0), (1.0, 0.4, 1.0)]
    adapt(successes, memory, 100, config, 50)
    # Equal weights: Lehmer mean (0.25 + 1.0) / (0.5 + 1.0) = 5/6.
    assert memory.m_f[0] == pytest.approx(5.0 / 6.0)
    assert memory.m_cr[0] == pytest.approx(0.3)
    assert memory.index == 1


# -- trial generation -----------------------------------------------------

def _population(rng, n=6, dim=3, bound=5.0):
    pop = []
    for _ in range(n):
        x = rng.uniform(-bound, bound, dim)
        pop.append(Individual(x=x, f=float(x @ x), violation=0.0))
    return pop


def test_crossover_zero_changes_one_coordinate():
    rng = np.random.default_rng(0)
    population = _population(rng)
    lower = np.full(3, -5.0)
    upper = np.full(3, 5.0)
    for i in range(50):
        trial = generate_trial(0, population, [], 0.7, 0.0, 0.2,
                               lower, upper, rng)
        assert np.sum(trial != population[0].x) == 1


def test_trials_respect_bounds():
    rng = np.random.default_rng(1)
    population = _population(rng, bound=1.0)
    lower = np.full(3, -1.0)
    upper = np.full(3, 1.0)
    for _ in range(100_000):
        trial = generate_trial(int(rng.integers(6)), population, [],
                               1.0, 0.9, 0.2, lower, upper, rng)
        assert np.all(trial >= lower) and np.all(trial <= upper)


def test_trial_sequence_deterministic():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        population = _population(np.random.default_rng(7))
        lower = np.full(3, -5.0)
        upper = np.full(3, 5.0)
        outs.append([generate_trial(0, population, [], 0.6, 0.5, 0.2,
                                    lower, upper, rng) for _ in range(20)])
    assert all(np.array_equal(a, b) for a, b in zip(*outs))


def test_tiny_population_rejected():
    rng = np.random.default_rng(0)
    population = _population(rng, n=3)
    with pytest.raises(ValueError):
        generate_trial(0, population, [], 0.5, 0.5, 0.2,
                       np.full(3, -5.0), np.full(3, 5.0), rng)


# -- full optimization ----------------------------------------------------

def test_sphere_convergence_single_seed():
    best, stats = optimize(sphere_problem(),
                           OptimizerConfig(budget=10_000, seed=0))
    assert best.f <= 1e-6
    assert stats.evaluations <= 10_000


def test_constrained_toy_single_seed():
    problem = ProblemDef(
        dimension=2, lower=np.array([-5.0, -5.0]), upper=np.array([5.0, 5.0]),
        objective=lambda x: float(x @ x),
        constraints=lambda x: np.array([max(0.0, 1.0 - x[0] - x[1])]),
    )
    best, _ = optimize(problem, OptimizerConfig(budget=20_000, seed=0))
    # Lower edge relaxed by float rounding: x = (0.5, 0.5) evaluates one
    # ulp below the analytic optimum.
    assert 0.5 - 1e-12 <= best.f <= 0.501
    assert best.violation == 0.0


def test_deadline_returns_promptly():
    problem = sphere_problem()
    start = time.perf_counter()
    best, stats = optimize(problem, OptimizerConfig(budget=10**9,
                                                    deadline=0.05, seed=0))
    elapsed = time.perf_counter() - start
    assert elapsed <= 0.05 + 0.02  # deadline plus one evaluation's latency
    assert stats.evaluations > 0


def test_optimize_deterministic_per_seed():
    runs = [optimize(sphere_problem(), OptimizerConfig(budget=2000, seed=3))
            for _ in range(2)]
    assert np.array_equal(runs[0][0].x, runs[1][0].x)
    assert runs[0][1].evaluations == runs[1][1].evaluations


def test_warm_start_kept_when_optimal():
    problem = sphere_problem()
    warm = np.zeros(5)
    best, _ = optimize(problem, OptimizerConfig(budget=200, seed=0),
                       warm_start=warm)
    assert best.f == 0.0
    assert np.array_equal(best.x, warm)


def test_zero_evaluations_is_an_error():
    with pytest.raises(RuntimeError):
        optimize(sphere_problem(),
                 OptimizerConfig(budget=100, deadline=1e-12, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(budget=0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, deadline=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, n_min=3)
    with pytest.raises(ValueError):
        ProblemDef(dimension=2, lower=np.array([0.0, 0.0]),
                   upper=np.array([0.0, 1.0]), objective=lambda x: 0.0)


# -- batched evaluation -----------------------------------------------------

def _as_batch(problem):
    """The same problem with a vectorized evaluator instead of callables."""
    def batch(xs):
        return np.sum(xs * xs, axis=1), np.zeros((xs.shape[0], 1))
    return ProblemDef(dimension=problem.dimension, lower=problem.lower,
                      upper=problem.upper, batch=batch)


def test_budget_not_multiple_of_population_is_exact():
    for budget in (103, 24, 7):
        _, stats = optimize(sphere_problem(),
                            OptimizerConfig(budget=budget, n_init=20, seed=0))
        assert stats.evaluations == budget


def test_batch_evaluation_matches_scalar_per_seed():
    config = OptimizerConfig(budget=997, n_init=30, seed=11)
    scalar = ProblemDef(dimension=5, lower=np.full(5, -5.0),
                        upper=np.full(5, 5.0),
                        objective=lambda x: float(np.sum(x * x)))
    runs = [optimize(p, config)
            for p in (scalar, _as_batch(scalar), _as_batch(scalar))]
    for best, stats in runs[1:]:
        assert np.array_equal(best.x, runs[0][0].x)
        assert best.f == runs[0][0].f
        assert (stats.evaluations, stats.generations) == \
            (runs[0][1].evaluations, runs[0][1].generations)


def test_batched_deadline_overrun_about_one_candidate():
    chunks = []  # (start time, size) of every batch

    def slow_batch(xs):
        # Busy-wait 1 ms per candidate: a costly evaluator, where a chunk
        # sized for more time than is left would overrun visibly.
        chunks.append((time.perf_counter(), xs.shape[0]))
        until = chunks[-1][0] + 1e-3 * xs.shape[0]
        while time.perf_counter() < until:
            pass
        return np.sum(xs * xs, axis=1), np.zeros((xs.shape[0], 1))

    problem = ProblemDef(dimension=5, lower=np.full(5, -5.0),
                         upper=np.full(5, 5.0), batch=slow_batch)
    start = time.perf_counter()
    _, stats = optimize(problem, OptimizerConfig(budget=10**9, n_init=20,
                                                 deadline=0.05, seed=0))
    elapsed = time.perf_counter() - start
    # The last chunk started before the deadline and was sized to end
    # within about one candidate of it. Its nominal cost is exact; the
    # wall clock also carries whatever the scheduler adds, so it gets a
    # looser margin.
    last_start, last_size = chunks[-1]
    assert last_start - start + 1e-3 * last_size <= 0.05 + 0.002
    assert elapsed <= 0.05 + 0.010
    # Past the initial population, and no more than the deadline allows.
    assert 20 <= stats.evaluations <= 50
