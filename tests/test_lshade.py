"""Optimizer tests: selection rules, parameter adaptation, trial
generation contracts, convergence, and the deadline/determinism behavior."""

import math
import time
import warnings

import numpy as np
import pytest

from nurbsnav.lshade import (N_MIN, Individual, OptimizerConfig, ProblemDef,
                             SuccessMemory, adapt, draw_donors,
                             draw_parameters, make_trials, optimize, rank,
                             select, update_archive)


def sphere_problem(dim=5, bound=5.0):
    return ProblemDef(dimension=dim, lower=np.full(dim, -bound),
                      upper=np.full(dim, bound),
                      objective=lambda x: float(x @ x))


# -- selection ------------------------------------------------------------

def _select(parent, trial):
    """Whether `trial` replaces `parent`, each an (f, violation) pair."""
    (fp, vp), (ft, vt) = parent, trial
    mask = select(np.array([fp]), np.array([vp]), np.array([ft]), np.array([vt]))
    return bool(mask[0])


def test_feasible_beats_infeasible():
    assert _select((1.0, 0.1), (2.0, 0.0))
    assert not _select((2.0, 0.0), (1.0, 0.1))


def test_feasible_compare_by_objective():
    assert not _select((2.0, 0.0), (3.0, 0.0))
    assert _select((3.0, 0.0), (2.0, 0.0))


def test_infeasible_compare_by_violation():
    assert _select((0.1, 0.2), (9.0, 0.1))


def test_parent_wins_exact_tie():
    assert not _select((1.0, 0.0), (1.0, 0.0))
    assert not _select((1.0, 0.3), (5.0, 0.3))


def test_selection_and_ranking_match_individual_key():
    # Values from small sets, so exact ties in objective and violation and
    # feasible/infeasible mixes are common.
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        f = rng.integers(-3, 4, size=(2, n)).astype(float)
        v = np.where(rng.random((2, n)) < 0.5, 0.0,
                     rng.integers(1, 4, size=(2, n)) / 4.0)
        parents = [Individual(np.zeros(1), f[0, i], v[0, i]) for i in range(n)]
        trials = [Individual(np.zeros(1), f[1, i], v[1, i]) for i in range(n)]
        mask = select(f[0], v[0], f[1], v[1])
        assert mask.tolist() == [t.key() < p.key()
                                 for p, t in zip(parents, trials)]
        assert rank(f[0], v[0]).tolist() == \
            sorted(range(n), key=lambda i: parents[i].key())


# -- adaptation -----------------------------------------------------------

NONE = np.empty(0)


def test_linear_population_reduction():
    config = OptimizerConfig(budget=1000)
    memory = SuccessMemory(size=6)
    assert adapt(NONE, NONE, NONE, memory, 500, config, 100) == 52


def test_empty_successes_leave_memory_unchanged():
    config = OptimizerConfig(budget=1000)
    memory = SuccessMemory(size=6)
    before_f = memory.m_f.copy()
    before_cr = memory.m_cr.copy()
    adapt(NONE, NONE, NONE, memory, 100, config, 50)
    assert np.array_equal(memory.m_f, before_f)
    assert np.array_equal(memory.m_cr, before_cr)
    assert memory.index == 0


def test_weighted_lehmer_mean_hand_value():
    config = OptimizerConfig(budget=1000)
    memory = SuccessMemory(size=6)
    adapt(np.array([0.5, 1.0]), np.array([0.2, 0.4]), np.array([1.0, 1.0]),
          memory, 100, config, 50)
    # Equal weights: Lehmer mean (0.25 + 1.0) / (0.5 + 1.0) = 5/6.
    assert memory.m_f[0] == pytest.approx(5.0 / 6.0)
    assert memory.m_cr[0] == pytest.approx(0.3)
    assert memory.index == 1


# -- trial generation -----------------------------------------------------

def _population(rng, n=6, dim=3, bound=5.0):
    return rng.uniform(-bound, bound, (n, dim))


def _trials(targets, population, f_scale, cr, bound, rng, archive=None):
    """Trials for the given target rows, drawing donors as `optimize` does
    (population rank = row order)."""
    n, dim = population.shape
    archive = np.empty((0, dim)) if archive is None else archive
    k = targets.size
    donors = draw_donors(targets, n, len(archive), np.arange(n), 0.2, rng)
    return make_trials(targets, donors, np.concatenate([population, archive]),
                       np.full(k, f_scale), np.full(k, cr),
                       np.full(dim, -bound), np.full(dim, bound), rng)


def test_crossover_zero_changes_one_coordinate():
    rng = np.random.default_rng(0)
    population = _population(rng)
    trials = _trials(np.zeros(50, dtype=np.intp), population, 0.7, 0.0, 5.0, rng)
    assert np.all(np.sum(trials != population[0], axis=1) == 1)


def test_trials_respect_bounds():
    rng = np.random.default_rng(1)
    population = _population(rng, bound=1.0)
    archive = _population(rng, n=4, bound=1.0)
    targets = rng.integers(6, size=100_000)
    trials = _trials(targets, population, 1.0, 0.9, 1.0, rng, archive)
    assert np.all(trials >= -1.0) and np.all(trials <= 1.0)


def test_trial_sequence_deterministic():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        population = _population(np.random.default_rng(7))
        outs.append(_trials(np.zeros(20, dtype=np.intp), population, 0.6, 0.5,
                            5.0, rng))
    assert np.array_equal(outs[0], outs[1])


def test_tiny_population_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_donors(np.zeros(1, dtype=np.intp), 3, 5, np.arange(3), 0.2, rng)


# -- the drawn generation ---------------------------------------------------

def test_donors_exclude_target_and_each_other():
    rng = np.random.default_rng(2)
    for n, n_archive in ((4, 0), (5, 3), (40, 56), (7, 1)):
        targets = rng.integers(n, size=20_000)
        pbest, r1, r2 = draw_donors(targets, n, n_archive,
                                    rng.permutation(n), 0.11, rng)
        assert np.all((0 <= r1) & (r1 < n) & (r1 != targets))
        assert np.all((0 <= r2) & (r2 < n + n_archive))
        assert np.all((r2 != targets) & (r2 != r1))
        assert np.all((0 <= pbest) & (pbest < n))


def test_donors_uniform_over_allowed_rows():
    # Target row 2 of 5 with an archive of 3: r1 takes 4 rows, and r2
    # then takes 6 of the 8, each equally often.
    rng = np.random.default_rng(3)
    draws = 120_000
    _, r1, r2 = draw_donors(np.full(draws, 2), 5, 3, np.arange(5), 0.11, rng)
    assert np.allclose(np.bincount(r1, minlength=5) / draws,
                       [0.25, 0.25, 0.0, 0.25, 0.25], atol=0.01)
    counts = np.zeros((5, 8))
    np.add.at(counts, (r1, r2), 1.0)
    for row in (0, 1, 3, 4):
        allowed = np.ones(8, dtype=bool)
        allowed[[2, row]] = False
        share = counts[row] / counts[row].sum()
        assert np.all(share[~allowed] == 0.0)
        assert np.allclose(share[allowed], 1.0 / 6.0, atol=0.015)


def test_pbest_drawn_from_top_ranks():
    rng = np.random.default_rng(4)
    for n, p_best in ((40, 0.11), (10, 0.11), (4, 0.5), (25, 0.3)):
        order = rng.permutation(n)
        n_top = max(2, int(round(p_best * n)))
        pbest, _, _ = draw_donors(np.arange(n).repeat(500), n, 0, order,
                                  p_best, rng)
        assert set(pbest.tolist()) == set(order[:n_top].tolist())


def test_parameters_in_range():
    rng = np.random.default_rng(6)
    # Memory slots near zero force the non-positive F redraw; slots near
    # and past the ends of [0, 1] exercise the cap and the clip.
    memory = SuccessMemory(size=4, m_f=np.array([1e-3, 0.05, 0.9, 1.2]),
                           m_cr=np.array([0.0, 0.02, 0.98, 1.0]))
    f_scale, cr = draw_parameters(memory, 50_000, rng)
    assert np.all((f_scale > 0.0) & (f_scale <= 1.0))
    assert np.all((cr >= 0.0) & (cr <= 1.0))
    assert np.any(f_scale == 1.0) and np.any(cr == 0.0) and np.any(cr == 1.0)


def test_archive_never_exceeds_bound():
    rng = np.random.default_rng(8)
    archive = np.empty((0, 2))
    seen = set()
    for _ in range(300):
        n = int(rng.integers(4, 41))
        replaced = rng.random((int(rng.integers(0, n + 1)), 2))
        seen.update(map(tuple, replaced))
        bound = max(4, int(round(1.4 * n)))
        archive = update_archive(archive, replaced, bound, rng)
        assert len(archive) <= bound
        assert set(map(tuple, archive)) <= seen


def test_population_never_drops_below_minimum():
    sizes = []

    def batch(xs):
        sizes.append(xs.shape[0])
        return np.sum(xs * xs, axis=1), np.zeros((xs.shape[0], 1))

    problem = ProblemDef(dimension=3, lower=np.full(3, -5.0),
                         upper=np.full(3, 5.0), batch=batch)
    _, stats = optimize(problem, OptimizerConfig(budget=3000, n_init=30,
                                                 seed=0))
    # One batch per generation: its size is the population size, except
    # the last, which the budget cuts.
    assert sizes[0] == 30 and sum(sizes) == 3000
    assert len(sizes) == stats.generations + 1
    assert min(sizes[:-1]) == N_MIN
    assert all(a >= b for a, b in zip(sizes[:-1], sizes[1:-1]))


def test_batch_evaluator_sees_only_rows_inside_the_box():
    # The planner's kernel applies rows unclipped, so optimize must keep
    # every row it evaluates in the box: warm starts outside it on either
    # side included.
    lower, upper = np.array([-2.0, 0.05, -0.5]), np.array([3.0, 2.0, 0.5])
    rows = []

    def batch(xs):
        rows.append(np.array(xs))
        return np.sum(xs * xs, axis=1), np.zeros((xs.shape[0], 1))

    problem = ProblemDef(dimension=3, lower=lower, upper=upper, batch=batch)
    warm = [np.array([-7.0, 0.0, 4.0]), np.array([9.0, 5.0, -0.6]),
            np.array([0.0, 1.0, 0.0])]
    for seed in range(5):
        optimize(problem, OptimizerConfig(budget=600, n_init=20, seed=seed),
                 warm_start=warm)
    xs = np.concatenate(rows)
    assert xs.shape == (3000, 3)
    assert np.all((xs >= lower) & (xs <= upper))


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


def test_best_is_first_found_among_ties():
    # Every x[0] <= 0.5 is optimal: the first optimum evaluated, the second
    # warm start, stays the result although later trials tie it, one of
    # them in the first warm start's row.
    problem = ProblemDef(dimension=2, lower=np.full(2, -1.0),
                         upper=np.full(2, 1.0),
                         objective=lambda x: max(0.0, x[0] - 0.5))
    warm = [np.array([1.0, 0.0]), np.array([0.0, 0.3])]
    for seed in range(5):
        best, _ = optimize(problem, OptimizerConfig(budget=200, n_init=10,
                                                    seed=seed),
                           warm_start=warm)
        assert np.array_equal(best.x, warm[1])


def test_stats_report_the_first_row():
    # Row 0 of the initial population is the first warm start, clipped to
    # the box; its violation comes back on the stats, with and without a
    # deadline.
    problem = ProblemDef(dimension=2, lower=np.full(2, -1.0),
                         upper=np.full(2, 1.0), objective=lambda x: x @ x,
                         constraints=lambda x: [max(0.0, x[0] - 0.5)])
    warm = [np.array([3.0, 0.5]), np.zeros(2)]
    for deadline in (None, 1e-12):
        best, stats = optimize(problem, OptimizerConfig(
            budget=50, n_init=8, deadline=deadline, seed=1), warm_start=warm)
        assert stats.first_violation == 0.5
        assert best.f == 0.0 and best.violation == 0.0


def test_tiny_deadline_evaluates_the_probe_chunk():
    # The deadline is first checked after the probe chunk, the leading
    # min(n_init, N_MIN, budget) rows, so a run always returns a best: here
    # the warm start, the best of its chunk.
    chunks = []

    def batch(xs):
        chunks.append(len(xs))
        return np.einsum("ij,ij->i", xs, xs), np.zeros((len(xs), 1))

    problem = ProblemDef(dimension=5, lower=np.full(5, -5.0),
                         upper=np.full(5, 5.0), batch=batch)
    warm = np.zeros(5)
    for n_init, budget, probe in ((None, 100, N_MIN), (40, 100, N_MIN),
                                  (5, 100, N_MIN), (40, 2, 2)):
        chunks.clear()
        best, stats = optimize(problem, OptimizerConfig(
            budget=budget, n_init=n_init, deadline=1e-12,
            seed=0), warm_start=warm)
        assert chunks == [probe]
        assert stats.evaluations == probe and stats.generations == 0
        assert np.array_equal(best.x, warm) and best.f == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(budget=0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, deadline=-1.0)
    with pytest.raises(ValueError):
        ProblemDef(dimension=2, lower=np.array([0.0, 0.0]),
                   upper=np.array([0.0, 1.0]), objective=lambda x: 0.0)
    with pytest.raises(ValueError, match="dimension"):
        ProblemDef(dimension=3, lower=np.zeros(2), upper=np.ones(2),
                   objective=lambda x: 0.0)
    with pytest.raises(ValueError, match="objective or a batch"):
        ProblemDef(dimension=2, lower=np.zeros(2), upper=np.ones(2))


@pytest.mark.parametrize("deadline", [math.nan, math.inf])
def test_config_rejects_non_finite_deadline(deadline):
    # NaN passes a `<= 0` test; either would reach the chunk sizing as a
    # float that cannot become an integer.
    with pytest.raises(ValueError, match="deadline"):
        OptimizerConfig(budget=10, deadline=deadline)


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


def test_nan_objectives_on_infeasible_rows_change_nothing():
    # Deb's rules compare objectives only between feasible rows, so a
    # batch evaluator may leave an infeasible row's objective out as NaN:
    # the search is the same, and no arithmetic on the NaN warns. One
    # constraint is met on half the box, the other nowhere, so the best
    # stays infeasible and its objective NaN.
    for offset in (1.0, 20.0):
        def batch(xs, leave_out):
            f = np.sum(xs * xs, axis=1)
            v = np.maximum(0.0, offset - xs[:, :1] - xs[:, 1:2])
            if leave_out:
                f[v[:, 0] > 0.0] = np.nan
            return f, v

        runs = []
        for leave_out in (False, True):
            problem = ProblemDef(
                dimension=3, lower=np.full(3, -5.0), upper=np.full(3, 5.0),
                batch=lambda xs, leave_out=leave_out: batch(xs, leave_out))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(optimize(problem, OptimizerConfig(
                    budget=700, n_init=30, seed=2), warm_start=np.zeros(3)))
        (real, real_stats), (left, left_stats) = runs
        assert np.array_equal(left.x, real.x)
        assert left.violation == real.violation
        assert (left_stats.evaluations, left_stats.generations) == \
            (real_stats.evaluations, real_stats.generations)
        assert left_stats.first_violation == real_stats.first_violation
        if offset == 1.0:
            assert left.violation == 0.0 and left.f == real.f
        else:
            assert left.violation > 0.0 and math.isnan(left.f)


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
