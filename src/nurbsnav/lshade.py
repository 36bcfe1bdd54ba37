"""Success-history adaptive differential evolution with linear population
reduction and feasibility-rule constraint handling.

current-to-pbest/1 mutation with an external archive, binomial crossover,
Cauchy/normal parameter sampling around a circular success memory, and Deb
feasibility rules for selection. Generation-synchronous: every trial of a
generation is drawn from the same population and archive, the trials are
evaluated as one batch, and selection, archive and success-memory updates
follow. Supports both a fixed evaluation budget (deterministic, ending at
exactly the budget) and a wall-clock deadline checked between chunks of a
generation's batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class ProblemDef:
    """Box-bounded problem with an objective and optional constraint vector.

    Either `objective(x)` with optional `constraints(x)`, or `batch(X)`
    evaluating a (P, dimension) array at once and returning objectives (P,)
    and violations (P, k). Violations are non-negative magnitudes;
    feasibility means every entry is zero. All callables must be pure.
    """

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: callable = None
    constraints: callable = None
    batch: callable = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bounds must match the problem dimension")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.objective is None and self.batch is None:
            raise ValueError("a problem needs an objective or a batch evaluator")

    def evaluate(self, x: np.ndarray) -> tuple[float, float]:
        """Objective and total violation of one candidate (scalar form)."""
        f = float(self.objective(x))
        if self.constraints is None:
            return f, 0.0
        viol = np.asarray(self.constraints(x), dtype=float)
        return f, float(np.sum(viol))

    def evaluate_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and total violations of a (P, dimension) array.

        Without a batch evaluator this loops over `evaluate`.
        """
        if self.batch is not None:
            f, viol = self.batch(xs)
            return np.asarray(f, dtype=float), np.sum(viol, axis=1)
        out = np.array([self.evaluate(x) for x in xs], dtype=float).reshape(-1, 2)
        return out[:, 0], out[:, 1]


@dataclass
class Individual:
    x: np.ndarray
    f: float
    violation: float

    def key(self) -> tuple[float, float]:
        """Feasibility-rule ordering key (lower is better)."""
        if self.violation > 0.0:
            return (1.0, self.violation)
        return (0.0, self.f)


@dataclass
class SuccessMemory:
    """Circular history of successful scale factors and crossover rates."""

    size: int
    m_f: np.ndarray = None
    m_cr: np.ndarray = None
    index: int = 0

    def __post_init__(self):
        if self.m_f is None:
            self.m_f = np.full(self.size, 0.5)
        if self.m_cr is None:
            self.m_cr = np.full(self.size, 0.5)


@dataclass
class OptimizerConfig:
    budget: int
    n_init: int = None  # defaults to 18 * dimension
    n_min: int = 4
    memory_size: int = 6
    p_best: float = 0.11
    archive_rate: float = 1.4
    deadline: float = None  # wall seconds, None = budget only
    seed: int = 0

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("evaluation budget must be positive")
        if self.deadline is not None and self.deadline <= 0.0:
            raise ValueError("deadline must be positive when given")
        if self.n_min < 4:
            raise ValueError("minimum population size is 4")


@dataclass
class OptimizerStats:
    evaluations: int = 0
    generations: int = 0
    wall_time: float = 0.0


def select(parent: Individual, trial: Individual) -> Individual:
    """Deb feasibility rules; the parent wins exact ties."""
    return trial if trial.key() < parent.key() else parent


def generate_trial(target_idx: int, population: list, archive: list,
                   f_scale: float, cr: float, p_best: float,
                   lower: np.ndarray, upper: np.ndarray,
                   rng: np.random.Generator, order=None) -> np.ndarray:
    """current-to-pbest/1 mutation, binomial crossover, midpoint bound repair.

    `order` may carry a precomputed feasibility-rule ranking of the
    population (indices, best first); it is recomputed when omitted.
    """
    n = len(population)
    if n < 4:
        raise ValueError("population must hold at least four individuals")
    target = population[target_idx]
    if order is None:
        order = sorted(range(n), key=lambda i: population[i].key())
    n_top = max(2, int(round(p_best * n)))
    pbest = population[order[int(rng.integers(n_top))]]

    r1 = int(rng.integers(n))
    while r1 == target_idx:
        r1 = int(rng.integers(n))
    n_union = n + len(archive)
    r2 = int(rng.integers(n_union))
    while r2 == target_idx or r2 == r1:
        r2 = int(rng.integers(n_union))
    x_r2 = population[r2].x if r2 < n else archive[r2 - n]

    mutant = target.x + f_scale * (pbest.x - target.x) \
        + f_scale * (population[r1].x - x_r2)
    below = mutant < lower
    above = mutant > upper
    mutant[below] = 0.5 * (lower[below] + target.x[below])
    mutant[above] = 0.5 * (upper[above] + target.x[above])

    dim = target.x.shape[0]
    cross = rng.random(dim) < cr
    cross[int(rng.integers(dim))] = True
    return np.where(cross, mutant, target.x)


def adapt(successes: list, memory: SuccessMemory, eval_count: int,
          config: OptimizerConfig, n_init: int) -> int:
    """Update the success memory and return the new population size.

    Successes are (F, CR, improvement) triples; F uses the weighted Lehmer
    mean, CR the weighted arithmetic mean. Population size shrinks linearly
    with the spent evaluation budget.
    """
    if successes:
        fs = np.array([s[0] for s in successes])
        crs = np.array([s[1] for s in successes])
        w = np.array([s[2] for s in successes])
        w = w / np.sum(w) if np.sum(w) > 0 else np.full(len(successes), 1.0 / len(successes))
        memory.m_f[memory.index] = float(np.sum(w * fs * fs) / np.sum(w * fs))
        memory.m_cr[memory.index] = float(np.sum(w * crs))
        memory.index = (memory.index + 1) % memory.size
    frac = min(eval_count / config.budget, 1.0)
    return max(config.n_min, int(round(n_init - frac * (n_init - config.n_min))))


def optimize(problem: ProblemDef, config: OptimizerConfig,
             warm_start=None) -> tuple[Individual, OptimizerStats]:
    """Run LSHADE until the budget or deadline is exhausted.

    Deterministic for a fixed seed when no deadline is set; the last
    generation is cut short so that exactly `budget` candidates are
    evaluated. With a deadline, each generation's batch is evaluated in
    chunks sized from the measured cost per candidate so that a chunk
    started before the deadline overruns it by about one candidate.
    `warm_start` may be one vector or a list of vectors injected into the
    initial population (clipped to bounds).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    dim = problem.dimension
    n_init = config.n_init if config.n_init is not None else 18 * dim
    n_init = max(n_init, config.n_min)
    stats = OptimizerStats()
    deadline = None if config.deadline is None else start + config.deadline
    per_candidate = None  # measured wall seconds per candidate

    def chunk_size(wanted: int) -> int:
        """Candidates to evaluate next: all of them without a deadline;
        otherwise a probe of n_min first, then as many as half the time
        left is expected to cover (at least one); zero past the deadline."""
        if deadline is None:
            return wanted
        left = deadline - time.perf_counter()
        if left <= 0.0:
            return 0
        if per_candidate is None:
            return min(wanted, config.n_min)
        return min(wanted, max(1, int(0.5 * left / per_candidate)))

    def evaluate(count: int, draw) -> list[Individual]:
        """Evaluate up to `count` candidates, taking rows [a, b) from
        draw(a, b) chunk by chunk; fewer when the deadline passes."""
        nonlocal per_candidate
        out: list[Individual] = []
        while len(out) < count:
            m = chunk_size(count - len(out))
            if m == 0:
                break
            t0 = time.perf_counter()
            xs = draw(len(out), len(out) + m)
            f, phi = problem.evaluate_batch(xs)
            per_candidate = (time.perf_counter() - t0) / m
            out += [Individual(x=x, f=float(fx), violation=float(px))
                    for x, fx, px in zip(xs, f, phi)]
        stats.evaluations += len(out)
        return out

    seeds = []
    if warm_start is not None:
        ws = warm_start if isinstance(warm_start, (list, tuple)) else [warm_start]
        seeds = [np.clip(np.asarray(w, dtype=float), problem.lower, problem.upper)
                 for w in ws]

    pop_x = problem.lower + rng.random((n_init, dim)) * (problem.upper - problem.lower)
    for i, w in enumerate(seeds[:n_init]):
        pop_x[i] = w

    n_first = min(n_init, config.budget)
    population = evaluate(n_first, lambda a, b: pop_x[a:b])
    if not population:
        raise RuntimeError("optimizer completed zero evaluations")
    timed_out = len(population) < n_first

    best = min(population, key=lambda ind: ind.key())
    memory = SuccessMemory(size=config.memory_size)
    archive: list[np.ndarray] = []

    while not timed_out and stats.evaluations < config.budget:
        stats.generations += 1
        n = len(population)
        order = sorted(range(n), key=lambda i: population[i].key())
        n_trials = min(n, config.budget - stats.evaluations)
        params: list[tuple[float, float]] = []

        def draw_trials(a: int, b: int) -> np.ndarray:
            rows = []
            for i in range(a, b):
                r = int(rng.integers(memory.size))
                f_scale = memory.m_f[r] + 0.1 * rng.standard_cauchy()
                while f_scale <= 0.0:
                    f_scale = memory.m_f[r] + 0.1 * rng.standard_cauchy()
                f_scale = min(f_scale, 1.0)
                cr = float(np.clip(rng.normal(memory.m_cr[r], 0.1), 0.0, 1.0))
                params.append((f_scale, cr))
                rows.append(generate_trial(i, population, archive, f_scale, cr,
                                           config.p_best, problem.lower,
                                           problem.upper, rng, order=order))
            return np.array(rows)

        trials = evaluate(n_trials, draw_trials)
        timed_out = len(trials) < n_trials

        successes = []
        new_population = list(population)
        for i, trial in enumerate(trials):
            parent = population[i]
            if select(parent, trial) is trial:
                new_population[i] = trial
                archive.append(parent.x)
                improvement = parent.violation - trial.violation \
                    if parent.violation != trial.violation else parent.f - trial.f
                successes.append((*params[i], max(improvement, 1e-300)))
                best = select(best, trial)
        population = new_population

        max_archive = max(4, int(round(config.archive_rate * len(population))))
        while len(archive) > max_archive:
            archive.pop(int(rng.integers(len(archive))))

        pop_size = adapt(successes, memory, stats.evaluations, config, n_init)
        if pop_size < len(population):
            population.sort(key=lambda ind: ind.key())
            population = population[:pop_size]

    stats.wall_time = time.perf_counter() - start
    return best, stats
