"""Success-history adaptive differential evolution with linear population
reduction and feasibility-rule constraint handling (L-SHADE, Tanabe &
Fukunaga, CEC 2014).

current-to-pbest/1 mutation with an external archive (Storn & Price 1997;
Zhang & Sanderson 2009), binomial crossover, Cauchy/normal parameter
sampling around a circular success memory, and Deb feasibility rules for
selection. Generation-synchronous: every trial of a generation is drawn
from the same population and archive, the trials are evaluated as one
batch, and selection, archive and success-memory updates follow. The
population is held as arrays (positions `(n, dimension)`, objectives and
violations `(n,)`), so a generation costs a fixed number of array
operations whatever its size. Supports both a fixed evaluation budget
(deterministic, ending at exactly the budget) and a wall-clock deadline
checked between chunks of a generation's batch. The deadline is first
checked after the probe chunk, the leading min(n_init, n_min, budget)
rows of the initial population, so every run returns a best, and a warm
start in the first row is always among the candidates it is chosen from.

The memory size, p-best fraction and archive rate are the L-SHADE
settings of Tanabe & Fukunaga (CEC 2014).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

MEMORY_SIZE = 6  # success-memory slots
P_BEST = 0.11  # share of the population that pbest is drawn from
ARCHIVE_RATE = 1.4  # archive capacity over the population size


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


def feasibility_key(f: np.ndarray,
                    violation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deb feasibility-rule ordering as two arrays `(infeasible, value)`:
    feasible rows first, ranked by objective, then infeasible rows ranked
    by violation, in the order of `Individual.key`."""
    infeasible = violation > 0.0
    return infeasible, np.where(infeasible, violation, f)


def rank(f: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """Indices in feasibility-rule order, best first; exact ties keep their
    index order."""
    infeasible, value = feasibility_key(f, violation)
    return np.lexsort((value, infeasible))


def select(f_parent: np.ndarray, v_parent: np.ndarray,
           f_trial: np.ndarray, v_trial: np.ndarray) -> np.ndarray:
    """Deb feasibility rules as a mask: True where the trial replaces its
    parent. The parent wins exact ties."""
    p_bad, p_value = feasibility_key(f_parent, v_parent)
    t_bad, t_value = feasibility_key(f_trial, v_trial)
    return (t_bad < p_bad) | ((t_bad == p_bad) & (t_value < p_value))


def _uniform_ints(u: np.ndarray, n) -> np.ndarray:
    """Uniform integers in [0, n) from uniform floats in [0, 1): the product
    of u < 1 and an integer n below 2**53 rounds to below n. One
    `rng.random` call serves several index draws this way, at a fraction
    of the cost of `rng.integers` per array."""
    return (u * n).astype(np.intp)


def draw_parameters(memory: SuccessMemory, k: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scale factors and crossover rates of k trials, each around a
    uniformly drawn memory slot: F from Cauchy(m_f, 0.1), redrawn while
    not positive and capped at 1; CR from N(m_cr, 0.1) clipped to [0, 1]."""
    slot = _uniform_ints(rng.random(k), memory.size)
    f_scale = memory.m_f[slot] + 0.1 * rng.standard_cauchy(k)
    while (low := f_scale <= 0.0).any():
        f_scale[low] = memory.m_f[slot[low]] \
            + 0.1 * rng.standard_cauchy(np.count_nonzero(low))
    cr = memory.m_cr[slot] + 0.1 * rng.standard_normal(k)
    return np.minimum(f_scale, 1.0), np.minimum(np.maximum(cr, 0.0), 1.0)


def draw_donors(targets: np.ndarray, n: int, n_archive: int, order: np.ndarray,
                p_best: float, rng: np.random.Generator):
    """Donor rows `(pbest, r1, r2)` of current-to-pbest/1 for each target
    row of a population of n: pbest uniform over the best
    max(2, round(p_best * n)) of `order` (a feasibility-rule ranking, best
    first), r1 uniform over the population rows other than the target, r2
    uniform over the rows of the population followed by the archive, other
    than the target and r1.

    The exclusions need no redraw: r1 is the target shifted by 1 to n - 1
    rows (mod n), and r2 is drawn from the n + n_archive - 2 allowed rows
    and stepped past the two excluded ones in ascending order.
    """
    if n < 4:
        raise ValueError("population must hold at least four individuals")
    n_top = max(2, int(round(p_best * n)))
    u = rng.random((3, targets.size))
    pbest = order[_uniform_ints(u[0], n_top)]
    r1 = (targets + 1 + _uniform_ints(u[1], n - 1)) % n
    r2 = _uniform_ints(u[2], n + n_archive - 2)
    r2 += r2 >= np.minimum(targets, r1)
    r2 += r2 >= np.maximum(targets, r1)
    return pbest, r1, r2


def make_trials(targets: np.ndarray, donors, union: np.ndarray,
                f_scale: np.ndarray, cr: np.ndarray, lower: np.ndarray,
                upper: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """current-to-pbest/1 mutation, midpoint bound repair and binomial
    crossover with one forced coordinate per trial. `union` holds the
    population rows followed by the archive rows; `targets` and `donors`
    index it."""
    pbest, r1, r2 = donors
    x = union[targets]
    mutant = x + f_scale[:, None] * (union[pbest] - x + union[r1] - union[r2])
    mutant = np.where(mutant < lower, 0.5 * (lower + x), mutant)
    mutant = np.where(mutant > upper, 0.5 * (upper + x), mutant)
    k, dim = x.shape
    u = rng.random((k, dim + 1))
    cross = u[:, :dim] < cr[:, None]
    cross[np.arange(k), _uniform_ints(u[:, dim], dim)] = True
    return np.where(cross, mutant, x)


def update_archive(archive: np.ndarray, replaced: np.ndarray, max_size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Append the replaced parents, then keep a uniformly drawn subset of
    at most `max_size` rows."""
    archive = np.concatenate([archive, replaced])
    if len(archive) > max_size:
        archive = archive[rng.permutation(len(archive))[:max_size]]
    return archive


def adapt(f_scale: np.ndarray, cr: np.ndarray, gain: np.ndarray,
          memory: SuccessMemory, eval_count: int, config: OptimizerConfig,
          n_init: int) -> int:
    """Update the success memory and return the new population size.

    The successful trials' scale factors, crossover rates and
    improvements come as three arrays; F uses the improvement-weighted
    Lehmer mean, CR the weighted arithmetic mean. Population size shrinks
    linearly with the spent evaluation budget.
    """
    if f_scale.size:
        total = gain.sum()
        w = gain / total if total > 0 else np.full(gain.size, 1.0 / gain.size)
        wf = w * f_scale
        memory.m_f[memory.index] = (wf * f_scale).sum() / wf.sum()
        memory.m_cr[memory.index] = (w * cr).sum()
        memory.index = (memory.index + 1) % memory.size
    frac = min(eval_count / config.budget, 1.0)
    return max(config.n_min, int(round(n_init - frac * (n_init - config.n_min))))


def optimize(problem: ProblemDef, config: OptimizerConfig,
             warm_start=None) -> tuple[Individual, OptimizerStats]:
    """Run LSHADE until the budget or deadline is exhausted.

    Deterministic for a fixed seed when no deadline is set; the last
    generation is cut short so that exactly `budget` candidates are
    evaluated. With a deadline, the probe chunk of min(n_init, n_min,
    budget) candidates is always evaluated; after it, each batch is
    evaluated in chunks sized from the measured cost per candidate so that
    a chunk started before the deadline overruns it by about one
    candidate. `warm_start` may be one vector or a list of vectors
    injected into the initial population (clipped to bounds).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    dim = problem.dimension
    lower, upper = problem.lower, problem.upper
    n_init = config.n_init if config.n_init is not None else 18 * dim
    n_init = max(n_init, config.n_min)
    stats = OptimizerStats()
    deadline = None if config.deadline is None else start + config.deadline
    per_candidate = None  # measured wall seconds per candidate

    def chunk_size(wanted: int) -> int:
        """Candidates to evaluate next: all of them without a deadline;
        otherwise a probe of n_min first, whatever the clock says, then as
        many as half the time left is expected to cover (at least one);
        zero past the deadline."""
        if deadline is None:
            return wanted
        if per_candidate is None:
            return min(wanted, config.n_min)
        left = deadline - time.perf_counter()
        if left <= 0.0:
            return 0
        return min(wanted, max(1, int(0.5 * left / per_candidate)))

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and violations of the leading rows of `xs`, evaluated
        chunk by chunk: all rows, or fewer when the deadline passes."""
        nonlocal per_candidate
        f_out = np.empty(len(xs))
        v_out = np.empty(len(xs))
        done = 0
        while done < len(xs):
            m = chunk_size(len(xs) - done)
            if m == 0:
                break
            t0 = time.perf_counter()
            f_out[done:done + m], v_out[done:done + m] = \
                problem.evaluate_batch(xs[done:done + m])
            per_candidate = (time.perf_counter() - t0) / m
            done += m
        stats.evaluations += done
        return f_out[:done], v_out[:done]

    pop_x = lower + rng.random((n_init, dim)) * (upper - lower)
    if warm_start is not None:
        ws = warm_start if isinstance(warm_start, (list, tuple)) else [warm_start]
        for i, w in enumerate(ws[:n_init]):
            pop_x[i] = np.clip(np.asarray(w, dtype=float), lower, upper)

    n_first = min(n_init, config.budget)
    pop_f, pop_v = evaluate(pop_x[:n_first])
    timed_out = pop_f.size < n_first
    pop_x = pop_x[:pop_f.size]
    i = rank(pop_f, pop_v)[0]
    best = Individual(x=pop_x[i].copy(), f=float(pop_f[i]),
                      violation=float(pop_v[i]))

    memory = SuccessMemory(size=MEMORY_SIZE)
    archive = np.empty((0, dim))

    while not timed_out and stats.evaluations < config.budget:
        stats.generations += 1
        n = pop_f.size
        order = rank(pop_f, pop_v)
        k = min(n, config.budget - stats.evaluations)
        targets = np.arange(k)
        f_scale, cr = draw_parameters(memory, k, rng)
        donors = draw_donors(targets, n, len(archive), order, P_BEST, rng)
        trials = make_trials(targets, donors, np.concatenate([pop_x, archive]),
                             f_scale, cr, lower, upper, rng)

        trial_f, trial_v = evaluate(trials)
        m = trial_f.size
        timed_out = m < k

        win = np.nonzero(select(pop_f[:m], pop_v[:m], trial_f, trial_v))[0]
        if win.size:
            # The best so far changes only to a strictly better candidate,
            # and among equal ones to the first found.
            j = win[rank(trial_f[win], trial_v[win])[0]]
            if select(best.f, best.violation, trial_f[j], trial_v[j]):
                best = Individual(x=trials[j].copy(), f=float(trial_f[j]),
                                  violation=float(trial_v[j]))
        gain = np.where(pop_v[win] != trial_v[win], pop_v[win] - trial_v[win],
                        pop_f[win] - trial_f[win])
        archive = update_archive(
            archive, pop_x[win], max(4, int(round(ARCHIVE_RATE * n))), rng)
        pop_x[win] = trials[win]
        pop_f[win] = trial_f[win]
        pop_v[win] = trial_v[win]

        pop_size = adapt(f_scale[win], cr[win], np.maximum(gain, 1e-300), memory,
                         stats.evaluations, config, n_init)
        if pop_size < n:
            keep = rank(pop_f, pop_v)[:pop_size]
            pop_x, pop_f, pop_v = pop_x[keep], pop_f[keep], pop_v[keep]

    stats.wall_time = time.perf_counter() - start
    return best, stats
