"""Instance generators: the random 6x20 family, the hardcoded counterexample
pair, and a small set-covering family.

Sampling goes through a counter-based 64-bit stream (SplitMix64) with
Box-Muller for normals, so a dataset is reproducible from its seed across
platforms and languages.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .instance import MilpInstance, Sense
from .lp import LpStatus, solve_lp

__all__ = [
    "PortableRng",
    "gen_random",
    "counterexample_pair",
    "gen_set_cover",
    "gen_training_set",
]

_MASK = (1 << 64) - 1


class PortableRng:
    """Deterministic stream: value k of seed s is SplitMix64(s' + k * GAMMA)
    finalization, consumed as uniforms, Box-Muller normals, or unbiased
    integers by rejection."""

    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = (seed ^ 0x5851F42D4C957F2D) & _MASK
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
        else:
            # u1 in (0, 1] so the log is finite
            u1 = (self.next_u64() >> 11) * 2.0**-53 + 2.0**-54
            u2 = self.uniform()
            radius = math.sqrt(-2.0 * math.log(u1))
            z = radius * math.cos(2.0 * math.pi * u2)
            self._spare = radius * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK - (_MASK + 1) % bound
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % bound

    def sample_without_replacement(self, population: int, count: int) -> list[int]:
        """First ``count`` entries of a seeded Fisher-Yates shuffle."""
        if count > population:
            raise ValueError("count exceeds population")
        pool = list(range(population))
        for k in range(count):
            swap = k + self.randint(population - k)
            pool[k], pool[swap] = pool[swap], pool[k]
        return pool[:count]


def gen_random(seed: int, m: int = 6, n: int = 20, nnz: int = 60) -> MilpInstance:
    """Random MILP with N(0,1) data, N(0,100) bounds swapped into order,
    uniform senses, and coin-flip integrality."""
    if nnz > m * n:
        raise ValueError("nnz exceeds m*n")
    rng = PortableRng(seed)
    b = np.array([rng.normal() for _ in range(m)])
    c = np.array([rng.normal() for _ in range(n)])
    positions = sorted(rng.sample_without_replacement(m * n, nnz))
    vals = np.array([rng.normal() for _ in range(nnz)])
    lower = np.empty(n)
    upper = np.empty(n)
    for j in range(n):
        lo = rng.normal(0.0, 10.0)
        hi = rng.normal(0.0, 10.0)
        if lo > hi:
            lo, hi = hi, lo
        lower[j], upper[j] = lo, hi
    senses = np.array([rng.randint(3) for _ in range(m)], dtype=np.int8)
    integer = np.array([rng.randint(2) == 1 for _ in range(n)], dtype=bool)
    rows = np.array([p // n for p in positions], dtype=np.int64)
    cols = np.array([p % n for p in positions], dtype=np.int64)
    keep = vals != 0.0  # probability-zero guard; keeps the support exact
    return MilpInstance(
        m=m,
        n=n,
        c=c,
        b=b,
        senses=senses,
        lower=lower,
        upper=upper,
        integer=integer,
        a_rows=rows[keep],
        a_cols=cols[keep],
        a_vals=vals[keep],
    )


def _covering_instance(rows: list, n: int) -> MilpInstance:
    """min 1'x over x in {0, 1}^n such that each row covers at least one of
    its columns: row i reads sum of x_j over j in rows[i] >= 1."""
    m = len(rows)
    r_idx = np.array([i for i, cols in enumerate(rows) for _ in cols], dtype=np.int64)
    return MilpInstance(
        m=m,
        n=n,
        c=np.ones(n),
        b=np.ones(m),
        senses=np.full(m, Sense.GE, dtype=np.int8),
        lower=np.zeros(n),
        upper=np.ones(n),
        integer=np.ones(n, dtype=bool),
        a_rows=r_idx,
        a_cols=np.array([j for cols in rows for j in cols], dtype=np.int64),
        a_vals=np.ones(len(r_idx)),
    )


def counterexample_pair() -> tuple[MilpInstance, MilpInstance]:
    """Two 8-variable covering problems: an 8-cycle, and two triangles plus a
    2-cycle.  Node-level refinement cannot tell them apart although their
    branching scores differ."""
    cycle8 = _covering_instance([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)], 8)
    split = _covering_instance([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7), (7, 6)], 8)
    return cycle8, split


# A redraw loop gives up after this many rejections in a row.  Over 400
# seeds gen_training_set's longest run was 9 at 6x20 with 60 nonzeros (61%
# accepted) and 347 at 20x20 with 60 (0.25% accepted), where a run this long
# has odds about 1e-11.  A set-cover row is empty with odds (1 - d)^n per
# draw: 0.0115 at 20 columns and density 0.2, 0.0018 at 60 and 0.1.
MAX_CONSECUTIVE_REJECTIONS = 10_000


def _first_accepted(draws, accept, what: str):
    """The first of ``draws`` that ``accept`` takes, and the number rejected
    before it.  MAX_CONSECUTIVE_REJECTIONS rejections are a ValueError that
    starts with ``what``."""
    for rejected, draw in enumerate(draws):
        if accept(draw):
            return draw, rejected
        if rejected + 1 == MAX_CONSECUTIVE_REJECTIONS:
            raise ValueError(f"{what} in {rejected + 1} draws in a row, the rejection budget")


def gen_set_cover(seed: int, rows: int, cols: int, density: float) -> MilpInstance:
    """0/1 covering matrix with per-entry inclusion probability ``density``;
    empty rows are resampled so the relaxation is never trivially infeasible.
    Negative sizes, rows without a column to cover them, and
    MAX_CONSECUTIVE_REJECTIONS empty rows in a row are ValueErrors."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be >= 0")
    if rows and not cols:
        raise ValueError("a set-cover instance with rows needs at least one column to cover them")
    rng = PortableRng(seed)
    draws = ([j for j in range(cols) if rng.uniform() < density] for _ in itertools.count())
    what = f"set-cover {rows}x{cols} instances with density {density}: no nonempty row"
    return _covering_instance([_first_accepted(draws, bool, what)[0] for _ in range(rows)], cols)


def gen_training_set(seed: int, count: int, m: int = 6, n: int = 20, nnz: int = 60):
    """Generate ``count`` instances whose LP relaxation is feasible and
    bounded, rejecting and resampling the rest: draw k is gen_random(seed +
    k).  Returns (instances, rejection count, seeds), where instance k is
    gen_random(seeds[k], m, n, nnz).  A shape that yields
    MAX_CONSECUTIVE_REJECTIONS rejections in a row is a ValueError."""
    draws = ((s, gen_random(s, m=m, n=n, nnz=nnz)) for s in itertools.count(seed))
    what = f"random {m}x{n} instances with {nnz} nonzeros: no optimal relaxation"
    optimal = lambda draw: solve_lp(draw[1]).status == LpStatus.OPTIMAL
    picks = [_first_accepted(draws, optimal, what) for _ in range(count)]
    return [inst for (_, inst), _ in picks], sum(r for _, r in picks), [s for (s, _), _ in picks]
