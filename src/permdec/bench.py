"""Rotation-count and scalar-mult statistics over sampled permutations.

`permdec net profile` is the one caller. It samples uniform random
permutations (per-sample seed = base seed + index), builds each routing
network from the route table (verify.ROUTES["network"]: mask-reduced unless
asked otherwise, optionally level-collapsed), and aggregates the per-level
rotation profile, the distinct rotation keys and the priced
scalar-multiplication total. Samples run one after another
in this process. Each is priced from a replay on the zero vector
(costmodel.chain_cost), which takes a small fraction of the network build.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from .costmodel import CostParams, chain_cost
from .slots import Permutation
from .verify import ROUTES


@dataclass
class BenchResult:
    per_level_mean: dict[int, float]
    total_mean: float
    total_std: float
    scalar_mean: float
    distinct_keys: int


def bench_networks(n: int, samples: int = 20, seed: int = 0,
                   reduce: bool = True,
                   collapse: tuple[int, int] | None = None
                   ) -> BenchResult:
    """Aggregate over `samples` networks; `collapse` is (top, bottom) for
    collapse_levels, whose binary bottom tree adds no rotation key."""
    perms = (Permutation.random(n, random.Random(seed + i))
             for i in range(samples))
    reps = [chain_cost(ROUTES["network"](p, reduce, collapse).obj,
                       CostParams()) for p in perms]

    levels = sorted({lv for rep in reps for lv in rep.per_level})
    per_mean = {lv: sum(rep.per_level.get(lv, 0) for rep in reps) / samples
                for lv in levels}
    totals = [sum(rep.per_level.values()) for rep in reps]
    return BenchResult(
        per_mean,
        total_mean=statistics.fmean(totals),
        total_std=statistics.pstdev(totals),
        scalar_mean=statistics.fmean(rep.total for rep in reps),
        distinct_keys=len(set().union(*(rep.key_set for rep in reps))))
