"""Rotation-count and scalar-mult statistics over sampled permutations.

For each size the bench samples uniform random permutations (per-sample seed
= base seed + index), builds the routing network (mask-reduced unless asked
otherwise, optionally level-collapsed), and aggregates the per-level rotation
profile, the distinct rotation keys and the priced scalar-multiplication
total; `permdec net profile` reports the same aggregate. Samples run one
after another in this process. Each is priced from a slot-free replay
(costmodel.chain_cost), which takes a small fraction of the network build.

CSV schema (one row per size and level):

    n,samples,seed,level,mean_rotations,std_total,mean_total,mean_scalar_mult

The std_total/mean_total/mean_scalar_mult columns repeat each size's
aggregate on all of its level rows.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
from dataclasses import dataclass

from .costmodel import CostParams, CostReport, chain_cost
from .network import build_network, collapse_levels, reduce_masks
from .slots import Permutation

CSV_HEADER = ("n,samples,seed,level,mean_rotations,"
              "std_total,mean_total,mean_scalar_mult")


def _sample(n: int, seed: int, reduce: bool,
            collapse: tuple[int, int, int] | None) -> CostReport:
    """One permutation's priced network."""
    net = build_network(Permutation.random(n, random.Random(seed)))
    if reduce:
        net = reduce_masks(net)
    if collapse:
        net = collapse_levels(net, *collapse)
    return chain_cost(net, CostParams())


@dataclass
class BenchResult:
    n: int
    samples: int
    seed: int
    per_level_mean: dict[int, float]
    total_mean: float
    total_std: float
    scalar_mean: float
    distinct_keys: int

    def to_json(self) -> dict:
        return {
            "n": self.n, "samples": self.samples, "seed": self.seed,
            "per_level_mean": {str(k): v for k, v in
                               sorted(self.per_level_mean.items())},
            "total_mean": self.total_mean, "total_std": self.total_std,
            "scalar_mult_mean": self.scalar_mean,
        }


def bench_networks(n: int, samples: int = 20, seed: int = 0,
                   reduce: bool = True,
                   collapse: tuple[int, int, int] | None = None
                   ) -> BenchResult:
    """Aggregate over `samples` networks; `collapse` is (top, bottom,
    arity) for collapse_levels."""
    reps = [_sample(n, seed + i, reduce, collapse) for i in range(samples)]

    levels = sorted({lv for rep in reps for lv in rep.per_level})
    per_mean = {lv: sum(rep.per_level.get(lv, 0) for rep in reps) / samples
                for lv in levels}
    totals = [sum(rep.per_level.values()) for rep in reps]
    return BenchResult(
        n, samples, seed, per_mean,
        total_mean=statistics.fmean(totals),
        total_std=statistics.pstdev(totals),
        scalar_mean=statistics.fmean(rep.total for rep in reps),
        distinct_keys=len(set().union(*(rep.key_set for rep in reps))))


def bench_csv(results: list[BenchResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER.split(","))
    for r in results:
        for lv in sorted(r.per_level_mean):
            w.writerow([r.n, r.samples, r.seed, lv,
                        f"{r.per_level_mean[lv]:.3f}",
                        f"{r.total_std:.3f}", f"{r.total_mean:.3f}",
                        f"{r.scalar_mean:.1f}"])
    return buf.getvalue()
