"""Switching-network baseline for arbitrary slot permutations.

A permutation of n = 2^m slots splits as U = S . R . T where T and S are
switch stages (each slot either stays put or trades places with its partner
half a block away) and R acts independently on the two halves. Recursing on R
yields 2m - 1 stage factors whose round-i members only touch diagonals
{0, +-2^(m-i-1)}. That depth is rarely affordable, so adjacent stages are
multiplied back together ("collapsed") down to a target depth, each merged
factor evaluated as one masked-rotation transform. Rotation keys can further
be restricted to a budget of steps (log n by default), with missing steps
carried out as short chains of available ones.

The routing is the classical looping construction: pair constraints (input
partners and output partners must use different halves) form even cycles, so
walking each cycle and alternating the half assignment always succeeds.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

from .chain import DecompositionChain
from .diag import BsgsPlan, _window_counts, perm_to_diag, plan_bsgs
from .slots import Permutation, SlotVector


def _two_color(dest):
    """Half assignment per element under both pairing constraints."""
    n = len(dest)
    half = n // 2
    src = [0] * n
    for i, d in enumerate(dest):
        src[d] = i
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        e, c = s, 0
        while True:
            if color[e] >= 0:
                assert color[e] == c, "odd cycle in the pair graph"
                break
            color[e] = c
            mate = (e + half) % n  # shares e's input switch
            if color[mate] >= 0:
                assert color[mate] == 1 - c, "odd cycle in the pair graph"
                break
            color[mate] = 1 - c
            # the element sharing mate's output switch goes opposite to it
            e = src[(dest[mate] + half) % n]
    return color


def _plan_for(offs: Sequence[int], n: int) -> BsgsPlan:
    """BSGS plan for a factor whose signed diagonals are offs (ascending)."""
    stride = math.gcd(*offs) or 1
    ts = [o // stride for o in offs]
    dmax = max(-ts[0], ts[-1])
    if dmax <= 64:
        return plan_bsgs(ts, n, stride=stride)
    # wide spreads: full n1 sweep is wasteful, try small splits and powers,
    # all counted in one bitset sweep; the first with the fewest rotations
    # is planned (plan_bsgs swaps in the pure-baby plan only when that is
    # strictly fewer)
    cands = sorted(set(range(1, 65))
                   | {1 << b for b in range(7, dmax.bit_length())})
    counts = [nj + ng
              for nj, ng in _window_counts(ts, cands, "sparse", dmax)]
    return plan_bsgs(ts, n, stride=stride,
                     n1=cands[counts.index(min(counts))], style="sparse")


@dataclass
class BenesChain(DecompositionChain):
    """A factor chain of switch stages, planned for BSGS evaluation.

    `stages[i]` holds the targets of factor i, the routing's own record that
    the factor is built from, and `groups[i]` records which pre-collapse
    stages it merges. Rotation counts and key sets are read from the
    CostLedger of a run.
    """

    stages: list[tuple[int, ...]] = field(default_factory=list)
    groups: list[tuple[int, int]] = field(default_factory=list)

    TAG: ClassVar[str] = "benes"

    def __post_init__(self):
        if not self.plans:
            self.plans = [_plan_for(f.signed_diag_set(), f.n)
                          for f in self.factors]
        super().__post_init__()
        if not len(self.factors) == len(self.stages) == len(self.groups):
            raise ValueError("factors, stages and groups differ in length")


def _chain(n: int, stages: list[tuple[int, ...]],
           groups: list[tuple[int, int]]) -> BenesChain:
    """The chain whose factor i moves entry j to stages[i][j]. The stages
    come from the routing, so they are not validated again."""
    factors = [perm_to_diag(Permutation._unchecked(t)) for t in stages]
    return BenesChain(n, factors, stages=stages, groups=groups)


def benes_decompose(p: Permutation) -> BenesChain:
    """Full-depth stage factorization, 2 log n - 1 factors."""
    n = p.n
    if n < 1 or n & (n - 1):
        raise ValueError("length must be a power of two")
    if n == 1:
        return _chain(1, [], [])
    m = n.bit_length() - 1
    sigmas: list[tuple[int, ...]] = []
    taus: list[tuple[int, ...]] = []
    tasks = [(0, list(p.targets))]  # (block base, block-local permutation)
    for rnd in range(m - 1):
        sz = n >> rnd
        hf = sz // 2
        tau_t = list(range(n))
        sigma_t = list(range(n))
        nxt = []
        for base, dest in tasks:
            color = _two_color(dest)
            top = [-1] * hf
            bot = [-1] * hf
            for i, c in enumerate(color):
                j = dest[i]
                tau_t[base + i] = base + c * hf + (i % hf)
                sigma_t[base + c * hf + (j % hf)] = base + j
                (top if c == 0 else bot)[i % hf] = j % hf
            assert -1 not in top and -1 not in bot
            nxt.append((base, top))
            nxt.append((base + hf, bot))
        taus.append(tuple(tau_t))
        sigmas.append(tuple(sigma_t))
        tasks = nxt
    middle = list(range(n))
    for base, dest in tasks:  # size-2 blocks form one switch stage
        for i, j in enumerate(dest):
            middle[base + i] = base + j
    stages = sigmas + [tuple(middle)] + taus[::-1]
    return _chain(n, stages, [(i, i + 1) for i in range(2 * m - 1)])


def collapse_benes(chain: BenesChain, target_depth: int | None = None
                   ) -> BenesChain:
    """Merge adjacent factors down to target_depth (default log n - 1).

    Contiguous groupings are scored by the merged factors' executed rotation
    counts and the cheapest split is taken (first found on ties, scanning
    boundaries left to right). Spans are scored on the chain's stage
    targets: a span (a, b + 1) is span (a, b) after one gather through stage
    b, and one pass over the n differences i - targets[i] gives its distinct
    diagonals, reduced to signed offsets on the distinct values only. The
    chosen spans are merged by the same gathers.
    """
    n = chain.n
    if target_depth is None:
        target_depth = max(n.bit_length() - 2, 1)
    if target_depth < 1:
        raise ValueError("target depth must be >= 1")
    nf = chain.depth
    if target_depth >= nf:
        return chain
    stages = chain.stages

    span_max = nf - target_depth + 1
    cost: dict[tuple[int, int], int] = {}
    # spans often share an offset set; only its count is kept, as holding
    # every span's plan or product would grow the peak memory several MB
    by_offsets: dict[tuple[int, ...], int] = {}
    for a in range(nf):
        q = stages[a]
        for b in range(a + 1, min(a + span_max, nf) + 1):
            if b > a + 1:
                q = tuple(map(q.__getitem__, stages[b - 1]))
            ks = {d % n for d in set(map(operator.sub, range(n), q))}
            offs = tuple(sorted(k if k <= n - k else k - n for k in ks))
            if offs not in by_offsets:
                by_offsets[offs] = len(_plan_for(offs, n).executed_steps())
            cost[a, b] = by_offsets[offs]

    INF = float("inf")
    best = [[INF] * (target_depth + 1) for _ in range(nf + 1)]
    back = [[-1] * (target_depth + 1) for _ in range(nf + 1)]
    best[0][0] = 0
    for i in range(1, nf + 1):
        for g in range(1, min(i, target_depth) + 1):
            if nf - i < target_depth - g:  # not enough factors left
                continue
            for a in range(max(g - 1, i - span_max), i):
                prev = best[a][g - 1]
                if prev is INF or (a, i) not in cost:
                    continue
                c = prev + cost[a, i]
                if c < best[i][g]:
                    best[i][g] = c
                    back[i][g] = a
    assert best[nf][target_depth] is not INF

    bounds = [nf]
    i, g = nf, target_depth
    while g:
        i = back[i][g]
        bounds.append(i)
        g -= 1
    bounds.reverse()

    merged, groups = [], []
    for a, b in zip(bounds, bounds[1:]):
        q = stages[a]
        for stage in stages[a + 1:b]:
            q = tuple(map(q.__getitem__, stage))
        merged.append(q)
        groups.append((chain.groups[a][0], chain.groups[b - 1][1]))
    return _chain(n, merged, groups)


def _short_sum(step, keys, n):
    if step in keys:
        return True
    return any((step - k) % n in keys for k in keys)


def _key_paths(steps, keys, n):
    """Shortest composition of each step from the key set, or None."""
    order = sorted(keys)
    dist = [-1] * n
    pred = [0] * n
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for k in order:
                y = (x + k) % n
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    pred[y] = k
                    nxt.append(y)
        frontier = nxt
    paths = {}
    for s in steps:
        s %= n
        if dist[s] < 0:
            return None
        path = []
        x = s
        while x:
            path.append(pred[x])
            x = (x - pred[x]) % n
        paths[s] = tuple(reversed(path))
    return paths


def restrict_keys(chain: BenesChain, budget: int | None = None) -> BenesChain:
    """Route every rotation through a key set of `budget` steps (default
    log2 n, at least 1).

    The busiest steps are kept outright unless already a sum of two kept
    keys; whatever budget remains goes to the busiest skipped steps. Steps
    left out are rotated in several hops, so totals can only grow. When the
    kept keys cannot reach every step, power-of-two steps n/2, n/4, ... are
    added until they do, so the keys can outnumber the budget: a random
    permutation of n = 32 with the default budget 5 can run on 7 keys.
    """
    n = chain.n
    if budget is None:
        budget = max(1, n.bit_length() - 1)
    if budget < 1:
        raise ValueError("key budget must be >= 1")
    counts: Counter = Counter()
    for plan in chain.plans:
        counts.update(plan.executed_steps())
    if not counts:
        return replace(chain, key_paths={})

    ordered = sorted(counts, key=lambda s: (-counts[s], s))
    keys: list[int] = []
    for s in ordered:
        if len(keys) >= budget:
            break
        if not _short_sum(s, keys, n):
            keys.append(s)
    for s in ordered:
        if len(keys) >= budget:
            break
        if s not in keys:
            keys.append(s)
    kset = set(keys)
    paths = _key_paths(counts, kset, n)
    pw = n >> 1
    while paths is None and pw:  # guarantee coverage via power steps
        kset.add(pw)
        pw >>= 1
        paths = _key_paths(counts, kset, n)
    assert paths is not None
    return replace(chain, key_paths=paths)


def evaluate_benes(chain: BenesChain, v: SlotVector) -> SlotVector:
    return chain.evaluate(v)
