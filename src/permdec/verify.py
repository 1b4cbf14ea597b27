"""The route table, and the end-to-end oracle equivalence suite over it.

`ROUTES` maps each route family (the ut/sigma/tau ladders, padded gamma/xi,
searched chains, raw, reduced and collapsed networks, collapsed and
key-restricted Beneš chains) to a builder of its `Route`. The command line,
`bench` and the suite build every route there, and `checked_run` runs one.

The suite compares seeded random runs of every family, slot for slot, with
their oracles (batched matrix products, with two operands, run through
`hmm_trial`). Each check draws from `Random(f"{seed}:{name}")`, so a
(seed, n_max) pair fixes the whole suite bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

from .benes import benes_decompose, collapse_benes, restrict_keys
from .diag import DiagMatrix, matvec, perm_to_diag
from .hmm import (HmmConfig, Matrix, hmm_multiply, hmm_rotation_budget,
                  reference_products)
from .ledger import CostLedger
from .network import build_network, collapse_levels, reduce_masks
from .search import diag_profile, max_ideal_depth, validate_ideal_chain
from .slots import DEFAULT_LEVEL, Permutation, SlotVector
from .structured import (LADDERS, build_gamma_xi, build_ut,
                         decompose_gamma_xi_pad, unit_input_slots)

DEFAULT_SEED = 1789


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def flag(self, cond: bool, msg: str) -> None:
        """Count one instance; a failed condition is logged (first few)."""
        self.instances += 1
        if not cond:
            self.failures += 1
            if len(self.details) < 5:
                self.details.append(msg)

    def to_json(self) -> dict:
        return {"name": self.name, "instances": self.instances,
                "failures": self.failures, "ok": self.ok,
                "details": list(self.details)}


@dataclass
class SuiteReport:
    n_max: int
    seed: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def instances(self) -> int:
        return sum(c.instances for c in self.checks)

    def to_json(self) -> dict:
        return {"n_max": self.n_max, "seed": self.seed, "ok": self.ok,
                "instances": self.instances,
                "checks": [c.to_json() for c in self.checks]}


def random_matrices(rng, cfg: HmmConfig) -> list[Matrix]:
    """cfg.m d x d operands, each entry uniform in [-9, 9]."""
    return [[[rng.randint(-9, 9) for _ in range(cfg.d)] for _ in range(cfg.d)]
            for _ in range(cfg.m)]


def hmm_trial(rng, cfg: HmmConfig) -> tuple[bool, int]:
    """One product of random operands: whether it equals
    `reference_products`, and the rotations it ran."""
    a, b = random_matrices(rng, cfg), random_matrices(rng, cfg)
    with CostLedger() as led:
        got = hmm_multiply(a, b, cfg)
    return got == reference_products(a, b), led.rotation_count


# ------------------------------------------------------------- route table

@dataclass
class Route:
    """A built route: `obj` runs it (`.n`, `.evaluate(v)`), `want(vals)` is
    its oracle, `structure()` its structural check (None when the family has
    none) and `support` the slots its input may use (None: every slot)."""

    obj: Any
    want: Callable[[list[int]], list[int]]
    structure: Callable[[], bool] | None = None
    support: set[int] | None = None

    def draw(self, rng) -> list[int]:
        """One random input: every slot uniform in [-50, 50], or, on a
        padded route, [-30, 30] on its support and zero elsewhere."""
        n = self.obj.n
        if self.support is None:
            return [rng.randint(-50, 50) for _ in range(n)]
        return [rng.randint(-30, 30) if s in self.support else 0
                for s in range(n)]


def _ladder(family: str, d: int, l: int, n: int | None = None) -> Route:
    target, decompose = LADDERS[family]  # read per call: tests patch it
    chain = decompose(d, l, n)
    u = target(d, n)
    return Route(chain, partial(matvec, u), lambda: chain.product() == u)


def _padded(which: int, d: int, l: int, dp: int | None = None,
            n: int | None = None) -> Route:
    u = build_gamma_xi(d, dp, n)[which]
    chain = decompose_gamma_xi_pad(d, l, dp, n)[which]
    return Route(chain, partial(matvec, u),
                 support=set(unit_input_slots(d, dp, chain.n)))


def _searched(u: DiagMatrix) -> Route:
    """The deepest ideal-form chain of u the search finds. Its check asks for
    the ideal-form conditions and a split: depth 0 decomposes nothing."""
    params = diag_profile(u)
    _, chain = max_ideal_depth(u, params)
    return Route(chain, partial(matvec, u), lambda: chain.depth > 1 and
                 validate_ideal_chain(u, chain, params).ok)


def prepare(p: Permutation, reduce: bool = True,
            collapse: tuple[int, int] | None = None) -> Route:
    """The network routing p, mask-reduced when `reduce`, then collapsed by
    collapse_levels(net, *collapse) when `collapse` is given."""
    net = build_network(p)
    if reduce:
        net = reduce_masks(net)
    if collapse:
        net = collapse_levels(net, *collapse)
    return Route(net, p.apply)


def _benes(p: Permutation, depth: int | None = None,
           budget: int | None = None, collapse: bool = True,
           restrict: bool = True) -> Route:
    """The Beneš chain of p, collapsed to `depth` factors when `collapse`,
    and routed through `budget` keys when `restrict`. A chain deeper than
    the levels of a fresh vector is refused from the routing, before any
    factor is built."""
    routing = benes_decompose(p)
    nf = routing.collapsed_depth(depth) if collapse else routing.depth
    if nf > DEFAULT_LEVEL:  # each factor rescales once
        raise ValueError(f"a chain of {nf} factors needs {nf} levels; only "
                         f"{DEFAULT_LEVEL} are available")
    bc = collapse_benes(routing, depth) if collapse else routing.chain()
    if restrict:
        bc = restrict_keys(bc, budget)
    return Route(bc, p.apply, lambda: bc.product() == perm_to_diag(p))


# family -> builder of its Route
ROUTES: dict[str, Callable[..., Route]] = {
    **{family: partial(_ladder, family) for family in LADDERS},
    "gamma": partial(_padded, 0), "xi": partial(_padded, 1),
    "search": _searched,
    "network": prepare, "benes": _benes,
}


def checked_run(route: Route, vals: list[int]
                ) -> tuple[bool, CostLedger, SlotVector]:
    """Run a route once on vals under its own CostLedger: whether the output
    is `route.want(vals)` slot for slot, the ledger of the run, and the
    output. Networks run through `.evaluate` like chains."""
    with CostLedger() as led:
        out = route.obj.evaluate(SlotVector.from_list(vals))
    return out.to_list() == route.want(vals), led, out


def _sizes(weights: dict[int, float], n_max: int) -> list[tuple[int, float]]:
    """The (size, weight) pairs of weights up to n_max. When none fits, the
    largest power of two up to n_max, as Beneš needs a power of two."""
    sizes = [(n, w) for n, w in weights.items() if n <= n_max]
    return sizes or [(1 << (n_max.bit_length() - 1), 1.0)]


# ---------------------------------------------------------------- checks
# A check yields one (condition, message) flag per instance it counts.

def _runs(tag: str, routes: list[Route], runs: int, rng):
    """A case's flags: each route's structural check once, then, on each of
    `runs` random inputs, one checked run of every route."""
    for route in routes:
        if route.structure is not None:
            yield route.structure(), f"{tag}: structure differs"
    for _ in range(runs):
        vals = routes[0].draw(rng)
        for route in routes:
            yield (checked_run(route, vals)[0],
                   f"{tag}: output differs from the oracle")


def _shared(cases: list[tuple[str, Route]], budget: int, rng):
    """The flags of (tag, route) cases that split the budget's runs."""
    per = -(-budget // len(cases))
    for tag, route in cases:
        yield from _runs(tag, [route], per, rng)


def _ideal_search(rng, budget: int, n_max: int):
    cases = [(f"d={d}", ROUTES["search"](build_ut(d))) for d in (4, 8, 16)]
    return _shared(cases, budget, rng)


def _ladders(family: str, rng, budget: int, n_max: int):
    # depth caps at floor(log2(d - 1)) splitting rounds
    return _shared([(f"d={d} l={l}", ROUTES[family](d, l)) for d in (4, 8, 16)
                    for l in range(1, (d - 1).bit_length())], budget, rng)


def _padded_fanout(rng, budget: int, n_max: int):
    configs = [(2, 2, 1), (4, 4, 1), (4, 4, 2), (4, 2, 1), (8, 8, 2),
               (8, 8, 3), (8, 4, 2), (16, 8, 2), (16, 16, 3)]
    return _shared([(f"d={d} dp={dp} l={l} {which}", ROUTES[which](d, l, dp))
                    for d, dp, l in configs for which in ("gamma", "xi")],
                   budget, rng)


def _networks(reduce: bool, fit: bool, rng, budget: int, n_max: int):
    for n, w in _sizes({64: 0.5, 256: 0.3, 1024: 0.2}, n_max):
        for _ in range(max(1, round(budget * w))):
            route = ROUTES["network"](Permutation.random(n, rng), reduce)
            if fit:
                # collapse (2, 3) as far as the levels allow; a network
                # without levels (the identity) has no room and stays whole
                room = max(route.obj.max_level - 1, 0)
                b = min(3, room)
                route.obj = collapse_levels(route.obj, min(2, room - b), b)
            yield from _runs(f"n={n}", [route], 1, rng)


def _benes_chains(rng, budget: int, n_max: int):
    for n, w in _sizes({64: 0.5, 256: 0.38, 1024: 0.12}, n_max):
        for it in range(max(1, round(budget * w))):
            route = ROUTES["benes"](Permutation.random(n, rng),
                                    restrict=False)
            routes = [route]
            if it % 4 == 0:
                # the collapsed chain's factors, whose product is checked
                routes.append(replace(route, obj=restrict_keys(route.obj),
                                      structure=None))
            yield from _runs(f"n={n}", routes, 1, rng)


def _batched_matmul(rng, budget: int, n_max: int):
    configs = [
        HmmConfig(4, 4), HmmConfig(4, 2, 2), HmmConfig(4, 1),
        HmmConfig(8, 8), HmmConfig(8, 4), HmmConfig(8, 2, 2),
        HmmConfig(16, 16), HmmConfig(16, 8), HmmConfig(16, 4),
        HmmConfig(16, 1),
        HmmConfig(4, 1, replication=(2, 2)),
        HmmConfig(8, 1, replication=(4, 2)),
        HmmConfig(8, 2, replication=(2, 2, 2)),
        HmmConfig(16, 2, replication=(2, 8)),
        HmmConfig(16, 4, replication=(4, 4)),
    ]
    per = -(-budget // len(configs))
    for cfg in configs:
        tag = f"d={cfg.d} dp={cfg.d_prime} rep={cfg.replication}"
        for it in range(per):
            ok, rot = hmm_trial(rng, cfg)
            yield ok, f"{tag}: product mismatch"
            if it == 0:
                bud = hmm_rotation_budget(cfg)
                yield (rot == bud.total,
                       f"{tag}: rotations {rot} vs budget {bud.total}")


# check name -> its flags(rng, budget, n_max), in report order
CHECKS = {
    "ideal-search": _ideal_search,
    "transpose-ladder": partial(_ladders, "ut"),
    "diag-to-col-ladder": partial(_ladders, "sigma"),
    "diag-to-row-ladder": partial(_ladders, "tau"),
    "padded-fanout": _padded_fanout,
    "batched-matmul": _batched_matmul,
    "network-raw": partial(_networks, False, False),
    "network-reduced": partial(_networks, True, False),
    "network-collapsed": partial(_networks, True, True),
    "benes": _benes_chains,
}


# ---------------------------------------------------------------- runner

def run_check(name: str, rng, budget: int, n_max: int) -> CheckResult:
    """One check of the suite, drawing its instances from rng."""
    res = CheckResult(name)
    for cond, msg in CHECKS[name](rng, budget, n_max):
        res.flag(cond, msg)
    return res


def run_suite(n_max: int = 1024, seed: int = DEFAULT_SEED,
              full: bool = True) -> SuiteReport:
    """Run every oracle check; `full` uses >= 100 instances per route."""
    budget = 100 if full else 24
    return SuiteReport(n_max, seed, [
        run_check(name, random.Random(f"{seed}:{name}"), budget, n_max)
        for name in CHECKS])
