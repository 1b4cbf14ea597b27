"""End-to-end oracle equivalence suite.

Every decomposition route the package offers is replayed on seeded random
instances and compared, slot for slot, against the free reference (direct
permutation application, or plain matrix arithmetic by
`hmm.reference_products`). The ladder checks run the families of
`structured.LADDERS`, and the network checks one routine over a table of
network preparations. Each check owns a generator derived from the seed and
its report name, `Random(f"{seed}:{name}")`, so a (seed, n_max) pair fixes
the whole suite bit for bit. The command line draws its inputs with the same
`random_slots` and `random_matrices`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .benes import benes_decompose, collapse_benes, restrict_keys
from .diag import DiagMatrix, matvec, perm_to_diag
from .hmm import (HmmConfig, Matrix, hmm_multiply, hmm_rotation_budget,
                  reference_products)
from .ledger import CostLedger
from .network import (build_network, collapse_levels, evaluate_network,
                      reduce_masks)
from .search import diag_profile, max_ideal_depth, validate_ideal_chain
from .slots import Permutation, SlotVector
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


def random_slots(rng, n: int) -> list[int]:
    """n slot values, each uniform in [-50, 50]."""
    return [rng.randint(-50, 50) for _ in range(n)]


def random_matrices(rng, cfg: HmmConfig) -> list[Matrix]:
    """cfg.m d x d operands, each entry uniform in [-9, 9]."""
    return [[[rng.randint(-9, 9) for _ in range(cfg.d)] for _ in range(cfg.d)]
            for _ in range(cfg.m)]


def _eval_matches(chain, m: DiagMatrix, rng) -> bool:
    vals = random_slots(rng, m.n)
    out = chain.evaluate(SlotVector.from_list(vals))
    return out.to_list() == matvec(m, vals)


def _per_config(budget: int, configs: int) -> int:
    return -(-budget // configs)


# ---------------------------------------------------------------- checks

def check_ideal_search(rng, budget: int) -> CheckResult:
    res = CheckResult("ideal-search")
    dims = (4, 8, 16)
    per = _per_config(budget, len(dims))
    for d in dims:
        u = build_ut(d)
        params = diag_profile(u)
        depth, chain = max_ideal_depth(u, params)
        rep = validate_ideal_chain(u, chain, params)
        res.flag(rep.ok and depth >= 1,
                 f"d={d}: ideal chain invalid ({rep.details[:1]})")
        for _ in range(per):
            res.flag(_eval_matches(chain, u, rng),
                     f"d={d}: searched chain output mismatch")
    return res


# check name -> family of structured.LADDERS
_LADDER_CHECKS = {"transpose-ladder": "ut", "diag-to-col-ladder": "sigma",
                  "diag-to-row-ladder": "tau"}


def check_ladder(name: str, family: str, rng, budget: int) -> CheckResult:
    build, decompose = LADDERS[family]
    res = CheckResult(name)
    # depth caps at floor(log2(d - 1)) splitting rounds
    configs = [(d, l) for d in (4, 8, 16)
               for l in range(1, (d - 1).bit_length())]
    per = _per_config(budget, len(configs))
    for d, l in configs:
        u = build(d)
        chain = decompose(d, l)
        res.flag(chain.product() == u, f"d={d} l={l}: product differs")
        for _ in range(per):
            res.flag(_eval_matches(chain, u, rng),
                     f"d={d} l={l}: ladder output mismatch")
    return res


def check_padded_fanout(rng, budget: int) -> CheckResult:
    res = CheckResult("padded-fanout")
    configs = [(2, 2, 1), (4, 4, 1), (4, 4, 2), (4, 2, 1), (8, 8, 2),
               (8, 8, 3), (8, 4, 2), (16, 8, 2), (16, 16, 3)]
    per = _per_config(budget, 2 * len(configs))
    for d, dp, l in configs:
        n = d * d * dp
        gamma, xi = build_gamma_xi(d, dp)
        cg, cx, _ = decompose_gamma_xi_pad(d, l, dp)
        support = set(unit_input_slots(d, dp))
        for chain, ref, which in ((cg, gamma, "gamma"), (cx, xi, "xi")):
            for _ in range(per):
                vals = [rng.randint(-30, 30) if s in support else 0
                        for s in range(n)]
                out = chain.evaluate(SlotVector.from_list(vals))
                res.flag(out.to_list() == matvec(ref, vals),
                         f"d={d} dp={dp} l={l}: padded {which} mismatch")
    return res


def check_batched_matmul(rng, budget: int) -> CheckResult:
    res = CheckResult("batched-matmul")
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
    per = _per_config(budget, len(configs))
    for cfg in configs:
        tag = f"d={cfg.d} dp={cfg.d_prime} rep={cfg.replication}"
        for it in range(per):
            a, b = random_matrices(rng, cfg), random_matrices(rng, cfg)
            with CostLedger() as led:
                got = hmm_multiply(a, b, cfg)
            res.flag(got == reference_products(a, b),
                     f"{tag}: product mismatch")
            if it == 0:
                bud = hmm_rotation_budget(cfg)
                rot = led.rotation_count
                res.flag(rot == bud.total,
                         f"{tag}: rotations {rot} vs budget {bud.total}")
    return res


def _sizes(weights: dict[int, float], n_max: int) -> list[tuple[int, float]]:
    """The (size, weight) pairs of weights up to n_max. When none fits, the
    largest power of two up to n_max, as Beneš needs a power of two."""
    sizes = [(n, w) for n, w in weights.items() if n <= n_max]
    return sizes or [(1 << (n_max.bit_length() - 1), 1.0)]


def _collapsed(net):
    # reduce, then collapse (2, 3) as far as the levels allow; a network
    # without levels (the identity) has no room and stays whole
    net = reduce_masks(net)
    room = max(net.max_level - 1, 0)
    b = min(3, room)
    t = min(2, room - b)
    return collapse_levels(net, t, b) if t or b else net


# check name -> what becomes of the built network before it runs
_NETWORK_CHECKS = {"network-raw": lambda net: net,
                   "network-reduced": reduce_masks,
                   "network-collapsed": _collapsed}


def check_network(name: str, rng, budget: int, n_max: int) -> CheckResult:
    prepare = _NETWORK_CHECKS[name]
    res = CheckResult(name)
    for n, w in _sizes({64: 0.5, 256: 0.3, 1024: 0.2}, n_max):
        for _ in range(max(1, round(budget * w))):
            p = Permutation.random(n, rng)
            net = prepare(build_network(p))
            vals = random_slots(rng, n)
            out = evaluate_network(net, SlotVector.from_list(vals))
            res.flag(out.to_list() == p.apply(vals),
                     f"n={n}: network output differs from permutation")
    return res


def check_benes(rng, budget: int, n_max: int) -> CheckResult:
    res = CheckResult("benes")
    for n, w in _sizes({64: 0.5, 256: 0.38, 1024: 0.12}, n_max):
        for it in range(max(1, round(budget * w))):
            p = Permutation.random(n, rng)
            bc = collapse_benes(benes_decompose(p))
            res.flag(bc.product() == perm_to_diag(p),
                     f"n={n}: collapsed product differs")
            vals = random_slots(rng, n)
            out = bc.evaluate(SlotVector.from_list(vals))
            res.flag(out.to_list() == p.apply(vals),
                     f"n={n}: collapsed evaluation mismatch")
            if it % 4 == 0:
                rc = restrict_keys(bc)
                out = rc.evaluate(SlotVector.from_list(vals))
                res.flag(out.to_list() == p.apply(vals),
                         f"n={n}: key-restricted evaluation mismatch")
    return res


# ---------------------------------------------------------------- runner

def run_suite(n_max: int = 1024, seed: int = DEFAULT_SEED,
              full: bool = True) -> SuiteReport:
    """Run every oracle check; `full` uses >= 100 instances per route."""
    budget = 100 if full else 24

    def gen(name: str) -> random.Random:
        return random.Random(f"{seed}:{name}")

    checks = [check_ideal_search(gen("ideal-search"), budget)]
    checks += [check_ladder(name, family, gen(name), budget)
               for name, family in _LADDER_CHECKS.items()]
    checks += [check_padded_fanout(gen("padded-fanout"), budget),
               check_batched_matmul(gen("batched-matmul"), budget)]
    checks += [check_network(name, gen(name), budget, n_max)
               for name in _NETWORK_CHECKS]
    checks.append(check_benes(gen("benes"), budget, n_max))
    return SuiteReport(n_max, seed, checks)
