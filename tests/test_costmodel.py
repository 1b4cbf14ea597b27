"""Scalar-multiplication pricing.

Closed-form submodule counts are frozen against hand expansions; the
fused-drop saving is checked exactly over the whole (level, alpha) grid;
structure costing is cross-checked against replay ledgers and against the
published per-permutation ScalarMult totals.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permdec.benes import benes_decompose, collapse_benes, restrict_keys
from permdec.chain import DecompositionChain
from permdec.costmodel import (CostParams, chain_cost, replay,
                               submodule_cost)
from permdec.diag import perm_to_diag
from permdec.ledger import CostLedger
from permdec.network import (build_network, collapse_levels, reduce_masks,
                             rotation_profile)
from permdec.slots import (DepthExhaustedError, Permutation, SlotVector,
                           _Sparse)
from permdec.structured import decompose_gamma_xi_pad
from util import SMALL_ROUTES, benes_key_set, benes_total_rotations

N = 1 << 15
LOGN = 15

# mean ScalarMult totals for one random permutation, level schedule 17 - lv
REFERENCE_TOTALS = {1 << 10: 2.484e9, 1 << 11: 2.814e9, 1 << 12: 3.101e9}


def _reduced_net(n, seed):
    p = Permutation.random(n, random.Random(seed))
    return reduce_masks(build_network(p))


# ---------------------------------------------------------------- params

def test_params_validation():
    with pytest.raises(ValueError, match="power of two"):
        CostParams(N=3000)
    with pytest.raises(ValueError, match="alpha"):
        CostParams(alpha=0)
    with pytest.raises(ValueError, match="level"):
        CostParams(level=18)
    with pytest.raises(ValueError, match="level"):
        CostParams(level=-1)


def test_params_derived_quantities():
    cp = CostParams()
    assert (cp.N, cp.L, cp.alpha, cp.level) == (1 << 15, 18, 3, 17)
    assert cp.log_n == 15
    assert cp.at(4).level == 4 and cp.at(4).alpha == cp.alpha


# ------------------------------------------------------------ submodules

def test_rescale_matches_hand_count():
    # one drop from level 17 to 16: 2N((l+1) + (l+2)(logN+1)) at l=16
    assert submodule_cost("rescale", CostParams(level=16)) == 19_988_480
    assert 2 * N * (17 + 18 * (LOGN + 1)) == 19_988_480


def test_rotation_parts_match_hand_counts():
    # full-width rotation, l=17, alpha=3: width 18, beta 6
    cp = CostParams()
    assert submodule_cost("decompose", cp) == N * (15 * 18 + 6 * (3 + 18 * 18))
    assert submodule_cost("multsum", cp) == 2 * N * 6 * (18 + 3)
    assert submodule_cost("moddown", cp) == 2 * N * (18 * 19 + 3 * 16)


def test_separate_rotation_prices_incoming_width():
    # at parameter l the operand sits one level higher: width l+2 moduli,
    # then a rescale lands it on l
    l, a = 7, 3
    cp = CostParams(alpha=a, level=l)
    w = l + 2
    b = -(-w // a)
    dec = N * LOGN * w + b * N * (a + w * (LOGN + a))
    ms = 2 * N * b * (w + a)
    md = 2 * N * (w * (a + LOGN + 1) + a * (LOGN + 1))
    res = 2 * N * ((l + 1) + (l + 2) * (LOGN + 1))
    assert submodule_cost("rotation_separate", cp) == dec + ms + md + res


def test_merged_rotation_fuses_the_drop():
    l, a = 7, 3
    cp = CostParams(alpha=a, level=l)
    w = l + 2
    b = -(-w // a)
    dec = N * LOGN * w + b * N * (a + w * (LOGN + a))
    ms = 2 * N * b * (w + a)
    fused = 2 * N * (l * ((a + 1) + LOGN + 1) + (a + 1) * (LOGN + 1))
    assert submodule_cost("rotation_merged", cp) == dec + ms + fused


def test_mask_scales_with_level():
    assert submodule_cost("mask", CostParams(level=17)) == 2 * N * 18
    assert submodule_cost("mask", CostParams(level=0)) == 2 * N


def test_all_submodules_positive_at_minimal_params():
    cp = CostParams(N=2, alpha=1, level=0)
    for kind in ("rescale", "decompose", "multsum", "moddown",
                 "rotation_separate", "rotation_merged", "mask"):
        assert submodule_cost(kind, cp) > 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown submodule"):
        submodule_cost("ntt", CostParams())


def test_saving_closed_form():
    # hand expansion: separate minus merged collapses to 2N(16l + 2a + 49)
    # when logN = 15, independent of the ceiling bumps
    for a in (1, 2, 3, 4):
        for l in range(17):
            cp = CostParams(alpha=a, level=l)
            diff = (submodule_cost("rotation_separate", cp)
                    - submodule_cost("rotation_merged", cp))
            assert diff == 2 * N * (16 * l + 2 * a + 49)


def test_saving_meets_published_bound_everywhere():
    # N(l logN + 3.5 logN - l + 8), exact rational comparison
    for a in (2, 3):
        for l in range(17):
            cp = CostParams(alpha=a, level=l)
            diff = (submodule_cost("rotation_separate", cp)
                    - submodule_cost("rotation_merged", cp))
            bound = (N * l * LOGN + Fraction(7, 2) * N * LOGN
                     - N * l + 8 * N)
            assert Fraction(diff) >= bound, (a, l)


# ---------------------------------------------------------- chain reports

def test_single_rotation_chain_frozen_breakdown():
    # one rotation of a fresh operand (width 18) plus its rescale and mask
    ch = DecompositionChain(64, [perm_to_diag(Permutation.rotation(64, 5))])
    rep = chain_cost(ch)
    assert rep.breakdown == {
        "rescale": 19_988_480,
        "decompose": 73_138_176,
        "multsum": 8_257_536,
        "moddown": 25_559_040,
        "mask": 1_179_648,
    }
    assert rep.total == 128_122_880
    assert rep.per_level == {1: 1}
    assert rep.key_set == {5}
    assert rep.depth == 1


def test_chain_rotations_match_replay(rng):
    p = Permutation.random(256, rng)
    bc = collapse_benes(benes_decompose(p))
    ch = DecompositionChain(bc.n, bc.factors, bc.plans)
    rep = chain_cost(ch)
    with CostLedger() as led:
        ch.evaluate(SlotVector.zeros(256))
    assert sum(rep.per_level.values()) == led.rotation_count
    assert rep.key_set == led.key_set()
    expect_mask = sum(2 * N * (lv + 1)
                      for lv in led.cmults_by_level().elements())
    assert rep.breakdown["mask"] == expect_mask
    assert rep.breakdown["rescale"] > 0


def test_chain_additivity():
    # splitting a chain and costing the parts at their true start levels
    # reproduces the whole-chain report entry by entry
    p = Permutation.random(64, random.Random(41))
    bc = collapse_benes(benes_decompose(p))
    ch = DecompositionChain(bc.n, bc.factors, bc.plans)
    assert ch.depth == 5
    cut = 2
    head = DecompositionChain(64, ch.factors[:cut], ch.plans[:cut])
    tail = DecompositionChain(64, ch.factors[cut:], ch.plans[cut:])
    cp0 = CostParams()
    full = chain_cost(ch, cp0)
    first = chain_cost(tail, cp0)  # applied first, right to left
    second = chain_cost(head, cp0.at(cp0.level - tail.depth))
    for key in full.breakdown:
        assert full.breakdown[key] == (first.breakdown[key]
                                       + second.breakdown[key])
    assert full.total == first.total + second.total


def test_chain_level_underflow():
    f = perm_to_diag(Permutation.rotation(16, 1))
    ch = DecompositionChain(16, [f, f, f])
    with pytest.raises(DepthExhaustedError):
        chain_cost(ch, CostParams(level=2))
    assert chain_cost(ch, CostParams(level=3)).depth == 3


def test_restricted_keys_raise_rotation_cost(rng):
    p = Permutation.random(256, rng)
    bc = collapse_benes(benes_decompose(p))
    rc = restrict_keys(bc)
    free = chain_cost(bc)
    tight = chain_cost(rc)
    assert sum(tight.per_level.values()) == benes_total_rotations(rc)
    assert tight.key_set == benes_key_set(rc)
    assert tight.breakdown["mask"] == free.breakdown["mask"]
    # the masks match, so the rotations carry the whole difference
    assert tight.total >= free.total


# -------------------------------------------------------- network reports

def test_identity_network_costs_nothing():
    rep = chain_cost(build_network(Permutation.identity(64)))
    assert rep.total == 0
    assert rep.depth == 0
    assert not rep.per_level and not rep.key_set


def test_network_report_matches_profile(rng):
    from util import zero_ledger
    net = _reduced_net(256, 123)
    rep = chain_cost(net)
    led = zero_ledger(net)
    assert rep.per_level == rotation_profile(net, led)
    assert rep.key_set == led.key_set()
    assert rep.depth == max(rep.per_level)
    assert rep.breakdown["rescale"] == 0  # drops ride the fused moddown
    assert rep.breakdown["mask"] > 0
    with CostLedger() as led:
        from permdec.network import evaluate_network
        evaluate_network(net, SlotVector.zeros(256))
    expect_mask = sum(2 * N * (lv + 1)
                      for lv in led.cmults_by_level().elements())
    assert rep.breakdown["mask"] == expect_mask


def test_network_level_underflow():
    net = _reduced_net(256, 7)
    with pytest.raises(DepthExhaustedError):
        chain_cost(net, CostParams(level=3))


def _rotation_price(rep):
    return sum(rep.breakdown[k] for k in ("decompose", "multsum", "moddown"))


@pytest.mark.parametrize("variant", ["raw", "reduced", "collapsed"])
@pytest.mark.parametrize("cp", [CostParams(), CostParams(alpha=2, level=14)],
                         ids=["default", "a2-l14"])
def test_network_rotations_priced_as_merged_submodule(variant, cp):
    # the fused-never-costs-more tests check submodule_cost; chain_cost
    # composes the rotation parts itself, so the two must agree: a network
    # rotation at schedule level p is rotation_merged landing on level
    # cp.level - p
    net = build_network(Permutation.random(256, random.Random(11)))
    if variant != "raw":
        net = reduce_masks(net)
    if variant == "collapsed":
        net = collapse_levels(net, 2, 3)
    rep = chain_cost(net, cp)
    assert rep.per_level
    assert _rotation_price(rep) == sum(
        count * submodule_cost("rotation_merged", cp.at(cp.level - p))
        for p, count in rep.per_level.items())


@pytest.mark.parametrize("collapse", [False, True], ids=["full", "collapsed"])
def test_chain_rotations_priced_as_plain_submodules(collapse):
    # a chain factor's rotations at position p run on the level
    # cp.level - p + 1 operand and keep the plain ModDown
    bc = benes_decompose(Permutation.random(256, random.Random(11)))
    if collapse:
        bc = collapse_benes(bc)
    cp = CostParams()
    rep = chain_cost(bc, cp)
    assert rep.depth == bc.depth and sum(rep.per_level.values()) > 0
    assert _rotation_price(rep) == sum(
        count * sum(submodule_cost(kind, cp.at(cp.level - p + 1))
                    for kind in ("decompose", "multsum", "moddown"))
        for p, count in rep.per_level.items())


def test_network_total_matches_reference_mean():
    n = 1 << 10
    totals = [chain_cost(_reduced_net(n, 5000 + i)).total
              for i in range(20)]
    mean = sum(totals) / len(totals)
    assert abs(mean - REFERENCE_TOTALS[n]) <= 0.10 * REFERENCE_TOTALS[n]


# ---------------------------------------------------------------- report

def test_report_serialization():
    rep = chain_cost(_reduced_net(64, 3))
    obj = rep.to_json()
    assert obj["total"] == rep.total == sum(obj["breakdown"].values())
    assert obj["key_set"] == sorted(rep.key_set)
    assert list(obj["per_level"]) == sorted(obj["per_level"], key=int)
    assert json.loads(json.dumps(obj)) == obj


def test_unsupported_source_rejected():
    with pytest.raises(TypeError, match="cannot cost"):
        chain_cost([1, 2, 3])


# ------------------------------------------------ other evaluable sources

def test_padded_chain_priced_by_hand_count():
    # gamma at d = 8, l = 1, d' = 4: one doubling rotation and one fan-out
    # rotation of the fresh operand (level 17), one mask there, then the
    # rescale from 17 down to 16
    gamma, _, _ = decompose_gamma_xi_pad(8, 1, 4)
    cp = CostParams()
    rep = chain_cost(gamma)
    assert rep.per_level == {1: 2}
    assert rep.depth == 1
    assert rep.key_set == set(gamma.r_steps + gamma.l_steps)
    assert len(rep.key_set) == 2
    assert rep.breakdown == {
        "rescale": submodule_cost("rescale", cp.at(16)),
        "decompose": 2 * submodule_cost("decompose", cp),
        "multsum": 2 * submodule_cost("multsum", cp),
        "moddown": 2 * submodule_cost("moddown", cp),
        "mask": submodule_cost("mask", cp),
    }


def _replayed_sources(rng):
    """One source of every kind the cost model prices: the built object of
    every route table family, at a small size."""
    return {name: make(rng).obj for name, make in SMALL_ROUTES.items()}


def test_replay_stays_on_an_empty_support(rng):
    # the replay runs on the zero vector: every op of it keeps the support
    # empty (a mask, dense or by positions, included), and it records the
    # ops of a run on real slots
    for name, source in _replayed_sources(rng).items():
        led, out = replay(source)
        assert type(out.slots) is _Sparse and out.slots.vals == {}, name
        vals = [rng.randint(-9, 9) for _ in range(source.n)]
        with CostLedger() as real:
            source.evaluate(SlotVector.from_list(vals))
        assert led.ops == real.ops and led.ops, name


def test_benchmark_tracer_still_wraps_the_pricer():
    # the benchmark's tracer rebinds costmodel's evaluate_network and
    # expects chain_cost(network) to run rotation_profile; run its own check
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import selftest; selftest.check_wrapping()")
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(bench)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_still_counts_known_failures():
    # the benchmark's failure-counting check needs a route that times out
    # (today the tau search at d = 8); a search change that removes the
    # timeout must fail here, not only in the benchmark's own self-test
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import selftest; selftest.check_known_failures_counted()")
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(bench)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
