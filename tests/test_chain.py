from permdec.chain import DecompositionChain
from permdec.diag import (DiagMatrix, baby_plan, hlt_masks, perm_to_diag,
                          plan_bsgs, to_permutation)
from permdec.ledger import CostLedger
from permdec.slots import Permutation, PositionMask, SlotVector

from util import (assert_value_errors, assert_value_errors_without_asserts,
                  random_perm_with_diags)


def random_chain(n, rng, nfactors=3):
    factors = []
    for _ in range(nfactors):
        allowed = {0, 1, n - 1, 2, n - 2}
        factors.append(perm_to_diag(random_perm_with_diags(n, allowed, rng)))
    return DecompositionChain(n, factors)


def test_product_matches_permutation_composition(rng):
    n = 16
    chain = random_chain(n, rng)
    perm = Permutation.identity(n)
    # factors are in product order: the last one is applied first
    for f in reversed(chain.factors):
        perm = to_permutation(f).compose(perm)
    assert to_permutation(chain.product()).targets == perm.targets


def test_evaluate_matches_product(rng):
    n = 16
    chain = random_chain(n, rng)
    v = SlotVector.from_list([rng.randrange(-9, 10) for _ in range(n)])
    out = chain.evaluate(v)
    want = to_permutation(chain.product()).apply(v.to_list())
    assert out.to_list() == want
    assert out.depth_used == chain.depth


def test_evaluate_with_bsgs_plans(rng):
    n = 32
    chain = random_chain(n, rng, nfactors=2)
    plans = [plan_bsgs(sorted(f.signed_diag_set()), n) for f in chain.factors]
    planned = DecompositionChain(n, chain.factors, plans)
    v = SlotVector.from_list([rng.randrange(-9, 10) for _ in range(n)])
    with CostLedger() as led:
        out = planned.evaluate(v)
    want = to_permutation(chain.product()).apply(v.to_list())
    assert out.to_list() == want
    assert len(led.of_kind("rescale")) == chain.depth
    budget = sum(len(p.executed_steps()) for p in plans)
    assert led.rotation_count <= budget


def test_factor_without_diagonals_plans_and_runs():
    # the default planner plans a factor with no diagonals: no rotation, no
    # mask, zeros out and one rescale
    n = 8
    chain = DecompositionChain(n, [DiagMatrix(n)])
    v = SlotVector.from_list(list(range(1, n + 1)))
    with CostLedger() as led:
        out = chain.evaluate(v)
    assert out.to_list() == [0] * n
    assert [op.kind for op in led.ops] == ["rescale"]
    assert out.depth_used == 1


def test_default_plans_are_plan_factor_plans(rng):
    chain = random_chain(32, rng)
    assert chain.plans == [plan_bsgs(f.signed_diag_set(), 32)
                           for f in chain.factors]


def test_masks_are_made_once_as_position_masks(rng):
    # each factor's masks are made with the chain: one PositionMask per
    # diagonal, the diagonal's ones rotated right by its giant step, with
    # the positions of every factor drawn from one shared set of ints
    n = 1024  # positions above 256 are not cached small ints
    factors = []
    for step in (1, 4, 32):  # random swaps of slots step apart
        targets = list(range(n))
        for i in range(n):
            if i % (2 * step) < step and rng.random() < 0.5:
                targets[i], targets[i + step] = i + step, i
        factors.append(perm_to_diag(Permutation(targets)))
    chain = DecompositionChain(n, factors)
    slot_ids = {}
    for f, plan, masks in zip(chain.factors, chain.plans, chain.masks):
        assert masks.keys() == f.diags.keys()
        ref = hlt_masks(f, plan)
        for k, mask in masks.items():
            assert type(mask) is PositionMask
            assert sorted(mask.positions) == sorted(ref[k].positions)
            for p in mask.positions:
                assert slot_ids.setdefault(p, id(p)) == id(p)
    v = SlotVector.from_list([rng.randrange(-9, 10) for _ in range(n)])
    with CostLedger() as led:
        out = chain.evaluate(v)
    assert out.to_list() == to_permutation(chain.product()).apply(v.to_list())
    assert led.cmult_count == sum(chain.diag_counts())


def test_depth_counts_factors(rng):
    chain = random_chain(8, rng, nfactors=4)
    assert chain.depth == 4


# ------------------------------------------------------------- typed errors

# each builds a bad chain or call and must raise ValueError matching the text
BAD_CHAINS = {
    "plans for": lambda: DecompositionChain(8, [DiagMatrix.identity(8)],
                                            [baby_plan([0], 8)] * 2),
    "factor 1 has n=4": lambda: DecompositionChain(
        8, [DiagMatrix.identity(8), DiagMatrix.identity(4)]),
    "mask sets for": lambda: DecompositionChain(
        8, [DiagMatrix.identity(8)], masks=[{}, {}]),
    "slot length mismatch": lambda: DecompositionChain(
        8, [DiagMatrix.identity(8)]).evaluate(SlotVector.zeros(4)),
}


def test_bad_chains_raise_value_error():
    assert_value_errors(BAD_CHAINS)


def test_bad_chains_raise_without_asserts():
    # the checks must not vanish under python -O
    assert_value_errors_without_asserts("test_chain", "BAD_CHAINS")
