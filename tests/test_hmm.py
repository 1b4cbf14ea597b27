"""Batched matrix products: packing, unit replication, exact pipeline output,
and rotation accounting for both replication schemes."""

import random
from fractions import Fraction

import pytest

from permdec.hmm import (HmmConfig, UnitLayout, _doubling_spread, _slab_mask,
                         hmm_evaluate, hmm_multiply, hmm_rotation_budget,
                         pack_matrices, reference_products,
                         srep_replicate)
from permdec.ledger import CostLedger
from permdec.slots import SlotVector
from util import dense_slab_mask, mat_mul, rand_mat, zero_region_ok


def log2(x):
    return x.bit_length() - 1


def divisors_pow2(d):
    return [1 << i for i in range(log2(d) + 1)]


# -- config and packing -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        HmmConfig(6, 2)
    with pytest.raises(ValueError):
        HmmConfig(4, 3)
    with pytest.raises(ValueError):
        HmmConfig(8, 16)
    with pytest.raises(ValueError):
        HmmConfig(4, 2, m=0)
    with pytest.raises(ValueError):
        HmmConfig(8, 2, replication=(2, 2))
    with pytest.raises(ValueError):
        HmmConfig(8, 2, replication=(6,))  # non-pow2 disguised as a factor
    cfg = HmmConfig(4, 2, m=2)
    assert cfg.group_span == 32 and cfg.vector_size == 64 and cfg.groups == 2


def test_packing_layout(rng):
    cfg = HmmConfig(4, 2, m=2)
    mats = [rand_mat(4, rng) for _ in range(2)]
    pk = pack_matrices(mats, cfg)
    assert zero_region_ok(pk, cfg)
    for g in range(2):
        for t in range(4):
            for j in range(4):
                assert pk.slots[g * 32 + 4 * t + j] == mats[g][t][j]
    with pytest.raises(ValueError):
        pack_matrices(mats[:1], cfg)
    with pytest.raises(ValueError):
        pack_matrices([[[1, 2]] * 4, mats[1]], cfg)


def test_reorder_maps_hit_designated_slots(rng):
    # After the doubling ladders, group k's column slice of A sits comb-wise
    # at column k*d' and its row slice of B leads each segment at row k*d'.
    for d, dp, m in [(2, 2, 1), (4, 2, 1), (4, 4, 2), (8, 2, 1), (8, 4, 1)]:
        cfg = HmmConfig(d, dp, m)
        amats = [rand_mat(d, rng) for _ in range(m)]
        bmats = [rand_mat(d, rng) for _ in range(m)]
        va = _doubling_spread(pack_matrices(amats, cfg), d * d - 1, dp, "t")
        vb = _doubling_spread(pack_matrices(bmats, cfg), d * (d - 1), dp, "t")
        for g in range(m):
            base = g * cfg.group_span
            for k in range(d // dp):
                for j in range(dp):
                    for t in range(d):
                        assert (va.slots[base + (j * d + t) * d + k * dp]
                                == amats[g][t][k * dp + j])
                        assert (vb.slots[base + j * d * d + k * d * dp + t]
                                == bmats[g][k * dp + j][t])


# -- single-unit replication --------------------------------------------------


def test_srep_basic_fill():
    v = SlotVector.from_list([7, 0, 0, 0])
    lay = UnitLayout(4, 1)
    with CostLedger() as lg:
        out = srep_replicate(v, 0, lay)
    assert out.slots == (7, 7, 7, 7)
    assert lg.rotation_count == 2 and lg.cmult_count == 1


def test_srep_anchored_no_cross_span_leak():
    # two spans with different payloads: unit 2's doubling must stay home
    v = SlotVector.from_list([1, 2, 5, 3, 4, 6, 9, 8])
    lay = UnitLayout(4, 1)
    out = srep_replicate(v, 2, lay)
    assert out.slots == (5, 5, 5, 5, 9, 9, 9, 9)


def test_srep_step_layout():
    v = SlotVector.from_list([1, 2, 5, 6, 3, 4, 7, 8])
    lay = UnitLayout(2, 2)
    out = srep_replicate(v, 1, lay)
    assert out.slots == (5, 6, 5, 6, 7, 8, 7, 8)


def test_srep_all_units_cost(rng):
    d = 8
    v = SlotVector.from_list([rng.randint(-9, 9) for _ in range(d)])
    lay = UnitLayout(d, 1)
    with CostLedger() as lg:
        outs = [srep_replicate(v, k, lay) for k in range(d)]
    assert lg.rotation_count == d * log2(d)
    for k, out in enumerate(outs):
        assert out.slots == (v.slots[k],) * d


def test_srep_rejects_bad_args():
    v = SlotVector.from_list([0] * 8)
    with pytest.raises(ValueError):
        srep_replicate(v, 4, UnitLayout(4, 1))
    with pytest.raises(ValueError):
        srep_replicate(v, 0, UnitLayout(4, 3))


# -- the worked product -------------------------------------------------------


def test_worked_example_2x2():
    cfg = HmmConfig(2, 2)
    with CostLedger() as lg:
        out = hmm_multiply([[[1, 2], [3, 4]]], [[[5, 6], [7, 8]]], cfg)
    assert out == [[[19, 22], [43, 50]]]
    assert lg.rotation_count == 5 == hmm_rotation_budget(cfg).total
    assert dict(lg.rotations_by_tag()) == {"hmm.a.reorder": 1, "hmm.b.reorder": 1,
                                           "hmm.a.rep": 1, "hmm.b.rep": 1,
                                           "hmm.fold": 1}
    assert len(lg.of_kind("mult")) == 1 and lg.cmult_count == 2
    assert len(lg.of_kind("rescale")) == 3


def test_identity_returns_other_operand(rng):
    for d, dp in [(4, 1), (4, 2), (4, 4), (8, 2)]:
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        b = rand_mat(d, rng)
        assert hmm_multiply([eye], [b], HmmConfig(d, dp)) == [b]


def test_depth_is_two():
    cfg = HmmConfig(4, 2, m=2)
    rng = random.Random(11)
    pa = pack_matrices([rand_mat(4, rng) for _ in range(2)], cfg)
    pb = pack_matrices([rand_mat(4, rng) for _ in range(2)], cfg)
    assert hmm_evaluate(pa, pb, cfg).depth_used == 2


def sweep_configs():
    out = []
    for m in (1, 2, 4):
        for d in (2, 4, 8, 16):
            for dp in divisors_pow2(d):
                out.append((d, dp, m))
    out += [(4, 2, 3), (8, 4, 3), (4, 4, 3), (8, 1, 3), (16, 4, 3),
            (2, 1, 5), (4, 1, 5), (8, 8, 5)]
    assert len(out) == 50
    return out


@pytest.mark.parametrize("d,dp,m", sweep_configs())
def test_random_products_exact_and_on_budget(d, dp, m):
    rng = random.Random(10_000 * d + 100 * dp + m)
    cfg = HmmConfig(d, dp, m)
    amats = [rand_mat(d, rng) for _ in range(m)]
    bmats = [rand_mat(d, rng) for _ in range(m)]
    with CostLedger() as lg:
        got = hmm_multiply(amats, bmats, cfg)
    assert got == [mat_mul(a, b) for a, b in zip(amats, bmats)]
    budget = hmm_rotation_budget(cfg)
    assert lg.rotation_count == budget.total
    assert len(lg.of_kind("mult")) == d // dp
    assert lg.cmult_count == 2 * (d // dp)
    assert len(lg.of_kind("rescale")) == 2 * (d // dp) + 1


@pytest.mark.parametrize("m", [1, 2])
def test_reference_products_is_the_schoolbook_product(rng, m):
    # the oracle the command line and the verify suite hold hmm_multiply to
    for d in (1, 2, 4, 8):
        amats = [rand_mat(d, rng) for _ in range(m)]
        bmats = [rand_mat(d, rng) for _ in range(m)]
        assert reference_products(amats, bmats) == \
            [mat_mul(a, b) for a, b in zip(amats, bmats)]


def test_32x32_full_redundancy_rotations(rng):
    cfg = HmmConfig(32, 32)
    a, b = rand_mat(32, rng, -3, 3), rand_mat(32, rng, -3, 3)
    with CostLedger() as lg:
        got = hmm_multiply([a], [b], cfg)
    assert got == [mat_mul(a, b)]
    assert lg.rotation_count == 25 == hmm_rotation_budget(cfg).total


# -- budget closed forms ------------------------------------------------------


def test_budget_full_redundancy_is_5_log_d():
    for d in (4, 8, 16, 32, 64):
        assert hmm_rotation_budget(HmmConfig(d, d)).total == 5 * log2(d)


def test_budget_parts_and_amortized():
    b = hmm_rotation_budget(HmmConfig(16, 4, m=4))
    assert b.parts == {"reorder": 4, "replicate": 2 * 4 * 4, "fold": 2}
    assert b.total == 38 and b.amortized == Fraction(38, 4)


def test_budget_layered_no_pre_rotation_floor():
    # with a bottom factor of 1 the whole work is the top layer's anchored
    # windows: shifts -(d-1)..(d-1) of the one parent, per side
    for d in (4, 8, 16):
        cfg = HmmConfig(d, 1, replication=(d, 1))
        zero = [[[0] * d for _ in range(d)]]
        with CostLedger() as lg:
            hmm_multiply(zero, zero, cfg)
        assert hmm_rotation_budget(cfg).total == 4 * (d - 1) == lg.rotation_count


# -- layered replication inside the pipeline ----------------------------------


def layered_rotation_oracle(d, dp, factors):
    """Count the anchored-window rotations the pipeline needs, straight from
    the window definitions: distinct (parent, shift) pairs per layer, plus
    log f0 doubling steps per extracted group, per side, plus the reorder
    ladders and the fold."""
    elems = [k * dp for k in range(d // dp)]
    uppers, base = list(factors[:-1]), factors[-1]
    per_side = 0
    size = d
    for f in uppers:
        sub = size // f
        needed = sorted({e // sub for e in elems})
        per_side += len({(gp // f, c) for gp in needed
                         for c in range(-(gp % f), f - (gp % f)) if c})
        size = sub
    per_side += len(elems) * log2(base)
    return 2 * per_side + 3 * log2(dp)


# (d, d', factors) -> instrumented rotations, budget closed form: the budget
# counts the anchored windows the pipeline runs, so the two agree.
LAYERED_CASES = [
    (4, 2, (2, 2), 11, 11),
    (8, 2, (4, 2), 23, 23),
    (8, 4, (4, 2), 20, 20),
    (16, 4, (4, 4), 34, 34),
    (16, 16, (4, 4), 22, 22),
    (16, 1, (8, 2), 60, 60),
    (16, 2, (4, 2, 2), 47, 47),
]


@pytest.mark.parametrize("d,dp,factors,frozen,closed", LAYERED_CASES)
def test_layered_pipeline_counts_and_products(d, dp, factors, frozen, closed):
    rng = random.Random(d * 1000 + dp)
    cfg = HmmConfig(d, dp, replication=factors)
    a, b = rand_mat(d, rng), rand_mat(d, rng)
    with CostLedger() as lg:
        got = hmm_multiply([a], [b], cfg)
    assert got == [mat_mul(a, b)]
    assert lg.rotation_count == frozen
    assert lg.rotation_count == layered_rotation_oracle(d, dp, factors)
    assert hmm_rotation_budget(cfg).total == closed


def layered_configs(d_max):
    """Every (d, d', factors) with d <= d_max and at least two factors >= 2."""
    def splits(k):  # ordered compositions of k
        if k == 0:
            yield ()
        for a in range(1, k + 1):
            for rest in splits(k - a):
                yield (a,) + rest

    d = 2
    while d <= d_max:
        for dp in divisors_pow2(d):
            for parts in splits(log2(d)):
                if len(parts) >= 2:
                    yield d, dp, tuple(1 << x for x in parts)
        d *= 2


def test_layered_budget_parts_nonnegative_and_within_d():
    # the budget is exact: it equals the executed count, not just within d
    cases = list(layered_configs(16))
    assert len(cases) == 50
    for d, dp, factors in cases:
        cfg = HmmConfig(d, dp, replication=factors)
        zero = [[[0] * d for _ in range(d)]]
        with CostLedger() as lg:
            hmm_multiply(zero, zero, cfg)
        budget = hmm_rotation_budget(cfg)
        assert min(budget.parts.values()) >= 0, (d, dp, factors)
        assert lg.rotation_count == budget.total, (d, dp, factors)


def test_layered_budget_is_the_window_count():
    cases = list(layered_configs(64))
    assert len(cases) == 357
    for d, dp, factors in cases:
        cfg = HmmConfig(d, dp, replication=factors)
        assert (hmm_rotation_budget(cfg).total
                == layered_rotation_oracle(d, dp, factors)), (d, dp, factors)


def slab_mask_args(d, dp, factors):
    """(n, step, modulus, lo, width) of every mask a one-pair product with
    this replication can ask for, on both sides."""
    n = d * d * dp
    for step in (1, d):
        size = d
        for f in factors[:-1]:
            sub = size // f
            for lo in range(0, size, sub):
                yield n, step, size, lo, sub
            size = sub
        for lo in range(size):
            yield n, step, size, lo, 1


def test_slab_masks_are_the_dense_indicators():
    args = {a for case in layered_configs(16) for a in slab_mask_args(*case)}
    for n, step, modulus, lo, width in args:
        mask = _slab_mask(n, step, modulus, lo, width)
        dense = dense_slab_mask(n, step, modulus, lo, width)
        assert len(mask) == n
        assert list(mask.positions) == [p for p, x in enumerate(dense) if x]


def test_layered_pipeline_depth():
    rng = random.Random(3)
    a, b = rand_mat(8, rng), rand_mat(8, rng)
    cfg1 = HmmConfig(8, 2, replication=(4, 2))
    pa, pb = pack_matrices([a], cfg1), pack_matrices([b], cfg1)
    assert hmm_evaluate(pa, pb, cfg1).depth_used == 2
    cfg2 = HmmConfig(8, 2, replication=(2, 2, 2))
    pa, pb = pack_matrices([a], cfg2), pack_matrices([b], cfg2)
    assert hmm_evaluate(pa, pb, cfg2).depth_used == 3


@pytest.mark.parametrize("dp", [16, 4])
def test_replication_depths_at_d16(dp):
    # the final unit mask shares the product's rescale, so layered
    # replication with one upper factor consumes no more than naive
    rng = random.Random(17)
    a, b = rand_mat(16, rng), rand_mat(16, rng)
    for replication, depth in ((None, 2), ((4, 4), 2), ((2, 2, 4), 3)):
        cfg = HmmConfig(16, dp, replication=replication)
        pa, pb = pack_matrices([a], cfg), pack_matrices([b], cfg)
        assert hmm_evaluate(pa, pb, cfg).depth_used == depth, replication


def test_layered_pipeline_batched(rng):
    # anchored windows keep every copy inside its own span, so batching m > 1
    # changes neither the results nor the shared rotation count
    cfg = HmmConfig(8, 2, m=2, replication=(4, 2))
    amats = [rand_mat(8, rng) for _ in range(2)]
    bmats = [rand_mat(8, rng) for _ in range(2)]
    with CostLedger() as lg:
        got = hmm_multiply(amats, bmats, cfg)
    assert got == [mat_mul(a, b) for a, b in zip(amats, bmats)]
    assert lg.rotation_count == 23
