"""Structured permutations: builders, partitions, ladders, padded unit chains."""

import random
from collections import Counter

import pytest

from permdec.chain import DecompositionChain
from permdec.costmodel import chain_cost
from permdec.diag import (baby_plan, matvec, perm_to_diag, plan_bsgs,
                          to_permutation)
from permdec.ledger import CostLedger
from permdec.search import SearchParams, search_depth1, validate_ideal_chain
from permdec.slots import SlotVector
from permdec.structured import (LADDERS, Block, HmtSpec, block_local_perm,
                                build_gamma_xi,
                                build_sigma, build_tau, build_ut,
                                decompose_gamma_xi_pad, decompose_sigma,
                                decompose_tau, decompose_ut, partition_rounds,
                                unit_input_slots)
from util import (assert_value_errors, assert_value_errors_without_asserts,
                  col_span, gamma_oracle, row_span, sigma_oracle, tau_oracle,
                  transpose_perm, xi_oracle)


def rand_vals(n, rng, lo=-50, hi=50):
    return [rng.randint(lo, hi) for _ in range(n)]


def right_factor(chain, i):
    """R_i of a ladder chain [L_l, R_l, ..., R_1]."""
    return chain.factors[chain.depth - i]


# -- partitions ---------------------------------------------------------------


def cover(blocks):
    """How many blocks cover each cell."""
    return Counter((r, c) for b in blocks for r in range(*row_span(b))
                   for c in range(*col_span(b)))


def twice_covered(blocks):
    return {cell for cell, count in cover(blocks).items() if count == 2}


def test_partition_pow2_halving():
    parts = partition_rounds(8, 3)
    assert [{b.size for b in blocks} for blocks in parts] == [{4}, {2}, {1}]
    assert all(set(cover(blocks).values()) == {1} for blocks in parts)


def test_partition_odd_example():
    (p1,) = partition_rounds(7, 1)
    assert {b.size for b in p1} == {4, 3}
    assert twice_covered(p1) == {(3, 3)}
    assert sorted(row_span(b) for b in p1) == [(0, 3), (0, 4), (3, 7), (4, 7)]


@pytest.mark.parametrize("d", range(2, 65))
def test_partition_tiling_and_size_gap(d):
    # every cell is covered once, except the corner cell of each odd split
    # so far, which its two large corner blocks share
    rounds = max(1, (d - 1).bit_length())
    corners = set()
    prev = [Block(0, 0, d)]
    for blocks in partition_rounds(d, rounds):
        sizes = {b.size for b in blocks}
        assert len(sizes) <= 2 and max(sizes) - min(sizes) <= 1
        corners |= {(b.r0 + b.size // 2, b.c0 + b.size // 2) for b in prev
                    if b.size % 2 and b.size > 1}
        counts = cover(blocks)
        assert set(counts) == {(r, c) for r in range(d) for c in range(d)}
        assert set(counts.values()) <= {1, 2}
        assert twice_covered(blocks) == corners
        prev = blocks


# -- transpose ----------------------------------------------------------------


def test_build_ut_small_examples():
    assert matvec(build_ut(2), [1, 2, 3, 4]) == [1, 3, 2, 4]
    assert build_ut(4).diag_set() == sorted({(3 * i) % 16 for i in range(-3, 4)})
    assert matvec(build_ut(1), [7]) == [7]
    assert to_permutation(build_ut(3, 16)).n == 16  # no ValueError
    with pytest.raises(ValueError):
        build_ut(5, 16)


# each builder must refuse a matrix dimension below 1, and the grid split a
# grid or a round count below 1, with ValueError, also under python -O (the
# keys cut one message at different points to stay distinct)
BAD_BUILDS = {
    "got d=-2": lambda: build_ut(-2),
    ">= 1, got d=-2": lambda: build_sigma(-2),
    "matrix dimension must be >= 1, got d=-2": lambda: build_tau(-2),
    "got d=0": lambda: build_sigma(0, 16),
    "got d=0, rounds=2": lambda: partition_rounds(0, 2),
    "got d=4, rounds=0": lambda: partition_rounds(4, 0),
}


def test_bad_builds_raise_value_error():
    assert_value_errors(BAD_BUILDS)


def test_bad_builds_raise_without_asserts():
    assert_value_errors_without_asserts("test_structured", "BAD_BUILDS")


def test_build_ut_matches_oracle(rng):
    for d, n in [(3, 9), (5, 30), (8, 64)]:
        vals = rand_vals(n, rng)
        assert matvec(build_ut(d, n), vals) == transpose_perm(d, n).apply(vals)


def test_hmt_spec_validation():
    with pytest.raises(ValueError):
        HmtSpec(4, 16, 0)
    with pytest.raises(ValueError):
        HmtSpec(4, 16, 2)  # floor(log2 3) = 1
    with pytest.raises(ValueError):
        HmtSpec(4, 8, 1)  # does not fit
    # d is taken as given: a d = 7 matrix in 64 slots is not padded to 8
    assert decompose_ut(HmtSpec(7, 64, 2)).product() == build_ut(7, 64)


def test_ladder_table_is_the_public_constructions():
    assert sorted(LADDERS) == ["sigma", "tau", "ut"]
    assert LADDERS["sigma"] == (build_sigma, decompose_sigma)
    assert LADDERS["tau"] == (build_tau, decompose_tau)
    build, decompose = LADDERS["ut"]
    assert build is build_ut
    for d, l, n in ((4, 1, None), (7, 2, 64), (16, 3, None)):
        got = decompose(d, l, n)
        want = decompose_ut(HmtSpec(d, n or d * d, l))
        assert got.n == want.n and got.factors == want.factors
        assert got.product() == build(d, n)


def ladder_chains(d):
    """(family, l, chain) of every LADDERS family at every legal depth."""
    for fam, (_, decompose) in LADDERS.items():
        for l in range(1, (d - 1).bit_length()):
            yield fam, l, decompose(d, l)


def baby_planned(chain):
    """The chain's factors, each under the diagonal method's plan."""
    return DecompositionChain(chain.n, chain.factors,
                              [baby_plan(f.diags, chain.n)
                               for f in chain.factors])


@pytest.mark.parametrize("d", [*range(2, 18), 31, 32, 33, 63, 64])
def test_ladders_planned_no_dearer_than_baby(d):
    # every ladder runs its default (plan_bsgs) plans exactly, and costs
    # no more than its factors under one rotation per off diagonal, at the
    # same depth
    n = d * d
    vals = rand_vals(n, random.Random(d))
    v = SlotVector.from_list(vals)
    for fam, l, chain in ladder_chains(d):
        build = LADDERS[fam][0]
        out = chain.evaluate(v)
        assert out.to_list() == matvec(build(d), vals), (fam, l)
        baby = baby_planned(chain)
        assert out.depth_used == baby.evaluate(v).depth_used == l + 1
        assert chain_cost(chain).total <= chain_cost(baby).total, (fam, l)


def test_ladders_mix_ladders_rotate_348_times():
    # the 36 ladders the benchmark's ladders-mix prices (d = 16, 32, 64,
    # every family and depth): 348 rotations under the default plans, 625
    # under one rotation per off diagonal
    totals = [0, 0]
    chains = 0
    for d in (16, 32, 64):
        for _, _, chain in ladder_chains(d):
            chains += 1
            for i, c in enumerate((chain, baby_planned(chain))):
                totals[i] += sum(chain_cost(c).per_level.values())
    assert chains == 36
    assert totals == [348, 625]


def test_decompose_ut_d4_depth1(rng):
    chain = decompose_ut(HmtSpec(4, 16, 1))
    assert chain.depth == 2
    assert right_factor(chain, 1).signed_diag_set() == [-6, 0, 6]
    assert chain.factors[0].signed_diag_set() == [-3, 0, 3]
    assert chain.product() == build_ut(4, 16)
    oracle = transpose_perm(4, 16)
    for _ in range(100):
        v = SlotVector.from_list(rand_vals(16, rng))
        out = chain.evaluate(v)
        assert out.to_list() == oracle.apply(v.to_list())
        assert out.depth_used == 2


@pytest.mark.parametrize("d", [4, 8, 16])
def test_decompose_ut_pow2_structure(d):
    n = d * d
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_ut(HmtSpec(d, n, l))
        assert chain.depth == l + 1
        for i in range(1, l + 1):
            step = (d - 1) * d // (1 << i)
            assert right_factor(chain, i).signed_diag_set() == [-step, 0, step]
        width = d >> l
        want = sorted({s * (d - 1) for s in range(-width + 1, width)})
        assert chain.factors[0].signed_diag_set() == want
        assert chain.product() == build_ut(d, n)


@pytest.mark.parametrize("d", [3, 5, 6, 7, 9, 12])
def test_decompose_ut_odd_structure(d):
    n = d * d
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_ut(HmtSpec(d, n, l))
        assert chain.product() == build_ut(d, n)
        for i in range(1, l + 1):
            assert len(right_factor(chain, i).diag_set()) <= 5
        width = -(-d // (1 << l))
        assert len(chain.factors[0].diag_set()) <= 2 * width - 1


def test_decompose_ut_zero_pad(rng):
    # a 3x3 matrix takes the uniform splits by passing the padded d = 4
    chain = decompose_ut(HmtSpec(4, 16, 1))
    assert chain.product() == build_ut(4, 16)
    # embed a 3x3 into the padded row stride, transpose, read back
    a = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    padded = [a[r][c] if r < 3 and c < 3 else 0 for r in range(4) for c in range(4)]
    out = chain.evaluate(SlotVector.from_list(padded)).to_list()
    assert [[out[4 * r + c] for c in range(3)] for r in range(3)] == \
        [[a[c][r] for c in range(3)] for r in range(3)]


def test_decompose_ut_budget_formula_d4(rng):
    chain = decompose_ut(HmtSpec(4, 16, 1))
    left = chain.factors[0]
    plan = plan_bsgs([-3, 0, 3], 16)
    right = baby_plan(chain.factors[1].diags, 16)
    chain = DecompositionChain(16, chain.factors, [plan, right])
    with CostLedger() as lg:
        out = chain.evaluate(SlotVector.from_list(rand_vals(16, rng)))
    assert lg.rotation_count == 2 * 1 + len(plan.executed_steps()) == 4
    assert len(lg.of_kind("rescale")) == 2
    assert set(left.diag_set()) <= {(3 * t) % 16 for t in plan.assign}
    assert out.depth_used == 2


@pytest.mark.parametrize("d,l,total", [
    (16, 1, 9), (16, 2, 8),
    (32, 1, 12), (32, 2, 11),
    (64, 1, 18), (64, 2, 14),
])
def test_hmt_rotation_totals(d, l, total, rng):
    n = d * d
    chain = decompose_ut(HmtSpec(d, n, l))
    width = d >> l
    plan = plan_bsgs([(d - 1) * t for t in range(-(width - 1), width)], n)
    rights = [baby_plan(f.diags, n) for f in chain.factors[1:]]
    chain = DecompositionChain(n, chain.factors, [plan] + rights)
    v = SlotVector.from_list(rand_vals(n, rng))
    with CostLedger() as lg:
        out = chain.evaluate(v)
    assert lg.rotation_count == 2 * l + len(plan.executed_steps()) == total
    assert out.to_list() == transpose_perm(d, n).apply(v.to_list())


# -- position theorem ---------------------------------------------------------


def test_position_independence():
    for op in ("transpose", "diag-to-col"):
        ref = None
        for anchor in [(0, 0), (0, 4), (4, 4), (3, 1)]:
            p = block_local_perm(8, 64, [Block(*anchor, 4)], op)
            ks = perm_to_diag(p).signed_diag_set()
            ref = ks if ref is None else ref
            assert ks == ref


# -- diag-to-col --------------------------------------------------------------


def test_build_sigma_examples(rng):
    # diag 0 = (a, d) into column 0, diag 1 = (b, c) into column 1
    assert matvec(build_sigma(2), [1, 2, 3, 4]) == [1, 2, 4, 3]
    assert matvec(build_sigma(1), [5]) == [5]
    assert build_sigma(4).signed_diag_set() == list(range(-3, 4))
    for d in (3, 4, 8):
        vals = rand_vals(d * d + 5, rng)
        assert matvec(build_sigma(d, d * d + 5), vals) == sigma_oracle(d, vals)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_decompose_sigma_pow2(d, rng):
    n = d * d
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_sigma(d, l)
        assert chain.product() == build_sigma(d)
        for i in range(1, l + 1):
            step = d >> i
            assert right_factor(chain, i).signed_diag_set() == [-step, 0, step]
        width = d >> l
        assert chain.factors[0].signed_diag_set() == list(range(-width + 1, width))
        assert len(chain.factors[0].diag_set()) == d // (1 << (l - 1)) - 1
    vals = rand_vals(n, rng)
    out = decompose_sigma(d, 1).evaluate(SlotVector.from_list(vals))
    assert out.to_list() == sigma_oracle(d, vals)


@pytest.mark.parametrize("d", [3, 5, 7, 9, 15, 33])
def test_decompose_sigma_odd(d):
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_sigma(d, l)
        assert chain.product() == build_sigma(d)
        for i in range(1, l + 1):
            assert len(right_factor(chain, i).diag_set()) <= 5


def test_sigma_depth_range():
    with pytest.raises(ValueError):
        decompose_sigma(16, 4)
    with pytest.raises(ValueError):
        decompose_sigma(4, 0)


def test_sigma_matches_ideal_search():
    # the depth-1 search on diag-to-col routes through {0, +-d/2}
    d = 8
    params = SearchParams(d * d, 1, d - 1)
    found = search_depth1(build_sigma(d), params)
    assert found is not None
    ul, ur = found
    assert set(ur.signed_diag_set()) <= {0, 4, -4}
    chain = DecompositionChain(d * d, [ul, ur])
    assert validate_ideal_chain(build_sigma(d), chain, params).ok
    assert chain.product() == build_sigma(d)


# -- diag-to-row --------------------------------------------------------------


def test_build_tau_examples(rng):
    assert matvec(build_tau(2), [1, 2, 3, 4]) == [1, 4, 3, 2]
    assert build_tau(4).diag_set() == [0, 4, 8, 12]
    for d in (3, 4, 8):
        vals = rand_vals(d * d + 3, rng)
        assert matvec(build_tau(d, d * d + 3), vals) == tau_oracle(d, vals)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_decompose_tau_pow2(d, rng):
    n = d * d
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_tau(d, l)
        assert chain.product() == build_tau(d)
        for i in range(1, l + 1):
            assert right_factor(chain, i).diag_set() == [0, (d >> i) * d]
        width = d >> l
        assert chain.factors[0].diag_set() == [j * d for j in range(width)]
    vals = rand_vals(n, rng)
    out = decompose_tau(d, 2 if d > 4 else 1).evaluate(SlotVector.from_list(vals))
    assert out.to_list() == tau_oracle(d, vals)


def test_decompose_tau_d4_right_factor():
    chain = decompose_tau(4, 1)
    assert right_factor(chain, 1).diag_set() == [0, 8]


@pytest.mark.parametrize("d", [3, 5, 7, 9, 15])
def test_decompose_tau_odd(d):
    for l in range(1, (d - 1).bit_length()):
        chain = decompose_tau(d, l)
        assert chain.product() == build_tau(d)
        for i in range(1, l + 1):
            ks = right_factor(chain, i).diag_set()
            assert len(ks) <= 3
            assert all(k % d == 0 for k in ks)
        assert all(k % d == 0 for k in chain.factors[0].diag_set())


# -- unit transposes ----------------------------------------------------------


def test_build_gamma_xi_d2():
    gamma, xi = build_gamma_xi(2)
    assert gamma.n == 8 and xi.n == 8
    assert gamma.signed_diag_set() == [-3, 0]
    assert xi.signed_diag_set() == [-2, 0]
    with pytest.raises(ValueError, match="must appear once"):
        to_permutation(gamma)  # partial: only the top unit-row has entries


@pytest.mark.parametrize("d,dp", [(2, 2), (3, 3), (4, 4), (4, 2), (6, 2), (8, 4)])
def test_build_gamma_xi_oracle(d, dp, rng):
    n = d * d * dp
    gamma, xi = build_gamma_xi(d, dp)
    vals = rand_vals(n, rng)
    assert matvec(gamma, vals) == gamma_oracle(d, dp, vals)
    assert matvec(xi, vals) == xi_oracle(d, dp, vals)
    steps = {(-(d * dp - 1) * j) % n for j in range(dp)}
    assert set(gamma.diag_set()) == steps
    assert set(xi.diag_set()) == {(-d * (dp - 1) * j) % n for j in range(dp)}


@pytest.mark.parametrize("d,dp,l", [
    (2, 2, 1), (4, 4, 1), (4, 4, 2), (4, 2, 1), (8, 8, 2), (8, 8, 3), (8, 4, 2),
])
def test_gamma_xi_pad_region(d, dp, l, rng):
    n = d * d * dp
    gamma, xi = build_gamma_xi(d, dp)
    cg, cx, (mg, mx) = decompose_gamma_xi_pad(d, l, dp)
    assert cg.mask == mg and cx.mask == mx
    support = set(unit_input_slots(d, dp))
    vals = [rng.randint(-30, 30) if s in support else 0 for s in range(n)]
    v = SlotVector.from_list(vals)
    for chain, ref in ((cg, gamma), (cx, xi)):
        with CostLedger() as lg:
            out = chain.evaluate(v)
        # masked padded output reproduces the partial map everywhere
        assert out.to_list() == matvec(ref, vals)
        assert out.depth_used == 1
        assert lg.rotation_count == len(chain.r_steps) + len(chain.l_steps) \
            == l + (dp >> l) - 1
        assert len(lg.of_kind("rescale")) == 1 and lg.cmult_count == 1


def test_gamma_xi_pad_full_depth():
    cg, cx, _ = decompose_gamma_xi_pad(4, 2)
    assert cg.l_steps == [] and cx.l_steps == []
    assert len(cg.r_steps) == 2
    cg1, _, _ = decompose_gamma_xi_pad(4, 1)
    # one doubling step, one fan-out step
    assert (len(cg1.r_steps), len(cg1.l_steps)) == (1, 1)


def test_gamma_xi_pad_validation():
    with pytest.raises(ValueError):
        decompose_gamma_xi_pad(4, 0)
    with pytest.raises(ValueError):
        decompose_gamma_xi_pad(4, 3)
    with pytest.raises(ValueError):
        decompose_gamma_xi_pad(6, 1, 3)  # grid not a power of two
    with pytest.raises(ValueError):
        build_gamma_xi(6, 4)  # grid does not divide d
