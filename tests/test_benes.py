"""Switching-network baseline: routing, stage constraints, collapse, keys."""

import itertools
import random
import statistics

import pytest

from permdec import benes
from permdec import chain as chain_module
from permdec import diag
from permdec.benes import (BenesChain, benes_decompose, collapse_benes,
                           fewest_rotations, restrict_keys)
from permdec.chain import DecompositionChain
from permdec.costmodel import chain_cost
from permdec.diag import perm_to_diag, plan_bsgs, signed_rep, to_permutation
from permdec.ledger import CostLedger
from permdec.network import build_network
from permdec.slots import Permutation, PositionMask, SlotVector
from util import (benes_key_set, benes_rotation_counts, benes_total_rotations,
                  reference_collapse, reference_plan_for, zero_ledger)


def log2(x: int) -> int:
    return x.bit_length() - 1


def rand_perm(n, seed):
    return Permutation.random(n, random.Random(seed))


def rand_vec(n, rng):
    return [rng.randrange(-999, 1000) for _ in range(n)]


def stage_bound(n, group):
    """Signed diagonals a factor merging pre-collapse stages group[0] ..
    group[1] - 1 may occupy: the sum set of {0, +-2^(m-r-1)} over those
    stages, where stage i belongs to round r = min(i, 2m - 2 - i)."""
    m = log2(n)
    acc = {0}
    for i in range(*group):
        step = 1 << (m - min(i, 2 * m - 2 - i) - 1)
        acc = {(x + y) % n for x in acc for y in (0, step, -step)}
    return {x if x <= n - x else x - n for x in acc}


# ------------------------------------------------------------ decomposition


def test_identity_gives_identity_factors():
    routing = benes_decompose(Permutation.identity(16))
    assert routing.depth == 2 * 4 - 1
    assert set(routing.stages) == {tuple(range(16))}
    ch = routing.chain()
    assert all(set(f.diag_set()) <= {0} for f in ch.factors)
    assert ch.product() == perm_to_diag(Permutation.identity(16))


def test_rotation_by_one():
    p = Permutation.rotation(8, 1)
    ch = benes_decompose(p).chain()
    assert ch.product() == perm_to_diag(p)
    for f, group in zip(ch.factors, ch.groups):
        assert set(f.signed_diag_set()) <= stage_bound(8, group)
    out = ch.evaluate(SlotVector.from_list(range(8)))
    assert out.to_list() == [1, 2, 3, 4, 5, 6, 7, 0]


def test_depth_is_two_log_minus_one():
    for n in (4, 16, 256):
        ch = benes_decompose(rand_perm(n, 1))
        assert ch.depth == 2 * log2(n) - 1


def stage_diagonals(n, targets):
    """Signed diagonals of the factor moving entry j to targets[j]."""
    return {signed_rep(j - t, n) for j, t in enumerate(targets)}


def test_stage_diagonal_constraints():
    # read off the routing's stage targets; test_stages_are_the_factor_targets
    # ties them to the factors built from them
    for seed in range(5):
        for n in (32, 128):
            routing = benes_decompose(rand_perm(n, 10 + seed))
            m = log2(n)
            for i, (t, group) in enumerate(zip(routing.stages,
                                               routing.groups)):
                rnd = min(i, 2 * m - 2 - i)
                stride = 1 << (m - rnd - 1)
                assert group == (i, i + 1)
                bound = stage_bound(n, group)
                assert bound <= {0, stride, -stride}
                assert stage_diagonals(n, t) <= bound


def test_product_matches_matrix():
    for seed in range(5):
        p = rand_perm(256, 20 + seed)
        routing = benes_decompose(p)
        assert routing.chain().product() == perm_to_diag(p)
        # the stages compose to p, the first stage applied last
        q = Permutation.identity(256)
        for t in routing.stages:
            q = q.compose(Permutation(t))
        assert q == p


def test_rejects_non_power_of_two():
    # n = 0 passes the n & (n - 1) test, so it is refused on its own
    for p in (Permutation.identity(12), Permutation([])):
        with pytest.raises(ValueError, match="power of two"):
            benes_decompose(p)


def test_evaluate_oracle():
    cases = [(16, 20), (64, 15), (256, 15)]
    for n, count in cases:
        for seed in range(count):
            rng = random.Random(100 * n + seed)
            p = Permutation.random(n, rng)
            vals = rand_vec(n, rng)
            out = benes_decompose(p).chain().evaluate(
                SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)
            assert out.depth_used == 2 * log2(n) - 1


def test_evaluation_count_matches_report():
    # the full chain, and a key-restricted chain, whose window rotations
    # follow the key paths
    p = rand_perm(64, 77)
    ch = benes_decompose(p).chain()
    rng = random.Random(77)
    with CostLedger() as led:
        ch.evaluate(SlotVector.from_list(rand_vec(64, rng)))
    assert led.rotation_count == benes_total_rotations(ch)
    by_tag = led.rotations_by_tag()
    for i, c in enumerate(benes_rotation_counts(ch)):
        assert by_tag.get(f"benes.f{i}", 0) == c

    q = rand_perm(256, 256)
    rc = restrict_keys(collapse_benes(benes_decompose(q)))
    vals = rand_vec(256, rng)
    with CostLedger() as led:
        out = rc.evaluate(SlotVector.from_list(vals))
    assert out.to_list() == q.apply(vals)
    by_tag = led.rotations_by_tag()
    assert [by_tag.get(f"benes.f{i}", 0) for i in range(rc.depth)] \
        == benes_rotation_counts(rc)
    assert led.rotation_count == benes_total_rotations(rc)
    assert led.key_set() == benes_key_set(rc)


def test_benes_chains_are_decomposition_chains():
    routing = benes_decompose(rand_perm(64, 78))
    col = collapse_benes(routing)
    for c in (routing.chain(), col, restrict_keys(col)):
        assert isinstance(c, DecompositionChain)
    # depth, product and evaluation come from DecompositionChain alone
    shared = {"depth", "product", "diag_counts", "evaluate"}
    assert not shared & set(vars(BenesChain))


def test_dimension_mismatch_rejected():
    ch = benes_decompose(Permutation.identity(8)).chain()
    with pytest.raises(ValueError, match="length"):
        ch.evaluate(SlotVector.from_list(range(16)))


# ---------------------------------------------------------------- collapse


def test_collapse_to_full_depth_is_noop():
    # a target at or above the stage count merges nothing: the chain is the
    # routing's full-depth chain
    routing = benes_decompose(rand_perm(32, 5))
    full = routing.chain()
    for target in (routing.depth, routing.depth + 3):
        col = collapse_benes(routing, target)
        assert same_chain(col, full) and col.factors == full.factors


def test_collapse_validates_depth():
    ch = benes_decompose(rand_perm(32, 5))
    with pytest.raises(ValueError, match="depth"):
        collapse_benes(ch, 0)


def test_collapse_default_depth_and_product():
    for seed in range(3):
        p = rand_perm(256, 30 + seed)
        col = collapse_benes(benes_decompose(p))
        assert col.depth == log2(256) - 1
        assert col.product() == perm_to_diag(p)
        for f, group in zip(col.factors, col.groups):
            assert set(f.signed_diag_set()) <= stage_bound(256, group)


@pytest.mark.parametrize("n", [1, 2, 4, 64, 1024])
def test_stages_are_the_factor_targets(n):
    # the collapse reads stages in place of the factors' diagonals, so every
    # kind of chain must keep them equal to what its factors move
    routing = benes_decompose(rand_perm(n, 50 + n))
    ch = routing.chain()
    assert ch.stages == list(routing.stages) and ch.groups == routing.groups
    col = collapse_benes(routing)
    for chain in (ch, col, restrict_keys(col), restrict_keys(ch, 3)):
        assert len(chain.stages) == chain.depth
        for t, f in zip(chain.stages, chain.factors):
            assert type(t) is tuple and t == to_permutation(f).targets


def test_collapse_groups_partition_stages():
    ch = benes_decompose(rand_perm(256, 40))
    col = collapse_benes(ch, 7)
    assert col.groups[0][0] == 0 and col.groups[-1][1] == ch.depth
    for (a, b), (c, d) in zip(col.groups, col.groups[1:]):
        assert b == c and a < b


def test_collapsed_evaluation_oracle():
    for n, count in ((64, 5), (256, 5), (1024, 4)):
        for seed in range(count):
            rng = random.Random(200 * n + seed)
            p = Permutation.random(n, rng)
            vals = rand_vec(n, rng)
            col = collapse_benes(benes_decompose(p))
            out = col.evaluate(SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)
            assert out.depth_used == log2(n) - 1


def test_collapse_to_single_factor():
    p = rand_perm(64, 55)
    col = collapse_benes(benes_decompose(p), 1)
    assert col.depth == 1
    assert col.factors[0] == perm_to_diag(p)


def test_collapse_reaches_every_target_depth():
    # every span of up to nf - T + 1 factors is a candidate, so the split
    # into T spans always exists: T - 1 single factors and one long span
    for m in range(3, 7):
        p = rand_perm(1 << m, 70 + m)
        ch = benes_decompose(p)
        for target in range(1, ch.depth):
            col = collapse_benes(ch, target)
            assert col.depth == target, (m, target)
            assert col.product() == perm_to_diag(p), (m, target)


def test_collapsed_diag_count_band():
    # reference average is about 6 to 7 nonzero diagonals per factor
    for n, count in ((256, 5), (1024, 4)):
        for seed in range(count):
            col = collapse_benes(benes_decompose(rand_perm(n, 60 + seed)))
            avg = statistics.mean(col.diag_counts())
            assert 3 <= avg <= 10


def test_factor_plans_match_per_n1_reference():
    # seeded offset sets on both sides of the dmax <= 64 shortcut, strided
    # and not: the count-only n1 sweep must plan what one full plan per
    # candidate n1 planned
    rng = random.Random(77)
    for _ in range(300):
        n = 1 << rng.randint(4, 12)
        stride = rng.choice([1, 1, 2, 4])
        spread = rng.randint(1, n // (2 * stride))
        ts = rng.sample(range(-spread, spread + 1),
                        rng.randint(1, min(2 * spread + 1, 200)))
        offs = sorted({stride * t for t in ts})
        assert plan_bsgs(offs, n) == reference_plan_for(offs, n), offs


def recorded_collapse(monkeypatch, routing):
    """collapse_benes(routing) with every plan_bsgs call recorded as
    (offsets, plan) at both of its bindings: benes', for the spans the DP
    plans, and chain's, where the DecompositionChain default would plan
    the collapsed chain's factors. Returns the chain and both call lists."""
    real = plan_bsgs
    calls = {benes: [], chain_module: []}

    def recorder(module):
        def record(offs, n):
            plan = real(offs, n)
            calls[module].append((tuple(offs), plan))
            return plan
        return record

    for module in calls:
        monkeypatch.setattr(module, "plan_bsgs", recorder(module))
    col = collapse_benes(routing)
    for module in calls:
        monkeypatch.setattr(module, "plan_bsgs", real)
    return col, calls[benes], calls[chain_module]


def same_chain(col, ref):
    return (col.stages, col.groups, col.plans) == (ref.stages, ref.groups,
                                                   ref.plans)


def span_offsets(routing):
    """Signed diagonals of every merged span (a, b) the collapse scores."""
    nf = routing.depth
    span_max = nf - max(log2(routing.n) - 1, 1) + 1
    perms = [Permutation(t) for t in routing.stages]
    out = {}
    for a in range(nf):
        q = perms[a]
        for b in range(a + 1, min(a + span_max, nf) + 1):
            if b > a + 1:
                q = q.compose(perms[b - 1])
            out[a, b] = tuple(perm_to_diag(q).signed_diag_set())
    return out


@pytest.mark.parametrize("m", range(4, 11))
def test_collapse_plans_match_per_n1_reference(monkeypatch, m):
    # every plan the collapse makes equals the per-n1 reference plan; the DP
    # plans span offset sets only, each at most once, the chain plans
    # nothing again, and its chain is the exhaustive reference's
    n = 1 << m
    for seed in range(3 if m < 10 else 2):
        chain = benes_decompose(rand_perm(n, 300 * m + seed))
        col, scored, planned = recorded_collapse(monkeypatch, chain)
        distinct = set(span_offsets(chain).values())
        offs = [o for o, _ in scored]
        assert len(offs) == len(set(offs)) and set(offs) <= distinct
        ref = {o: reference_plan_for(o, n) for o in distinct}
        assert all(plan == ref[o] for o, plan in scored) and not planned
        assert col.plans == [ref[tuple(f.signed_diag_set())]
                             for f in col.factors]
        assert same_chain(col, reference_collapse(chain, col.depth))


def test_collapse_scores_each_span_offset_set_once_at_2e12(monkeypatch):
    # at the benchmark's size the DP plans each offset set it needs once,
    # fewer than half of the distinct span offset sets, and the collapsed
    # chain runs the very plans it scored its factors by, planning none again
    chain = benes_decompose(rand_perm(1 << 12, 4096))
    col, scored, planned = recorded_collapse(monkeypatch, chain)
    distinct = set(span_offsets(chain).values())
    offs = [o for o, _ in scored]
    assert len(offs) == len(set(offs)) and set(offs) <= distinct
    assert len(offs) < len(distinct) / 2
    assert planned == []
    by_offs = dict(scored)
    assert all(plan is by_offs[tuple(f.signed_diag_set())]
               for f, plan in zip(col.factors, col.plans))
    assert same_chain(col, reference_collapse(chain, col.depth))


def test_wide_span_plans_match_per_n1_reference():
    # the traffic the bitset sweep is for: the widest spans one collapse at
    # n = 2^12 scores, >= 2,000 offsets each with dmax near 2,047, planned
    # as one full plan per candidate n1 planned them
    n = 1 << 12
    wide = {offs for offs in span_offsets(benes_decompose(rand_perm(n, 12)))
            .values() if len(offs) >= 2000}
    assert len(wide) >= 8
    assert all(max(-offs[0], offs[-1]) > 2000 for offs in wide)
    for offs in sorted(wide):
        assert plan_bsgs(offs, n) == reference_plan_for(offs, n), offs


def test_collapsed_plans_are_the_scored_plans(monkeypatch):
    # the collapsed chain runs plans the DP made, and their executed steps
    # add up to the cheapest contiguous split under every span's reference
    # plan
    for n, seed in ((16, 1), (32, 2), (64, 3), (64, 4)):
        chain = benes_decompose(rand_perm(n, seed))
        col, scored, _ = recorded_collapse(monkeypatch, chain)
        scored = dict(scored)
        assert col.plans == [scored[tuple(f.signed_diag_set())]
                             for f in col.factors]
        cost = {ab: len(reference_plan_for(offs, n).executed_steps())
                for ab, offs in span_offsets(chain).items()}
        nf, depth = chain.depth, col.depth
        cheapest = min(
            sum(cost[a, b] for a, b in zip((0,) + cut, cut + (nf,)))
            for cut in itertools.combinations(range(1, nf), depth - 1))
        assert sum(len(p.executed_steps()) for p in col.plans) == cheapest


def test_collapse_matches_exhaustive_reference():
    # skipping spans under the rotation bound keeps the exhaustive DP's
    # chain at every target depth, ties included
    for m in range(1, 11):
        n = 1 << m
        perms = [Permutation.identity(n),
                 Permutation([(3 * i + 1) % n for i in range(n)])]
        perms += [rand_perm(n, 400 * m + seed) for seed in range(3)]
        for p in perms:
            chain = benes_decompose(p)
            for target in range(1, chain.depth):
                assert same_chain(collapse_benes(chain, target),
                                  reference_collapse(chain, target)), \
                    (m, target)
    for seed in (1, 2):
        chain = benes_decompose(rand_perm(1 << 12, seed))
        col = collapse_benes(chain)
        assert same_chain(col, reference_collapse(chain, col.depth))


def test_fewest_rotations_is_a_lower_bound():
    # b baby and g giant rotations reach at most (b + 1)(g + 1) diagonals,
    # so no plan of k diagonals runs fewer than fewest_rotations(k): on
    # every span offset set of a collapse, and on random, strided and
    # near-n/2 offset sets
    sets = []
    for m in range(3, 13):
        chain = benes_decompose(rand_perm(1 << m, 500 + m))
        sets += [(offs, 1 << m) for offs in set(span_offsets(chain).values())]
    rng = random.Random(35)
    for _ in range(2600):
        m = rng.randint(3, 12)
        n = 1 << m
        kind = rng.choice(("random", "strided", "half"))
        if kind == "random":
            pool = range(1 - n // 2, n // 2 + 1)
        elif kind == "strided":
            stride = 1 << rng.randint(1, m - 1)
            pool = range(stride - n // 2, n // 2 + 1, stride)
        else:
            width = rng.randint(1, n // 4)
            pool = [*range(1 - n // 2, width - n // 2 + 1),
                    *range(n // 2 - width + 1, n // 2 + 1), 0]
        offs = sorted(rng.sample(pool, rng.randint(1, min(len(pool), 300))))
        sets.append((tuple(offs), n))
    tight = 0
    for offs, n in sets:
        rotations = len(plan_bsgs(offs, n).executed_steps())
        assert fewest_rotations(len(offs)) <= rotations, (offs, n)
        tight += fewest_rotations(len(offs)) == rotations
    assert tight > len(sets) // 10


def test_chain_given_plans_is_not_planned_again(monkeypatch):
    col = collapse_benes(benes_decompose(rand_perm(64, 9)))

    def refuse(*args, **kwargs):
        raise AssertionError("planned again")

    for module in (benes, chain_module):
        monkeypatch.setattr(module, "plan_bsgs", refuse)
    again = BenesChain(col.n, col.factors, col.plans, stages=col.stages,
                       groups=col.groups)
    assert again.plans == col.plans
    assert restrict_keys(col).plans == col.plans
    with pytest.raises(AssertionError, match="planned again"):
        BenesChain(col.n, col.factors, stages=col.stages, groups=col.groups)


def test_chain_given_masks_makes_none_again(monkeypatch):
    col = collapse_benes(benes_decompose(rand_perm(64, 9)))

    def refuse(*args, **kwargs):
        raise AssertionError("masks made again")

    monkeypatch.setattr(chain_module, "hlt_masks", refuse)
    again = BenesChain(col.n, col.factors, col.plans, masks=col.masks,
                       stages=col.stages, groups=col.groups)
    assert again.masks is col.masks
    assert restrict_keys(col).masks is col.masks
    with pytest.raises(AssertionError, match="masks made again"):
        BenesChain(col.n, col.factors, col.plans, stages=col.stages,
                   groups=col.groups)


def test_default_route_builds_only_its_factors_and_masks(monkeypatch):
    # the routing builds no factor, the collapse exactly the T factors of
    # its chain and plans none of them again; key restriction, real runs
    # and both cost-model replays make no mask and multiply by col's own
    # mask objects
    n = 1 << 10
    p = rand_perm(n, 36)
    built = []

    def counted(q):
        built.append(q)
        return perm_to_diag(q)

    def refuse(*args, **kwargs):
        raise AssertionError("planned or masked again")

    monkeypatch.setattr(benes, "perm_to_diag", counted)
    monkeypatch.setattr(chain_module, "plan_bsgs", refuse)
    routing = benes_decompose(p)
    assert built == []
    col = collapse_benes(routing)
    assert len(built) == col.depth == log2(n) - 1
    made = {id(m): m for masks in col.masks for m in masks.values()}
    assert len(made) == sum(col.diag_counts())
    assert all(type(m) is PositionMask for m in made.values())

    for module, name in ((chain_module, "hlt_masks"), (diag, "_mask"),
                         (diag, "PositionMask")):
        monkeypatch.setattr(module, name, refuse)
    used = []
    cmult = SlotVector.cmult

    def recorded(v, mask, tag=""):
        used.append(mask)
        return cmult(v, mask, tag)

    monkeypatch.setattr(SlotVector, "cmult", recorded)
    res = restrict_keys(col)
    assert res.masks is col.masks
    vals = rand_vec(n, random.Random(36))
    for chain in (col, res):
        assert chain_cost(chain).depth == col.depth
        out = chain.evaluate(SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)
    assert len(used) == 4 * len(made)
    assert all(made.get(id(m)) is m for m in used)
    assert len(built) == col.depth


def test_per_level_rotation_counts_reported():
    # raw window counts, not the hoisted scalar-multiplication equivalents
    # the reference table was derived from, so only shape and sanity here
    for seed in range(3):
        col = collapse_benes(benes_decompose(rand_perm(1024, 70 + seed)))
        counts = benes_rotation_counts(col)
        assert len(counts) == log2(1024) - 1
        assert all(c >= 1 for c in counts)
        assert 15 <= sum(counts) <= 70


# -------------------------------------------------------------------- keys


def test_restricted_keys_budget():
    for n in (256, 1024):
        res = restrict_keys(collapse_benes(benes_decompose(rand_perm(n, 3))))
        with CostLedger() as led:
            res.evaluate(SlotVector.zeros(n))
        assert len(led.key_set()) <= log2(n) + 2
        assert led.key_set() == benes_key_set(res)


def test_restricted_evaluation_exact_and_counted():
    for seed in range(3):
        rng = random.Random(300 + seed)
        p = Permutation.random(256, rng)
        vals = rand_vec(256, rng)
        res = restrict_keys(collapse_benes(benes_decompose(p)))
        with CostLedger() as led:
            out = res.evaluate(SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)
        assert led.rotation_count == benes_total_rotations(res)
        assert led.key_set() == benes_key_set(res)


def test_restriction_only_grows_totals():
    ch = collapse_benes(benes_decompose(rand_perm(512, 91)))
    res = restrict_keys(ch)
    assert benes_total_rotations(res) >= benes_total_rotations(ch)


def test_tiny_budget_still_exact():
    rng = random.Random(92)
    p = Permutation.random(64, rng)
    vals = rand_vec(64, rng)
    res = restrict_keys(collapse_benes(benes_decompose(p)), budget=3)
    out = res.evaluate(SlotVector.from_list(vals))
    assert out.to_list() == p.apply(vals)
    assert benes_total_rotations(res) > benes_total_rotations(
        collapse_benes(benes_decompose(p)))


def test_every_key_budget_evaluates_exactly():
    # power steps down to 1 complete any key set, so every budget runs
    for m in range(1, 9):
        n = 1 << m
        rng = random.Random(600 + m)
        p = Permutation.random(n, rng)
        vals = rand_vec(n, rng)
        col = collapse_benes(benes_decompose(p))
        for budget in range(1, m + 1):
            res = restrict_keys(col, budget)
            with CostLedger() as led:
                out = res.evaluate(SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals), (n, budget)
            assert led.key_set() == benes_key_set(res)


def test_budget_validation():
    ch = collapse_benes(benes_decompose(rand_perm(64, 93)))
    with pytest.raises(ValueError, match="budget"):
        restrict_keys(ch, 0)
    # the default budget is log2 n, but never below one key
    one = restrict_keys(benes_decompose(Permutation.identity(1)).chain())
    assert one.depth == 0 and one.key_paths == {}
    with pytest.raises(ValueError, match="budget"):
        restrict_keys(benes_decompose(Permutation.identity(1)).chain(), 0)


def test_identity_chain_restriction():
    res = restrict_keys(benes_decompose(Permutation.identity(16)).chain())
    assert res.key_paths == {}
    assert benes_key_set(res) == set()
    assert benes_total_rotations(res) == 0


# ----------------------------------------------------- baseline comparison


def test_restricted_totals_exceed_network_totals():
    # matched seeds, matched key budgets of about log n
    for n, count in ((1 << 10, 4), (1 << 11, 3)):
        for seed in range(count):
            p = Permutation.random(n, random.Random(9000 + seed))
            net_total = zero_ledger(build_network(p)).rotation_count
            res = restrict_keys(collapse_benes(benes_decompose(p)))
            assert benes_total_rotations(res) > net_total
