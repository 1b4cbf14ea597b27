"""Property tests over random permutations.

Rotation networks, raw and mask-reduced, under every collapse spec that
collapse_levels accepts, must reproduce Permutation.apply, and the cost
model's report must match what a real-vector run executes. The plan-side
rotation predictions of Benes chains must match the priced replay.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from permdec.benes import benes_decompose, collapse_benes, restrict_keys
from permdec.costmodel import chain_cost
from permdec.ledger import CostLedger
from permdec.network import (build_network, collapse_levels, evaluate_network,
                             reduce_masks)
from permdec.slots import Permutation, SlotVector


@st.composite
def permutations(draw, lo: int, hi: int):
    n = 1 << draw(st.integers(lo, hi))
    return Permutation(draw(st.permutations(range(n))))


@settings(max_examples=30, deadline=None)
@given(p=permutations(2, 8), reduced=st.booleans(),
       arity=st.sampled_from([2, 4, 8]), data=st.data())
def test_network_collapses_exact_and_priced_as_executed(p, reduced, arity,
                                                        data):
    vals = data.draw(st.lists(st.integers(-99, 99), min_size=p.n,
                              max_size=p.n))
    net = build_network(p)
    if reduced:
        net = reduce_masks(net)
    nodes = Counter(nd.level for nd in net.rotation_nodes())
    lmax = net.max_level
    for top in range(lmax):
        for bottom in range(lmax - top):
            col = collapse_levels(net, top, bottom, arity)
            with CostLedger() as led:
                out = evaluate_network(col, SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)
            rep = chain_cost(col)
            assert sum(rep.per_level.values()) == led.rotation_count
            assert rep.key_set == led.key_set()
            # a level the collapse keeps runs one rotation per rotation node
            # (all levels when uncollapsed); the top's pre-rotations price on
            # level 1 and the bottom's digit tree just below the cut
            kept = range(top + 1, col.cut + 1)
            assert [rep.per_level.get(lv, 0) for lv in kept] == \
                [nodes[lv] for lv in kept]
            assert set(rep.per_level) - set(kept) <= {1, col.cut + 1}


@settings(max_examples=20, deadline=None)
@given(p=permutations(2, 6), restricted=st.booleans())
def test_benes_plan_counts_match_priced_replay(p, restricted):
    bc = collapse_benes(benes_decompose(p))
    if restricted:
        bc = restrict_keys(bc)
    rep = chain_cost(bc)
    # factors apply right to left, so position 1 is the last factor
    assert [rep.per_level[pos] for pos in range(bc.depth, 0, -1)] == \
        bc.rotation_counts()
    assert rep.key_set <= bc.key_set()
