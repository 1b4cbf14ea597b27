"""Property tests over random permutations.

Rotation networks, raw and mask-reduced, under every collapse spec that
collapse_levels accepts, must reproduce Permutation.apply on the keys of the
uncollapsed network, and the cost model's report must match what a
real-vector run executes. The rotation counts and keys predicted from a
Benes chain's plans must match the priced replay. For every route the cost
model prices (networks, Benes chains, ladders, searched chains), its replay
on the zero vector must record the real-vector run's ops, Op for Op.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from util import benes_key_set, benes_rotation_counts

from permdec.benes import benes_decompose, collapse_benes, restrict_keys
from permdec.costmodel import chain_cost, replay
from permdec.ledger import CostLedger
from permdec.network import build_network, collapse_levels, reduce_masks
from permdec.search import max_ideal_depth
from permdec.slots import Permutation, SlotVector
from permdec.structured import LADDERS, _max_rounds


@st.composite
def permutations(draw, lo: int, hi: int):
    n = 1 << draw(st.integers(lo, hi))
    return Permutation(draw(st.permutations(range(n))))


def run_replay_exact(source, vals):
    """A real-vector run of a network or chain under a CostLedger, checked to
    record exactly the ops of the cost model's replay. Returns the output
    vector and the ledger."""
    v = SlotVector.from_list(vals)
    with CostLedger() as led:
        out = source.evaluate(v)
    assert replay(source)[0].ops == led.ops
    return out, led


@settings(max_examples=30, deadline=None)
@given(p=permutations(2, 8), reduced=st.booleans(), data=st.data())
def test_network_collapses_exact_and_priced_as_executed(p, reduced, data):
    vals = data.draw(st.lists(st.integers(-99, 99), min_size=p.n,
                              max_size=p.n))
    net = build_network(p)
    if reduced:
        net = reduce_masks(net)
    nodes = Counter(nd.level for nd in net.rotation_nodes())
    keys = chain_cost(net).key_set
    lmax = net.max_level
    for top in range(lmax):
        for bottom in range(lmax - top):
            col = collapse_levels(net, top, bottom)
            out, led = run_replay_exact(col, vals)
            assert out.to_list() == p.apply(vals)
            rep = chain_cost(col)
            assert sum(rep.per_level.values()) == led.rotation_count
            assert rep.key_set == led.key_set()
            # the collapse runs on the network's own keys and adds none
            assert rep.key_set <= keys
            # a level the collapse keeps runs one rotation per rotation node
            # (all levels when uncollapsed); the top's pre-rotations price on
            # level 1 and the bottom's digit tree just below the cut
            kept = range(top + 1, col.cut + 1)
            assert [rep.per_level.get(lv, 0) for lv in kept] == \
                [nodes[lv] for lv in kept]
            assert set(rep.per_level) - set(kept) <= {1, col.cut + 1}


@settings(max_examples=20, deadline=None)
@given(p=permutations(2, 6), restricted=st.booleans(), data=st.data())
def test_benes_plan_counts_match_priced_replay(p, restricted, data):
    bc = collapse_benes(benes_decompose(p))
    if restricted:
        bc = restrict_keys(bc)
    vals = data.draw(st.lists(st.integers(-99, 99), min_size=p.n,
                              max_size=p.n))
    out, _ = run_replay_exact(bc, vals)
    assert out.to_list() == p.apply(vals)
    rep = chain_cost(bc)
    # factors apply right to left, so position 1 is the last factor
    assert [rep.per_level[pos] for pos in range(bc.depth, 0, -1)] == \
        benes_rotation_counts(bc)
    assert rep.key_set == benes_key_set(bc)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(LADDERS)), d=st.integers(3, 16),
       data=st.data())
def test_ladder_replay_exact_at_every_legal_depth(kind, d, data):
    vals = data.draw(st.lists(st.integers(-99, 99), min_size=d * d,
                              max_size=d * d))
    for l in range(1, _max_rounds(d) + 1):
        run_replay_exact(LADDERS[kind][1](d, l), vals)


@settings(max_examples=10, deadline=None)
@given(target=st.sampled_from([("ut", 4), ("ut", 8), ("ut", 16),
                               ("sigma", 4), ("sigma", 8), ("sigma", 16),
                               ("tau", 4)]),
       data=st.data())
def test_searched_chain_replay_exact(target, data):
    kind, d = target
    _, chain = max_ideal_depth(LADDERS[kind][0](d))
    vals = data.draw(st.lists(st.integers(-99, 99), min_size=d * d,
                              max_size=d * d))
    run_replay_exact(chain, vals)
