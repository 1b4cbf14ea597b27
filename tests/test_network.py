"""Rotation-network construction, reduction, collapsing, and evaluation.

The reference here is the index-shuffle oracle Permutation.apply; every
transformed network must reproduce it exactly. Aggregate rotation counts are
checked against frozen per-level reference rows (20-seed means).
"""

import gc
import hashlib
import json
import random
import statistics
import tracemalloc

import pytest

from permdec.ledger import CostLedger
from permdec.network import (build_network, collapse_levels, evaluate_network,
                             reduce_masks, rotation_profile)
from permdec.slots import Permutation, SlotVector
from util import (assert_value_errors, assert_value_errors_without_asserts,
                  entry_routes, zero_ledger, zero_profile)


def log2(x: int) -> int:
    return x.bit_length() - 1


def rand_vec(n, rng):
    return [rng.randrange(-999, 1000) for _ in range(n)]


def build_random(n, seed):
    rng = random.Random(seed)
    return Permutation.random(n, rng), rng


# mean rotations per level over 20 random permutations, and the row total
REFERENCE_ROWS = {
    1024: ([1.0, 2.0, 3.3, 3.7, 4.0, 4.1, 4.3, 4.3, 4.0, 3.8], 34.5),
    2048: ([1.0, 2.0, 3.4, 3.9, 4.2, 4.3, 4.3, 4.4, 4.2, 4.1, 4.0], 39.8),
    4096: ([1.0, 2.0, 3.6, 4.1, 4.2, 4.4, 4.6, 4.8, 4.9, 4.8, 4.7, 4.2], 47.3),
}


# ---------------------------------------------------------------- building


def test_rotation_by_three_structure():
    net = build_network(Permutation.rotation(8, 3))
    assert all((i - t) % 8 == 3 for i, t in enumerate(net.targets))
    assert len(net.group_spans) == 1 and net.group_spans[0] == (0, 2)
    rots = sorted((nd.level, nd.step) for nd in net.rotation_nodes())
    assert rots == [(1, 2), (2, 1)]
    # a pure rotation never conflicts, so nothing is deferred past group 0
    assert all(nd.group == 0 for nd in net.nodes)


def test_identity_builds_no_nodes():
    net = build_network(Permutation.identity(16))
    assert net.rotation_nodes() == []
    assert len(net.nodes) == 1  # just the input holder
    # solved: every entry already sits at its target on the input holder
    assert all(net.targets[i] == p for p, i in zip(*net.nodes[0].occ))


def test_power_of_two_rotation_is_single_level():
    net = build_network(Permutation.rotation(16, 4))
    rots = net.rotation_nodes()
    assert len(rots) == 1 and rots[0].step == 4 and rots[0].level == 1
    assert net.max_level == 1


def test_all_entries_solved_and_traced():
    p, _ = build_random(256, 11)
    net = build_network(p)
    routes = entry_routes(net)
    for i, t in enumerate(net.targets):
        # solved: the last node leaves the entry at its target
        last, q, _ = routes[i][-1]
        assert (q - last.step) % 256 == t
        # the trace covers every level from the input down to a group bottom
        trace = [nd.idx for nd, _, _ in routes[i]]
        assert len(trace) - 1 == net.nodes[trace[-1]].level
        levels = [nd.level for nd, _, _ in routes[i]]
        assert levels == list(range(len(trace)))
        assert routes[i][-1][2] == (i - t) % 256


def test_binary_path_property():
    for seed in range(5):
        p, _ = build_random(256, 20 + seed)
        net = build_network(p)
        routes = entry_routes(net)
        for i, t in enumerate(net.targets):
            traveled = [0] + [r for nd, _, r in routes[i]
                              if nd.kind == "rotation"]
            steps = [b - a for a, b in zip(traveled, traveled[1:])]
            assert sum(steps) == (i - t) % 256
            assert len(set(steps)) == len(steps)  # each power at most once
            assert all(s & (s - 1) == 0 for s in steps)


def test_level_bound_matches_max_distance():
    for seed in range(20):
        for n in (256, 1024):
            p, _ = build_random(n, 100 + seed)
            net = build_network(p)
            top = max((i - t) % n for i, t in enumerate(net.targets))
            # ceil(log2 top), with a floor of 1 when anything moves at all
            ceil_log = (top - 1).bit_length() if top > 1 else top
            assert net.max_level <= ceil_log


def test_distinct_steps_at_most_log_n():
    for seed in range(20):
        for n in (256, 1024):
            p, _ = build_random(n, 300 + seed)
            keys = zero_ledger(build_network(p)).key_set()
            assert len(keys) <= log2(n)
            assert all(k & (k - 1) == 0 for k in keys)


def test_group_level_counts_within_bound():
    for seed in range(10):
        p, _ = build_random(512, 400 + seed)
        net = build_network(p)
        for start, bottom in net.group_spans:
            assert bottom - start <= log2(512) + 1 - start
        assert net.max_level <= log2(512)


def test_group_spans_trend_downward_on_average():
    first, last = [], []
    for seed in range(20):
        p, _ = build_random(512, 500 + seed)
        net = build_network(p)
        spans = [b - s for s, b in net.group_spans]
        if len(spans) >= 2:
            first.append(spans[0])
            last.append(spans[-1])
    assert statistics.mean(first) >= statistics.mean(last)


# digests of build_network's output for fixed inputs: a faster build must
# give the same network node for node, edge for edge and mask for mask
BUILD_DIGESTS = {
    "random-256-1": "d10c529175c8ae4c",
    "random-256-2": "541e2c7e16698e62",
    "random-256-3": "4a0d0266803b2f68",
    "random-1024-1": "cd8b679e341e145a",
    "random-1024-2": "2d93e73096eba4d9",
    "random-1024-3": "a1647bbd8d6bd1c1",
    "random-4096-1": "83b976833c4d6c90",
    "random-16384-1": "449a3bf29bd60676",
    "identity-16": "302946175d85d5ce",
    "rotation-8-3": "f1ee8efd142981cb",
    "rotation-256-77": "d7919a97d019c7e2",
}


def _build_input(name):
    kind, n, *arg = name.split("-")
    n, arg = int(n), [int(a) for a in arg]
    if kind == "random":
        return Permutation.random(n, random.Random(*arg))
    if kind == "identity":
        return Permutation.identity(n)
    return Permutation.rotation(n, *arg)


def _build_digest(net):
    """Nodes in order (kind, group, level, step, occupancy), edges in the
    order of edges and of each node's out_edges and in_edges, their masks,
    and the group spans."""
    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode() + b";")

    for nd in net.nodes:
        put((nd.idx, nd.kind, nd.group, nd.level, nd.step,
             sorted(zip(*nd.occ))))
    for e in net.edges.values():
        put((e.src, e.dst,
             None if e.mask is None else sorted(e.mask.positions)))
    for nd in net.nodes:
        put([(e.src, e.dst) for e in net.out_edges[nd.idx]])
        put([(e.src, e.dst) for e in net.in_edges[nd.idx]])
    put(net.group_spans)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_matches_pinned_network(name):
    net = build_network(_build_input(name))
    assert _build_digest(net) == BUILD_DIGESTS[name]


def test_node_masks_are_disjoint_per_destination():
    # the build writes no slot twice: a node's feeds take disjoint positions,
    # and its occupancy record holds exactly those, each once, with one
    # entry per position (a lone feed's mask tuple is the record's own)
    for name in sorted(BUILD_DIGESTS):
        net = build_network(_build_input(name))
        for nd in net.nodes:
            if not net.in_edges[nd.idx]:  # the input holder
                continue
            positions, entries = nd.occ
            seen = set()
            for e in net.in_edges[nd.idx]:
                assert e.mask is not None
                ps = set(e.mask.positions)
                assert len(ps) == len(e.mask.positions), (name, nd.idx)
                assert not (seen & ps), (name, nd.idx)
                seen |= ps
            assert seen == set(positions), (name, nd.idx)
            assert len(positions) == len(seen) == len(entries), name
            if len(net.in_edges[nd.idx]) == 1:
                assert positions is net.in_edges[nd.idx][0].mask.positions


def test_built_network_keeps_compact_routing_records():
    # at 2^12 a built network keeps ~23 bytes per routed (entry, level)
    # step: records as position tuples shared with the masks plus entry
    # arrays, and one int object per slot. A {position: entry} dict per
    # node and a fresh int per routed position kept ~70.
    for seed in (1, 2):
        p, _ = build_random(1 << 12, seed)
        gc.collect()
        tracemalloc.start()
        try:
            net = build_network(p)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        steps = sum(len(net.held(nd)) for nd in net.nodes)
        assert kept / steps < 35, (seed, kept, steps)


def test_construction_is_deterministic():
    p, _ = build_random(128, 77)
    a = json.dumps(build_network(p).to_json(), sort_keys=True)
    b = json.dumps(build_network(p).to_json(), sort_keys=True)
    assert a == b


# -------------------------------------------------------------- evaluation


def test_identity_evaluates_to_input():
    net = build_network(Permutation.identity(8))
    v = SlotVector.from_list(range(8))
    with CostLedger() as led:
        out = evaluate_network(net, v)
    assert out.to_list() == list(range(8))
    assert out.depth_used == 0 and out.level == v.level
    assert led.rotation_count == led.cmult_count == 0
    assert len(led.of_kind("rescale")) == 0


def test_rotation_by_three_values():
    net = build_network(Permutation.rotation(8, 3))
    out = evaluate_network(net, SlotVector.from_list(range(8)))
    assert out.to_list() == [3, 4, 5, 6, 7, 0, 1, 2]


def test_dimension_mismatch_rejected():
    net = build_network(Permutation.rotation(8, 3))
    with pytest.raises(ValueError, match="length"):
        evaluate_network(net, SlotVector.from_list(range(16)))


def test_random_pairs_exact():
    # 100 (p, v) pairs spread over the three sizes
    cases = [(64, 40), (256, 40), (1024, 20)]
    assert sum(c for _, c in cases) == 100
    for n, count in cases:
        for seed in range(count):
            p, rng = build_random(n, 1000 * n + seed)
            vals = rand_vec(n, rng)
            out = evaluate_network(build_network(p), SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)


def test_consumed_depth_below_log_n():
    for seed in range(10):
        for n in (64, 256):
            p, rng = build_random(n, 2000 + seed)
            out = evaluate_network(build_network(p),
                                   SlotVector.from_list(rand_vec(n, rng)))
            assert out.depth_used <= log2(n) - 1


def test_evaluation_rotations_match_profile():
    for seed in range(5):
        p, rng = build_random(256, 2500 + seed)
        net = build_network(p)
        with CostLedger() as led:
            evaluate_network(net, SlotVector.from_list(rand_vec(256, rng)))
        assert led.rotation_count == zero_ledger(net).rotation_count


COLLAPSES = [(2, 3), (0, 2), (1, 0), (3, 3), (0, 1), (1, 1), (0, 3)]


@pytest.mark.parametrize("n", [1 << k for k in range(4, 11)])
def test_real_run_records_the_slot_free_replay(n):
    # the real run and the cost model's replay on the zero vector must
    # record the same op stream, op for op, on every kind of network
    p, rng = build_random(n, 2600 + n)
    vals = rand_vec(n, rng)
    raw = build_network(p)
    red = reduce_masks(raw)
    nets = [raw, red]
    for base in (raw, red):
        for top, bottom in COLLAPSES:
            if top + bottom < base.max_level:
                nets.append(collapse_levels(base, top, bottom))
    assert len(nets) >= 9
    for net in nets:
        with CostLedger() as led:
            out = evaluate_network(net, SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)
        assert led.ops == zero_ledger(net).ops


def test_evaluation_releases_node_outputs():
    # keeping every node output to the end peaks at ~9.7 MB of allocations
    # here; releasing each after its last reader, at ~1.8 MB. A release
    # too early raises KeyError instead of rebuilding the output.
    n = 1 << 12
    p, rng = build_random(n, 2700)
    vals = rand_vec(n, rng)
    net = build_network(p)
    v = SlotVector.from_list(vals)
    tracemalloc.start()
    try:
        out = evaluate_network(net, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.to_list() == p.apply(vals)
    assert peak <= 4_000_000


# --------------------------------------------------------- mask reduction


def test_reduce_identity_unchanged():
    net = build_network(Permutation.identity(8))
    red = reduce_masks(net)
    v = SlotVector.from_list(range(8))
    assert evaluate_network(red, v).to_list() == list(range(8))
    assert not red.edges


def test_reduce_pure_rotation_same_output():
    net = build_network(Permutation.rotation(32, 13))
    red = reduce_masks(net)
    rng = random.Random(3)
    for _ in range(20):
        vals = rand_vec(32, rng)
        v = SlotVector.from_list(vals)
        assert evaluate_network(red, v).to_list() == \
            evaluate_network(net, v).to_list()


def test_reduce_preserves_output_exactly():
    for seed in range(20):
        p, rng = build_random(256, 3000 + seed)
        vals = rand_vec(256, rng)
        v = SlotVector.from_list(vals)
        net = build_network(p)
        out = evaluate_network(reduce_masks(net), v)
        assert out.to_list() == p.apply(vals)
        assert out.depth_used <= log2(256) - 1


def test_reduce_cuts_mask_multiplications():
    p, rng = build_random(256, 3210)
    vals = rand_vec(256, rng)
    net = build_network(p)
    with CostLedger() as before:
        evaluate_network(net, SlotVector.from_list(vals))
    with CostLedger() as after:
        evaluate_network(reduce_masks(net), SlotVector.from_list(vals))
    assert after.cmult_count < before.cmult_count
    assert after.rotation_count == before.rotation_count


def test_reduce_copies_confined_to_standby_chains():
    p, _ = build_random(256, 3333)
    red = reduce_masks(build_network(p))
    for e in red.edges.values():
        dst = red.nodes[e.dst]
        src = red.nodes[e.src]
        if e.mask is None:
            assert dst.kind == "standby" and src.group == dst.group
        elif dst.kind == "standby" and src.group == dst.group:
            # kept masks sit just above or at a group bottom
            bottom = red.group_spans[dst.group][1]
            assert dst.level >= bottom - 1


def test_reducing_twice_is_reducing_once():
    # the kept standby masks are already copies: nothing is left to reduce
    p, rng = build_random(256, 3444)
    vals = rand_vec(256, rng)
    red = reduce_masks(build_network(p))
    twice = reduce_masks(red)
    assert twice.to_json() == red.to_json()
    out = evaluate_network(twice, SlotVector.from_list(vals))
    assert out.to_list() == p.apply(vals)


# ------------------------------------------------------- level collapsing


def test_collapse_zero_zero_returns_same_network():
    net = build_network(Permutation.rotation(8, 3))
    assert collapse_levels(net, 0, 0) is net


def test_collapse_validation():
    net = build_network(Permutation.rotation(8, 3))  # two levels
    with pytest.raises(ValueError, match="cannot collapse"):
        collapse_levels(net, 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        collapse_levels(net, -1, 2)


def _rot8():
    return build_network(Permutation.rotation(8, 3))  # two levels


# each bad collapse request must raise ValueError matching the text, also
# under python -O, also when it would collapse no level
BAD_COLLAPSES = {
    "collapse counts must be nonnegative": lambda: collapse_levels(
        _rot8(), -1, 2),
    "counts must be nonnegative": lambda: collapse_levels(_rot8(), 0, -1),
    "of 2 levels": lambda: collapse_levels(_rot8(), 1, 1),
}


def test_bad_collapses_raise_value_error():
    assert_value_errors(BAD_COLLAPSES)


def test_bad_collapses_raise_without_asserts():
    assert_value_errors_without_asserts("test_network", "BAD_COLLAPSES")


def test_collapse_top2_bottom3_exact():
    for seed in range(5):
        p, rng = build_random(256, 4000 + seed)
        vals = rand_vec(256, rng)
        net = collapse_levels(build_network(p), 2, 3)
        out = evaluate_network(net, SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)


@pytest.mark.parametrize("top,bottom", [(0, 2), (0, 3), (2, 3), (3, 3),
                                        (2, 4), (3, 4)])
def test_collapse_practice_configurations(top, bottom):
    # the configurations used in practice for log n = 7 .. 14
    p, rng = build_random(512, 4100 + 10 * top + bottom)
    vals = rand_vec(512, rng)
    net = collapse_levels(build_network(p), top, bottom)
    out = evaluate_network(net, SlotVector.from_list(vals))
    assert out.to_list() == p.apply(vals)
    assert out.depth_used <= log2(512) - 1


def test_collapse_after_reduction_exact():
    for seed in range(5):
        p, rng = build_random(256, 4300 + seed)
        vals = rand_vec(256, rng)
        red = reduce_masks(build_network(p))
        for top, bottom in ((2, 3), (0, 1), (1, 2)):
            out = evaluate_network(collapse_levels(red, top, bottom),
                                   SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)


def test_collapse_key_increase_within_budget():
    # the collapse runs on the network's own power-of-two keys: none added
    for seed in range(10):
        p, rng = build_random(1024, 4400 + seed)
        net = build_network(p)
        base = zero_ledger(net).key_set()
        assert len(base) <= log2(1024)
        for top, bottom in ((2, 3), (0, 4), (2, 2), (1, 3)):
            if top + bottom >= net.max_level:
                continue
            col = collapse_levels(net, top, bottom)
            assert zero_ledger(col).key_set() <= base


def test_collapsed_rotations_match_profile():
    for seed in range(5):
        p, rng = build_random(256, 4500 + seed)
        col = collapse_levels(build_network(p), 2, 3)
        with CostLedger() as led:
            evaluate_network(col, SlotVector.from_list(rand_vec(256, rng)))
        assert led.rotation_count == zero_ledger(col).rotation_count


def test_collapse_single_bottom_level_on_reduced():
    # the cut then falls on the narrowed standby level; re-fed entries
    # must be picked up one level higher
    for seed in range(5):
        p, rng = build_random(128, 4600 + seed)
        vals = rand_vec(128, rng)
        red = reduce_masks(build_network(p))
        out = evaluate_network(collapse_levels(red, 0, 1),
                               SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)


def test_every_accepted_collapse_is_exact():
    # every (top, bottom) collapse_levels accepts, on raw and reduced networks
    for n in (8, 16, 64, 256):
        for seed in range(3):
            p, rng = build_random(n, 4700 + 10 * n + seed)
            vals = rand_vec(n, rng)
            raw = build_network(p)
            keys = zero_ledger(raw).key_set()
            for net in (raw, reduce_masks(raw)):
                lmax = net.max_level
                for top in range(lmax):
                    for bottom in range(lmax - top):
                        col = collapse_levels(net, top, bottom)
                        out = evaluate_network(col, SlotVector.from_list(vals))
                        where = (n, seed, net.reduced, top, bottom)
                        assert out.to_list() == p.apply(vals), where
                        assert zero_ledger(col).key_set() <= keys, where


def test_bottom_collapse_routes_long_remaining_distances():
    # a deferred entry reaches the cut with 2 or more still to go although
    # only one level is collapsed; the digit tree rotates it all the same
    p = Permutation([6, 5, 4, 1, 0, 7, 2, 3])
    net = build_network(p)
    cut = net.max_level - 1
    routes = entry_routes(net)
    assert any((i - t) % 8 - routes[i][cut][2] >= 2
               for i, t in enumerate(net.targets) if len(routes[i]) - 1 >= cut)
    vals = list(range(1, 9))
    out = evaluate_network(collapse_levels(net, 0, 1),
                           SlotVector.from_list(vals))
    assert out.to_list() == p.apply(vals)


def _routing_state(net):
    return (json.dumps(net.to_json(), sort_keys=True),
            [dict(zip(*nd.occ)) for nd in net.nodes], dict(net.filtered))


def test_derived_networks_share_but_never_write_routing_state():
    for n, seed in ((64, 4900), (256, 4901), (1024, 4902)):
        p, rng = build_random(n, seed)
        vals = rand_vec(n, rng)
        raw = build_network(p)
        raw_state = _routing_state(raw)
        red = reduce_masks(raw)
        red_state = _routing_state(red)
        assert red.filtered and _routing_state(raw) == raw_state
        assert all(a.occ is b.occ for a, b in zip(raw.nodes, red.nodes))
        lmax = raw.max_level
        for src in (raw, red):
            for top, bottom in ((2, 3), (0, 2), (3, 0), (lmax - 2, 1)):
                col = collapse_levels(src, top, bottom)
                assert col.nodes is src.nodes and col.edges is src.edges
                assert src.collapse is None
                out = evaluate_network(col, SlotVector.from_list(vals))
                assert out.to_list() == p.apply(vals), (n, top, bottom)
            out = evaluate_network(src, SlotVector.from_list(vals))
            assert out.to_list() == p.apply(vals)
        assert _routing_state(raw) == raw_state
        assert _routing_state(red) == red_state


def test_derived_networks_share_the_raw_masks():
    # every mask is made once, by build_network: reduce_masks and
    # collapse_levels hand on the same objects and change none of them
    p, rng = build_random(256, 4950)
    vals = rand_vec(256, rng)
    raw = build_network(p)
    made = {id(e.mask): e.mask for e in raw.edges.values()}
    before = {k: m.positions for k, m in made.items()}
    red = reduce_masks(raw)
    nets = [raw, red] + [collapse_levels(src, 2, 3) for src in (raw, red)]
    for net in nets:
        masks = [e.mask for e in net.edges.values() if e.mask is not None]
        assert masks and all(m is made[id(m)] for m in masks)
        out = evaluate_network(net, SlotVector.from_list(vals))
        assert out.to_list() == p.apply(vals)
    assert {k: m.positions for k, m in made.items()} == before


@pytest.mark.parametrize("top,bottom", [(2, 3), (0, 2), (3, 0), (1, 1)])
def test_collapsed_network_evaluates_alike_every_time(top, bottom):
    # the collapse's masks are derived once, by collapse_levels; a second
    # run applies them again and records what the first run and the replay
    # record
    p, rng = build_random(512, 4960 + 10 * top + bottom)
    vals = rand_vec(512, rng)
    raw = build_network(p)
    # a collapsed network reduced afterwards derives its collapse again
    for col in (collapse_levels(raw, top, bottom),
                collapse_levels(reduce_masks(raw), top, bottom),
                reduce_masks(collapse_levels(raw, top, bottom))):
        runs = []
        for _ in range(2):
            with CostLedger() as led:
                out = evaluate_network(col, SlotVector.from_list(vals))
            runs.append((out.to_list(), led.ops))
        assert runs[0] == runs[1]
        assert runs[0][0] == p.apply(vals)
        assert runs[0][1] == zero_ledger(col).ops


# ----------------------------------------------------------------- profile


def test_profile_identity_all_zero():
    net = build_network(Permutation.identity(64))
    led = zero_ledger(net)
    assert rotation_profile(net, led) == {}
    assert led.rotation_count == 0 and led.key_set() == set()


def test_profile_rotation_by_three():
    net = build_network(Permutation.rotation(8, 3))
    led = zero_ledger(net)
    assert rotation_profile(net, led) == {1: 1, 2: 1}
    assert led.key_set() == {1, 2} and led.rotation_count == 2


@pytest.mark.parametrize("n", sorted(REFERENCE_ROWS))
def test_profile_reference_rows(n):
    row, row_total = REFERENCE_ROWS[n]
    sums = [0] * (log2(n) + 1)
    totals = []
    for seed in range(20):
        p, _ = build_random(n, 5000 + seed)
        prof = zero_profile(build_network(p))
        totals.append(sum(prof.values()))
        for lv, c in prof.items():
            sums[lv] += c
    means = [s / 20 for s in sums[1:]]
    assert len(means) == len(row)
    for got, want in zip(means, row):
        assert abs(got - want) <= 0.5
    assert abs(statistics.mean(totals) - row_total) <= 0.1 * row_total


def test_profile_total_spread_grows_with_n():
    def totals(n, base):
        out = []
        for seed in range(20):
            p, _ = build_random(n, base + seed)
            out.append(zero_ledger(build_network(p)).rotation_count)
        return out

    small = statistics.pstdev(totals(1 << 10, 6000))
    large = statistics.pstdev(totals(1 << 14, 7000))
    assert 0.8 <= small <= 2.6  # reference value is about 1.6
    assert large > small


# ------------------------------------------------------------ serialization


def test_json_schema_shape():
    obj = build_network(Permutation.rotation(8, 3)).to_json()
    assert set(obj) == {"n", "reduced", "groups"}
    for grp in obj["groups"]:
        for lvl in grp["levels"]:
            for nd in lvl["nodes"]:
                assert nd["kind"] in ("rotation", "standby")
                for e in nd["edges"]:
                    assert "to" in e and ("mask" in e or e.get("copy"))
