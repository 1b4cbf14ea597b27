"""Rotation networks for arbitrary slot permutations.

Any permutation can be evaluated by routing each entry through a cascade of
power-of-two left rotations that sum to its required displacement,
r_org = (i - targets[i]) mod n for entry i. The network is built level by
level from the top: each level picks rot = the largest power of two not above
the largest remaining distance r_rem present, entries with r_rem >= rot enter
that level's rotation node, the rest ride standby columns unchanged. Slot
conflicts inside a rotation node defer the newcomer to the next group, so the
network grows a small number of vertical groups whose bottom outputs sum to
the permuted vector. Every entry ends up applying exactly the binary
decomposition of its r_org.

A network keeps two routing records: node occupancy (Node.occ: input
position -> entry) and the targets of the permutation it routes. A network is
made only from its permutation: build_network writes both records, and
derived networks share them. to_json prints the graph as a report; nothing
reads it back, as the graph alone cannot be collapsed. A left rotation of
step k moves an entry from position p to (p - k) mod n, so entry i at position
p has travelled (i - p) mod n (exact, as that is at most r_org < n) and has
(p - targets[i]) mod n still to go; it is home once p == targets[i].

Edges carry 0/1 masks (slots.PositionMask) selecting the entries they
transmit. build_network makes each mask once, when its level is routed, and
the mask checks its positions then; derived networks share those objects and
never copy or change one. Two cost optimizations operate on a built network:

- reduce_masks replaces standby-chain masks with free copies, keeping one
  masked hop per column right above the bottom. Copies let stale values ride
  along; the kept masks are narrowed to the entries that stay put for the
  final hop, and entries that still rotate (or defer) at the bottom are re-fed
  from one level higher, so the evaluation stays bit-exact.
- collapse_levels flattens the top t levels into masked pre-rotations of the
  input and the bottom b levels into masked buckets keyed by remaining
  distance, merged lowest bit first: a bucket whose distance has bit k set
  rotates by 2^k. That distance sums the steps its entries still take in
  the network, so the tree runs on the network's own keys and adds none.
  collapse_levels derives these masks once, the top's per node and
  pre-rotation and the bottom's per source node and distance, and keeps them
  on the collapsed network; evaluate_network only applies them.

evaluate_network releases each node's output once the last node reading it
through an edge has read it (a collapsed bottom reads levels cut - 1 and cut
again at the end), so a run holds a few levels of vectors, not the whole
network. Masked products hold only the values on their support, a few
percent of n. The products feeding a node, the collapsed bottom's buckets
and the final terms are each added in one pass (SlotVector.sum). Sums of
products, and their rotations and rescales, stay in that sparse form until
their support passes slots.MAX_SPARSE_SHARE of n; then they are stored
dense. The cost model's replay runs on SlotVector.zeros, so every vector of
it holds no values at all.

Rescales are merged into rotations: every non-bottom rotation node rescales
its summed input before rotating, bottom rotation nodes do not, and the final
summation is handed back unrescaled for the consumer to fold into its next
operation. This keeps the consumed depth at most log n - 1 for every
permutation.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import asdict, dataclass

from .ledger import CostLedger
from .slots import Permutation, PositionMask, SlotVector


class Node:
    __slots__ = ("idx", "kind", "group", "level", "step", "occ")

    def __init__(self, idx, kind, group, level, step=0):
        self.idx = idx
        self.kind = kind  # "rotation" | "standby"
        self.group = group
        self.level = level
        self.step = step
        self.occ = {}  # input position -> entry index


class Edge:
    __slots__ = ("src", "dst", "mask")

    def __init__(self, src: int, dst: int, mask: PositionMask | None):
        self.src = src
        self.dst = dst
        # a mask shared between networks and never changed; None for a copy
        self.mask = mask


@dataclass(frozen=True)
class CollapseSpec:
    top: int
    bottom: int


class MultiGroupNetwork:
    def __init__(self, targets: tuple[int, ...]):
        self.n = len(targets)
        self.nodes: list[Node] = []
        self.edges: dict[tuple[int, int], Edge] = {}
        self.out_edges: dict[int, list[Edge]] = {}
        self.in_edges: dict[int, list[Edge]] = {}
        self.group_spans: list[tuple[int, int]] = []  # (start level, bottom)
        self.targets = targets  # of the routed permutation
        self.reduced = False
        # node narrowed by reduce_masks -> the parent re-feeding its entries
        self.filtered: dict[int, int] = {}
        self.collapse: CollapseSpec | None = None
        # masks of the collapse, derived by collapse_levels: the collapsed
        # top's (node, final) -> [(pre-rotation r, mask)] by r, and the
        # bottom's [(source node, remaining distance r, mask)] by (src, r)
        self.top_masks: dict[tuple[int, bool],
                             list[tuple[int, PositionMask]]] = {}
        self.bottom_masks: list[tuple[int, int, PositionMask]] = []

    def add_node(self, kind, group, level, step=0) -> Node:
        node = Node(len(self.nodes), kind, group, level, step)
        self.nodes.append(node)
        self.out_edges[node.idx] = []
        self.in_edges[node.idx] = []
        return node

    def add_edge(self, src: int, dst: int, mask: PositionMask | None) -> Edge:
        e = Edge(src, dst, mask)
        self.edges[(src, dst)] = e
        self.out_edges[src].append(e)
        self.in_edges[dst].append(e)
        return e

    def drop_edge(self, e: Edge):
        del self.edges[(e.src, e.dst)]
        self.out_edges[e.src].remove(e)
        self.in_edges[e.dst].remove(e)

    def rewire_source(self, e: Edge, new_src: int):
        del self.edges[(e.src, e.dst)]
        self.out_edges[e.src].remove(e)
        e.src = new_src
        self.edges[(e.src, e.dst)] = e
        self.out_edges[new_src].append(e)

    @property
    def max_level(self) -> int:
        return max((nd.level for nd in self.nodes), default=0)

    @property
    def cut(self) -> int:
        """Deepest level evaluated node by node; a collapsed bottom replaces
        the levels below it."""
        bottom = self.collapse.bottom if self.collapse else 0
        return self.max_level - bottom

    def held(self, node: Node) -> list[tuple[int, int]]:
        """(input position, entry) pairs on the node's input, by position; a
        node narrowed by reduce_masks keeps those of its remaining feed."""
        items = sorted(node.occ.items())
        if node.idx in self.filtered:
            feed = self.edges.get((self.filtered[node.idx], node.idx))
            keep = set(feed.mask.positions) if feed else set()
            items = [(p, ei) for p, ei in items if p in keep]
        return items

    def rotation_nodes(self) -> list[Node]:
        return [nd for nd in self.nodes if nd.kind == "rotation"]

    def evaluate(self, v: SlotVector) -> SlotVector:
        """evaluate_network(self, v), looked up as a module global so that a
        tracer rebinding it sees every network run."""
        return evaluate_network(self, v)

    def to_json(self) -> dict:
        """The graph, plus the collapse spec when one is set: a report form
        (no routing state), not a file to rebuild the network from."""
        groups = []
        for g, (start, bottom) in enumerate(self.group_spans):
            levels = []
            for lv in range(start, bottom + 1):
                nodes = []
                for nd in self.nodes:
                    if nd.group != g or nd.level != lv:
                        continue
                    edges = []
                    for e in self.out_edges[nd.idx]:
                        if e.mask is None:
                            edges.append({"to": e.dst, "copy": True})
                        else:
                            edges.append({"to": e.dst,
                                          "mask": sorted(e.mask.positions)})
                    item = {"id": nd.idx, "kind": nd.kind, "edges": edges}
                    if nd.kind == "rotation":
                        item["step"] = nd.step
                    nodes.append(item)
                levels.append({"nodes": nodes})
            groups.append({"levels": levels, "start": start})
        obj = {"n": self.n, "reduced": self.reduced, "groups": groups}
        if self.collapse:
            obj["collapse"] = asdict(self.collapse)
        return obj


def build_network(p: Permutation) -> MultiGroupNetwork:
    """Route every entry of p through grouped power-of-two rotation levels."""
    n, targets = p.n, p.targets
    net = MultiGroupNetwork(targets)
    net.add_node("standby", group=0, level=0).occ = {i: i for i in range(n)}
    # per entry: its current node, its position on that node's output and
    # the distance it still has to go from there
    at = [0] * n
    pos = list(range(n))
    rem = [(i - t) % n for i, t in enumerate(targets)]

    unsolved = list(range(n))
    g = 0
    while unsolved:
        # entries of this group not yet home; the group ends when none is
        away = sum(rem[ei] > 0 for ei in unsolved)
        if not away:
            break  # nothing left to rotate: entries are already home
        by_level: dict[int, list[int]] = {}
        for ei in unsolved:
            by_level.setdefault(net.nodes[at[ei]].level, []).append(ei)
        start = min(by_level)
        deferred = []
        while True:
            lvl = min(by_level)
            active = sorted(by_level.pop(lvl))
            rot_max = max(map(rem.__getitem__, active))
            rot = 1 << (rot_max.bit_length() - 1) if rot_max else 0
            # with nothing to rotate (rot == 0) every entry stands by: no
            # distance reaches n
            least = rot or n
            rot_node = rot_occ = None
            cols = {}  # source node -> standby column at lvl+1
            rot_masks = {}  # source node -> its positions into rot_node
            # (source, destination, positions) per edge, by first use; a
            # column's positions are the keys of its occupancy
            masks = []
            deferred_before = len(deferred)
            for ei in active:
                src = at[ei]
                q = pos[ei]
                r = rem[ei]
                if r >= least:
                    away -= 1
                    if rot_node is None:
                        rot_node = net.add_node("rotation", g, lvl + 1,
                                                step=rot)
                        rot_occ = rot_node.occ
                    if q in rot_occ:
                        deferred.append(ei)
                        continue
                    rot_occ[q] = ei
                    dst = rot_node.idx
                    ps = rot_masks.get(src)
                    if ps is None:
                        ps = rot_masks[src] = []
                        masks.append((src, dst, ps))
                    ps.append(q)
                    pos[ei] = (q - rot) % n
                    rem[ei] = r = r - rot
                    away += r > 0
                else:
                    col = cols.get(src)
                    if col is None:
                        # one column per source node keeps positions disjoint
                        col = cols[src] = net.add_node("standby", g, lvl + 1)
                        masks.append((src, col.idx, col.occ))
                    assert q not in col.occ, "standby slot collision"
                    col.occ[q] = ei
                    dst = col.idx
                at[ei] = dst
            for src, dst, ps in masks:
                net.add_edge(src, dst, PositionMask(n, ps))
            if len(deferred) > deferred_before:
                skip = set(deferred[deferred_before:])
                moved = [ei for ei in active if ei not in skip]
            else:
                moved = active
            if moved:
                by_level.setdefault(lvl + 1, []).extend(moved)
            if not away:
                net.group_spans.append((start, lvl + 1 if moved else lvl))
                break
        unsolved = deferred
        g += 1
    return net


def _clone(net: MultiGroupNetwork) -> MultiGroupNetwork:
    """The graph of net with fresh edges sharing its masks, uncollapsed."""
    out = MultiGroupNetwork(net.targets)
    for nd in net.nodes:
        out.add_node(nd.kind, nd.group, nd.level, nd.step).occ = nd.occ
    for e in net.edges.values():
        out.add_edge(e.src, e.dst, e.mask)
    out.group_spans = list(net.group_spans)
    out.reduced = net.reduced
    out.filtered = dict(net.filtered)
    return out


def reduce_masks(net: MultiGroupNetwork) -> MultiGroupNetwork:
    """Turn standby-chain masks into copies, keeping one masked hop per
    column just above each group's bottom. An already reduced network is
    returned as it is: nothing is left to turn into copies.

    Copies let entries that already left the column ride along as stale
    values; because a column's positions never collide, those are harmless
    until the kept mask filters them out. The kept mask is narrowed to the
    entries that stay put across the final hop, and the edges of entries
    that still rotate (or defer) at the bottom are re-fed from the column's
    parent, where the same values sit at the same positions, so nothing is
    counted twice. The narrowed feed takes over the final hop's mask object;
    no mask is copied or changed. A collapsed network keeps its collapse,
    derived again on the reduced graph.
    """
    if net.reduced:
        return net
    out = _clone(net)
    for g, (start, bottom) in enumerate(out.group_spans):
        for nd in list(out.nodes):
            if nd.group != g or nd.kind != "standby":
                continue
            if nd.level <= bottom - 2:
                for e in out.in_edges[nd.idx]:
                    if out.nodes[e.src].group == g and e.mask is not None:
                        e.mask = None
            elif nd.level == bottom - 1:
                feeds = [e for e in out.in_edges[nd.idx] if e.mask is not None]
                if len(feeds) != 1:
                    continue  # origin node, nothing upstream to narrow
                feed = feeds[0]
                stay = None
                for e in list(out.out_edges[nd.idx]):
                    dstn = out.nodes[e.dst]
                    if dstn.group == g and dstn.kind == "standby":
                        stay = e
                    else:
                        # bottom rotation or cross-group exit: source the
                        # entries one level up, where they also sit
                        out.rewire_source(e, feed.src)
                out.filtered[nd.idx] = feed.src
                if stay is None or not stay.mask.positions:
                    # whole column moved on; prune the dead tail
                    if stay is not None:
                        out.drop_edge(stay)
                    out.drop_edge(feed)
                else:
                    feed.mask, stay.mask = stay.mask, None
    out.reduced = True
    cs = net.collapse
    return collapse_levels(out, cs.top, cs.bottom) if cs else out


def collapse_levels(net: MultiGroupNetwork, top: int = 0, bottom: int = 0
                    ) -> MultiGroupNetwork:
    """Collapse the top `top` and the bottom `bottom` levels of net: a copy
    sharing its nodes and edges, with the collapse spec and, derived here
    once, the masks evaluate_network applies in place of those levels."""
    if top < 0 or bottom < 0:
        raise ValueError("collapse counts must be nonnegative")
    if top == 0 and bottom == 0:
        return net
    lmax = net.max_level
    if top + bottom >= lmax:
        raise ValueError(f"cannot collapse {top}+{bottom} of {lmax} levels")
    out = copy.copy(net)  # a collapse changes no node or edge
    out.collapse = CollapseSpec(top, bottom)
    n, nodes, cut = out.n, out.nodes, out.cut

    # the bottom: the values still in flight at the cut, bucketed by source
    # node and remaining distance (entries that finished above the cut are
    # direct terms)
    groups = {}
    if bottom:
        for nd in nodes:
            if nd.level != cut:
                continue
            kept = {p for p, _ in out.held(nd)}
            for p, ei in nd.occ.items():
                # re-fed entries sit at the same position one level up
                src = nd.idx if p in kept else out.filtered[nd.idx]
                q = (p - nd.step) % n
                r = (q - out.targets[ei]) % n
                groups.setdefault((src, r), []).append(q)
    out.bottom_masks = [(src, r, PositionMask(n, ps))
                        for (src, r), ps in sorted(groups.items())]

    # the top: the input of each node on level top + 1, and the output of
    # each node above it that evaluation reads (a group's last node, a
    # re-fed edge's source, a bucket's source), as masked pre-rotations
    def rebuilt(node, final):
        by_r = {}
        for p, ei in out.held(node):
            q = (p - node.step) % n if final else p
            by_r.setdefault((ei - q) % n, []).append(q)
        return [(r, PositionMask(n, by_r[r])) for r in sorted(by_r)]

    out.top_masks = {}
    if top:
        read = {e.src for e in out.edges.values()
                if top + 1 < nodes[e.dst].level <= cut}
        read.update(src for src, _, _ in out.bottom_masks)
        for nd in nodes:
            if nd.level == top + 1:
                out.top_masks[nd.idx, False] = rebuilt(nd, False)
            elif nd.level <= top and (nd.idx in read
                                      or not out.out_edges[nd.idx]):
                out.top_masks[nd.idx, True] = rebuilt(nd, True)
    return out


def evaluate_network(net: MultiGroupNetwork, v: SlotVector) -> SlotVector:
    if v.n != net.n:
        raise ValueError(f"vector length {v.n} != network length {net.n}")
    bottoms = {g: b for g, (_, b) in enumerate(net.group_spans)}
    cs = net.collapse
    t = cs.top if cs else 0
    cut = net.cut

    rotants = {0: v}

    def rotant(r):
        # chain each new rotant off a previous one using power-of-two keys
        if r not in rotants:
            low = 1 << (r.bit_length() - 1)
            rotants[r] = rotant(r - low).rotate(low, "net.collapse.top")
        return rotants[r]

    def rebuilt(idx, final=False) -> SlotVector:
        """A node's input (or, with final, its output) from masked
        pre-rotations of v."""
        parts = [rotant(r).cmult(mask, "net.collapse.top")
                 for r, mask in net.top_masks[idx, final]]
        return SlotVector.sum(parts) if parts else v.zeros_like()

    def output(idx) -> SlotVector:
        """A node's output; a node inside the collapsed top keeps none, so
        its output is rebuilt. A released output raises KeyError."""
        return rebuilt(idx, final=True) if t and net.nodes[idx].level <= t \
            else outputs[idx]

    # a node's output is dropped once the last node reading it through an
    # edge has. A collapsed bottom reads levels cut - 1 and cut after the
    # loop; no node in the loop reads level cut, so only cut - 1 is held.
    first = t + 1 if t else 0
    reads = Counter(e.src for e in net.edges.values()
                    if first < net.nodes[e.dst].level <= cut)
    held = cut - 1 if cs and cs.bottom else None
    outputs = {}
    terms = []
    order = sorted(net.nodes, key=lambda nd: (nd.level, nd.group, nd.idx))
    for nd in order:
        if nd.level > cut:
            continue
        if t and nd.level <= t:
            # interior of the collapsed top; groups that finish inside it
            # contribute their final values directly
            if not net.out_edges[nd.idx] and net.top_masks[nd.idx, True]:
                terms.append(rebuilt(nd.idx, final=True))
            continue
        tag = f"net.g{nd.group}.l{nd.level}"
        if t and nd.level == t + 1:
            inp = rebuilt(nd.idx)
        else:
            ine = net.in_edges[nd.idx]
            if not ine:
                outputs[nd.idx] = v if nd.level == 0 else v.zeros_like()
                if nd.level == 0 and not net.out_edges[nd.idx] \
                        and nd.level < cut:
                    terms.append(v)
                continue
            parts = []
            for e in ine:
                # a re-fed edge may start inside the collapsed top
                src = output(e.src)
                parts.append(src if e.mask is None else src.cmult(e.mask, tag))
                reads[e.src] -= 1
                if not reads[e.src] and net.nodes[e.src].level != held:
                    outputs.pop(e.src, None)
            inp = SlotVector.sum(parts)
        if nd.kind == "rotation":
            if nd.level < bottoms.get(nd.group, nd.level):
                inp = inp.rescale(tag)
            inp = inp.rotate(nd.step, tag)
        outputs[nd.idx] = inp
        if not net.out_edges[nd.idx] and nd.level < cut:
            terms.append(inp)

    if cs and cs.bottom:
        by_r = {}
        for src, r, mask in net.bottom_masks:
            by_r.setdefault(r, []).append(
                output(src).cmult(mask, "net.collapse.bot"))
        buckets = {r: SlotVector.sum(ps).rescale("net.collapse.bot")
                   for r, ps in by_r.items()}
        # merge lowest bit first: a bucket whose distance has the bit set
        # rotates by it and joins the bucket without it
        bit = 1
        while buckets and set(buckets) != {0}:
            by_r = {}
            for r, vec in sorted(buckets.items()):
                if r & bit:
                    vec = vec.rotate(bit, "net.collapse.bot")
                    r -= bit
                by_r.setdefault(r, []).append(vec)
            buckets = {r: SlotVector.sum(ps) for r, ps in by_r.items()}
            bit <<= 1
        if buckets:
            terms.append(buckets[0])
    else:
        for nd in order:
            if nd.level == cut and not net.out_edges[nd.idx] \
                    and nd.idx in outputs:
                terms.append(outputs[nd.idx])
    return SlotVector.sum(terms)


def rotation_profile(net: MultiGroupNetwork, led: CostLedger
                     ) -> dict[int, int]:
    """Executed rotations per schedule level, reduced from the CostLedger of
    one evaluate_network run of net.

    The schedule level comes from each rotation's tag: net.g{g}.l{lv} sits on
    level lv, the collapsed top's pre-rotations on level 1 and the collapsed
    bottom's digit tree on the level just below the cut.
    """
    collapsed = {"net.collapse.top": 1, "net.collapse.bot": net.cut + 1}
    per_level = Counter(
        collapsed.get(op.tag) or int(op.tag.rpartition(".l")[2])
        for op in led.rotations)
    return dict(sorted(per_level.items()))
