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

Edges carry 0/1 masks selecting the entries they transmit. Two cost
optimizations operate on a built network:

- reduce_masks replaces standby-chain masks with free copies, keeping one
  masked hop per column right above the bottom. Copies let stale values ride
  along; the kept masks are narrowed to the entries that stay put for the
  final hop, and entries that still rotate (or defer) at the bottom are re-fed
  from one level higher, so the evaluation stays bit-exact.
- collapse_levels flattens the top t levels into masked pre-rotations of the
  input and the bottom b levels into masked buckets keyed by remaining
  distance, recombined along an m-ary digit tree whose keys are shared across
  buckets.

evaluate_network releases each node's output once the last node reading it
through an edge has read it (a collapsed bottom reads levels cut - 1 and cut
again at the end), so a run holds a few levels of vectors, not the whole
network. Edge masks go to SlotVector.cmult as position sets, so a product
holds only the values on its support, a few percent of n. Sums of products,
and their rotations and rescales, stay in that sparse form until their
support passes slots.MAX_SPARSE_SHARE of n; then they are stored dense. The
cost model's replay runs on SlotVector.zeros, so every vector of it holds no
values at all.

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

    def __init__(self, src: int, dst: int, mask=None):
        self.src = src
        self.dst = dst
        self.mask = mask  # set of positions, or None for a copy


@dataclass(frozen=True)
class CollapseSpec:
    top: int
    bottom: int
    arity: int = 4


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

    def add_node(self, kind, group, level, step=0) -> Node:
        node = Node(len(self.nodes), kind, group, level, step)
        self.nodes.append(node)
        self.out_edges[node.idx] = []
        self.in_edges[node.idx] = []
        return node

    def edge(self, src: int, dst: int) -> Edge:
        e = self.edges.get((src, dst))
        if e is None:
            e = Edge(src, dst, set())
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
            items = [(p, ei) for p, ei in items if feed and p in feed.mask]
        return items

    def rotation_nodes(self) -> list[Node]:
        return [nd for nd in self.nodes if nd.kind == "rotation"]

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
                            edges.append({"to": e.dst, "mask": sorted(e.mask)})
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
    # per entry: its current node and its position on that node's output
    at = [0] * n
    pos = list(range(n))

    unsolved = list(range(n))
    g = 0
    while unsolved:
        if all(pos[ei] == targets[ei] for ei in unsolved):
            break  # nothing left to rotate: entries are already home
        by_level: dict[int, list[int]] = {}
        for ei in unsolved:
            by_level.setdefault(net.nodes[at[ei]].level, []).append(ei)
        start = min(by_level)
        deferred = []
        while True:
            lvl = min(by_level)
            active = sorted(by_level.pop(lvl))
            rot_max = max((pos[ei] - targets[ei]) % n for ei in active)
            rot = 1 << (rot_max.bit_length() - 1) if rot_max else 0
            rot_node = None
            col_map = {}  # source node -> standby column node at lvl+1
            moved = []
            for ei in active:
                src = at[ei]
                q = pos[ei]
                if rot and (q - targets[ei]) % n >= rot:
                    if rot_node is None:
                        rot_node = net.add_node("rotation", g, lvl + 1, step=rot)
                    if q in rot_node.occ:
                        deferred.append(ei)
                        continue
                    rot_node.occ[q] = ei
                    net.edge(src, rot_node.idx).mask.add(q)
                    at[ei] = rot_node.idx
                    pos[ei] = (q - rot) % n
                else:
                    dst = col_map.get(src)
                    if dst is None:
                        # one column per source node keeps positions disjoint
                        dst = net.add_node("standby", g, lvl + 1)
                        col_map[src] = dst
                    assert q not in dst.occ, "standby slot collision"
                    dst.occ[q] = ei
                    net.edge(src, dst.idx).mask.add(q)
                    at[ei] = dst.idx
                moved.append(ei)
            if moved:
                by_level.setdefault(lvl + 1, []).extend(moved)
            if all(pos[ei] == targets[ei]
                   for lst in by_level.values() for ei in lst):
                net.group_spans.append((start, lvl + 1 if moved else lvl))
                break
        unsolved = deferred
        g += 1
    return net


def _clone(net: MultiGroupNetwork) -> MultiGroupNetwork:
    out = MultiGroupNetwork(net.targets)
    for nd in net.nodes:
        out.add_node(nd.kind, nd.group, nd.level, nd.step).occ = nd.occ
    for e in net.edges.values():
        out.edge(e.src, e.dst).mask = None if e.mask is None else set(e.mask)
    out.group_spans = list(net.group_spans)
    out.reduced = net.reduced
    out.filtered = dict(net.filtered)
    out.collapse = net.collapse
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
    counted twice.
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
                feed.mask = set(stay.mask) if stay is not None else set()
                out.filtered[nd.idx] = feed.src
                if stay is not None:
                    stay.mask = None
                if not feed.mask:
                    # whole column moved on; prune the dead tail
                    if stay is not None:
                        out.drop_edge(stay)
                    out.drop_edge(feed)
    out.reduced = True
    return out


def collapse_levels(net: MultiGroupNetwork, top: int = 0, bottom: int = 0,
                    arity: int = 4) -> MultiGroupNetwork:
    """Attach a collapse descriptor; evaluate_network interprets it."""
    if top < 0 or bottom < 0:
        raise ValueError("collapse counts must be nonnegative")
    if arity < 2 or arity & (arity - 1):
        raise ValueError("tree arity must be a power of two >= 2")
    if top == 0 and bottom == 0:
        return net
    lmax = net.max_level
    if top + bottom >= lmax:
        raise ValueError(f"cannot collapse {top}+{bottom} of {lmax} levels")
    out = copy.copy(net)  # a collapse changes no node or edge
    out.collapse = CollapseSpec(top, bottom, arity)
    return out


def _masked(v: SlotVector, positions, tag) -> SlotVector:
    return v.cmult(PositionMask(v.n, positions), tag)


def evaluate_network(net: MultiGroupNetwork, v: SlotVector) -> SlotVector:
    if v.n != net.n:
        raise ValueError(f"vector length {v.n} != network length {net.n}")
    n = net.n
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

    def rebuilt(node, final=False) -> SlotVector:
        """Recreate a node's input (or, with final, its output) from masked
        pre-rotations of v."""
        by_r = {}
        for p, ei in net.held(node):
            q = (p - node.step) % n if final else p
            by_r.setdefault((ei - q) % n, []).append(q)
        acc = None
        for r in sorted(by_r):
            part = _masked(rotant(r), by_r[r], "net.collapse.top")
            acc = part if acc is None else acc + part
        return acc if acc is not None else v.zeros_like()

    def output(idx) -> SlotVector:
        """A node's output; a node inside the collapsed top keeps none, so
        its output is rebuilt. A released output raises KeyError."""
        node = net.nodes[idx]
        return rebuilt(node, final=True) if t and node.level <= t \
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
            if not net.out_edges[nd.idx] and net.held(nd):
                terms.append(rebuilt(nd, final=True))
            continue
        tag = f"net.g{nd.group}.l{nd.level}"
        if t and nd.level == t + 1:
            inp = rebuilt(nd)
        else:
            ine = net.in_edges[nd.idx]
            if not ine:
                outputs[nd.idx] = v if nd.level == 0 else v.zeros_like()
                if nd.level == 0 and not net.out_edges[nd.idx] \
                        and nd.level < cut:
                    terms.append(v)
                continue
            inp = None
            for e in ine:
                # a re-fed edge may start inside the collapsed top
                src = output(e.src)
                part = src if e.mask is None else _masked(src, e.mask, tag)
                inp = part if inp is None else inp + part
                reads[e.src] -= 1
                if not reads[e.src] and net.nodes[e.src].level != held:
                    outputs.pop(e.src, None)
        if nd.kind == "rotation":
            if nd.level < bottoms.get(nd.group, nd.level):
                inp = inp.rescale(tag)
            inp = inp.rotate(nd.step, tag)
        outputs[nd.idx] = inp
        if not net.out_edges[nd.idx] and nd.level < cut:
            terms.append(inp)

    if cs and cs.bottom:
        # bucket the values still in flight at the cut by remaining distance
        # (entries that finished above it are already direct terms)
        groups = {}
        for nd in net.nodes:
            if nd.level != cut:
                continue
            kept = {p for p, _ in net.held(nd)}
            for p, ei in nd.occ.items():
                # re-fed entries sit at the same position one level up
                src = nd.idx if p in kept else net.filtered[nd.idx]
                q = (p - nd.step) % n
                r = (q - net.targets[ei]) % n
                groups.setdefault((src, r), []).append(q)
        buckets = {}
        for (src, r), ps in sorted(groups.items()):
            part = _masked(output(src), ps, "net.collapse.bot")
            buckets[r] = buckets[r] + part if r in buckets else part
        buckets = {r: vec.rescale("net.collapse.bot")
                   for r, vec in buckets.items()}
        m = cs.arity
        scale = 1
        while buckets and set(buckets) != {0}:
            merged = {}
            for r, vec in sorted(buckets.items()):
                d = (r // scale) % m
                if d:
                    vec = vec.rotate(d * scale, "net.collapse.bot")
                r2 = r - d * scale
                merged[r2] = merged[r2] + vec if r2 in merged else vec
            buckets = merged
            scale *= m
        if buckets:
            terms.append(buckets[0])
    else:
        for nd in order:
            if nd.level == cut and not net.out_edges[nd.idx] \
                    and nd.idx in outputs:
                terms.append(outputs[nd.idx])

    out = terms[0]
    for part in terms[1:]:
        out = out + part
    return out


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
