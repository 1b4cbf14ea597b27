"""Rotation networks for arbitrary slot permutations.

Any permutation can be evaluated by routing each entry through a cascade of
power-of-two left rotations that sum to its required displacement. The network
tracks, per entry, the remaining rotation distance r_rem, initialized to
r_org = (i - targets[i]) mod n, and builds levels top-down: each level picks
rot = the largest power of two not above the maximum r_rem present, entries
with r_rem >= rot enter that level's rotation node, the rest ride standby
columns unchanged. Slot conflicts inside a rotation node defer the newcomer
to the next group, so the network grows a small number of vertical groups
whose bottom outputs sum to the permuted vector. Every entry ends up applying
exactly the binary decomposition of its r_org.

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

Rescales are merged into rotations: every non-bottom rotation node rescales
its summed input before rotating, bottom rotation nodes do not, and the final
summation is handed back unrescaled for the consumer to fold into its next
operation. This keeps the consumed depth at most log n - 1 for every
permutation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass

from .ledger import CostLedger
from .slots import Permutation, SlotVector

UNSOLVED = "unsolved"
DEFERRED = "deferred"
SOLVED = "solved"


class Entry:
    """Routing state of one vector entry during construction."""

    __slots__ = ("i", "r_org", "r_rem", "tag", "node", "levels", "traveled",
                 "trace")

    def __init__(self, i: int, r_org: int):
        self.i = i
        self.r_org = r_org
        self.r_rem = r_org
        self.tag = UNSOLVED
        self.node = 0
        self.levels = []  # levels of the rotations applied, ascending
        self.traveled = [0]  # traveled[k]: distance of the first k rotations
        self.trace = [0]  # node index per level, 0 .. final bottom

    def pos(self, n: int) -> int:
        return (self.i - (self.r_org - self.r_rem)) % n

    def rotate(self, level: int, step: int) -> None:
        self.levels.append(level)
        self.traveled.append(self.traveled[-1] + step)
        self.r_rem -= step

    def r_rem_at(self, level: int) -> int:
        """Remaining distance after the rotations at levels <= level."""
        return self.r_org - self.traveled[bisect_right(self.levels, level)]

    def pos_at(self, level: int, n: int) -> int:
        return (self.i - (self.r_org - self.r_rem_at(level))) % n


class Node:
    __slots__ = ("idx", "kind", "group", "level", "step", "occ")

    def __init__(self, idx, kind, group, level, step=0):
        self.idx = idx
        self.kind = kind  # "rotation" | "standby"
        self.group = group
        self.level = level
        self.step = step
        self.occ = {}  # slot position -> entry index (live set)


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


@dataclass
class RotationProfile:
    per_level: dict
    key_set: set
    total: int


class MultiGroupNetwork:
    def __init__(self, n: int):
        self.n = n
        self.nodes: list[Node] = []
        self.edges: dict[tuple[int, int], Edge] = {}
        self.out_edges: dict[int, list[Edge]] = {}
        self.in_edges: dict[int, list[Edge]] = {}
        self.group_spans: list[tuple[int, int]] = []  # (start level, bottom)
        self.entries: list[Entry] = []
        self.reduced = False
        self.filtered: set[int] = set()  # nodes narrowed by reduce_masks
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

    def rotation_nodes(self) -> list[Node]:
        return [nd for nd in self.nodes if nd.kind == "rotation"]

    # -- serialization (graph, plus the collapse spec when one is set) ----

    def to_json(self) -> dict:
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

    @classmethod
    def from_json(cls, obj: dict) -> "MultiGroupNetwork":
        if "collapse" in obj:
            raise ValueError("cannot load a collapsed network: its JSON "
                             "carries the collapse spec but not the routing "
                             "state that evaluates it")
        net = cls(_json_int(obj["n"], "n"))
        net.reduced = obj.get("reduced", False)
        raw = []
        for g, grp in enumerate(obj["groups"]):
            start = _json_int(grp["start"], f"group {g} start")
            net.group_spans.append((start, start + len(grp["levels"]) - 1))
            for off, lvl in enumerate(grp["levels"]):
                for nd in lvl["nodes"]:
                    raw.append((nd, g, start + off))
        for nd, _, _ in raw:
            _json_int(nd["id"], "node id")
        raw.sort(key=lambda t: t[0]["id"])
        for nd, g, lv in raw:
            step = 0
            if nd["kind"] == "rotation":
                step = _json_int(nd.get("step"), f"node {nd['id']} step")
            elif nd["kind"] != "standby":
                raise ValueError(f"node {nd['id']} has kind {nd['kind']!r}, "
                                 f"not 'rotation' or 'standby'")
            node = net.add_node(nd["kind"], g, lv, step=step)
            if node.idx != nd["id"]:
                raise ValueError(f"network node ids must run 0..{len(raw) - 1} "
                                 f"without gaps; found id {nd['id']} at "
                                 f"position {node.idx}")
        for nd, _, _ in raw:
            for e in nd["edges"]:
                to = _json_int(e["to"], f"edge target of node {nd['id']}")
                if not 0 <= to < len(raw):
                    raise ValueError(f"edge from node {nd['id']} to unknown "
                                     f"node {to}")
                mask = None if e.get("copy") else {
                    _json_int(p, f"mask slot of edge {nd['id']}->{to}")
                    for p in e["mask"]}
                bad = sorted(p for p in mask or () if not 0 <= p < net.n)
                if bad:
                    raise ValueError(f"edge {nd['id']}->{to} masks slot "
                                     f"{bad[0]}, outside 0..{net.n - 1}")
                net.edge(nd["id"], to).mask = mask
        return net

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def build_network(p: Permutation) -> MultiGroupNetwork:
    """Route every entry of p through grouped power-of-two rotation levels."""
    n = p.n
    net = MultiGroupNetwork(n)
    origin = net.add_node("standby", group=0, level=0)
    entries = [Entry(i, (i - t) % n) for i, t in enumerate(p.targets)]
    net.entries = entries
    origin.occ = {i: i for i in range(n)}

    unsolved = list(range(n))
    g = 0
    while unsolved:
        if all(entries[ei].r_rem == 0 for ei in unsolved):
            # nothing left to rotate: no nodes, entries are already home
            for ei in unsolved:
                entries[ei].tag = SOLVED
            break
        by_level: dict[int, list[int]] = {}
        for ei in unsolved:
            by_level.setdefault(net.nodes[entries[ei].node].level, []).append(ei)
        start = min(by_level)
        deferred = []
        while True:
            lvl = min(by_level)
            active = sorted(by_level.pop(lvl))
            rot_max = max(entries[ei].r_rem for ei in active)
            rot = 1 << (rot_max.bit_length() - 1) if rot_max else 0
            rot_node = None
            col_map = {}  # source node -> standby column node at lvl+1
            moved = []
            for ei in active:
                e = entries[ei]
                src = net.nodes[e.node]
                pos = e.pos(n)
                if rot and e.r_rem >= rot:
                    if rot_node is None:
                        rot_node = net.add_node("rotation", g, lvl + 1, step=rot)
                    if pos in rot_node.occ:
                        e.tag = DEFERRED
                        deferred.append(ei)
                        continue
                    rot_node.occ[pos] = ei
                    net.edge(src.idx, rot_node.idx).mask.add(pos)
                    e.rotate(lvl + 1, rot)
                    e.node = rot_node.idx
                else:
                    dst = col_map.get(src.idx)
                    if dst is None:
                        # one column per source node keeps positions disjoint
                        dst = net.add_node("standby", g, lvl + 1)
                        col_map[src.idx] = dst
                    assert pos not in dst.occ, "standby slot collision"
                    dst.occ[pos] = ei
                    net.edge(src.idx, dst.idx).mask.add(pos)
                    e.node = dst.idx
                e.trace.append(e.node)
                moved.append(ei)
            if moved:
                by_level.setdefault(lvl + 1, []).extend(moved)
            remaining = [ei for lst in by_level.values() for ei in lst]
            if all(entries[ei].r_rem == 0 for ei in remaining):
                for ei in remaining:
                    entries[ei].tag = SOLVED
                net.group_spans.append((start, lvl + 1 if moved else lvl))
                break
        for ei in deferred:
            entries[ei].tag = UNSOLVED
        unsolved = deferred
        g += 1
    return net


def _clone(net: MultiGroupNetwork) -> MultiGroupNetwork:
    out = MultiGroupNetwork(net.n)
    for nd in net.nodes:
        c = out.add_node(nd.kind, nd.group, nd.level, nd.step)
        c.occ = dict(nd.occ)
    for e in net.edges.values():
        out.edge(e.src, e.dst).mask = None if e.mask is None else set(e.mask)
    out.group_spans = list(net.group_spans)
    out.entries = net.entries
    out.reduced = net.reduced
    out.filtered = set(net.filtered)
    out.collapse = net.collapse
    return out


def reduce_masks(net: MultiGroupNetwork) -> MultiGroupNetwork:
    """Turn standby-chain masks into copies, keeping one masked hop per
    column just above each group's bottom.

    Copies let entries that already left the column ride along as stale
    values; because a column's positions never collide, those are harmless
    until the kept mask filters them out. The kept mask is narrowed to the
    entries that stay put across the final hop, and the edges of entries
    that still rotate (or defer) at the bottom are re-fed from the column's
    parent, where the same values sit at the same positions, so nothing is
    counted twice.
    """
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
                nd.occ = {p: ei for p, ei in nd.occ.items() if p in feed.mask}
                out.filtered.add(nd.idx)
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
    if top == 0 and bottom == 0:
        return net
    if top < 0 or bottom < 0:
        raise ValueError("collapse counts must be nonnegative")
    if len(net.entries) != net.n:
        raise ValueError("cannot collapse a network without its routing "
                         "state (JSON keeps only the graph); rebuild it "
                         "from the permutation")
    if arity < 2 or arity & (arity - 1):
        raise ValueError("tree arity must be a power of two >= 2")
    lmax = net.max_level
    if top + bottom >= lmax:
        raise ValueError(f"cannot collapse {top}+{bottom} of {lmax} levels")
    out = _clone(net)
    out.collapse = CollapseSpec(top, bottom, arity)
    return out


def _masked(v: SlotVector, positions, tag) -> SlotVector:
    m = [0] * v.n
    for p in positions:
        m[p] = 1
    return v.cmult(m, tag)


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

    def rebuilt(node, final=False) -> SlotVector:
        """Recreate a node's input (or, with final, its output) from masked
        pre-rotations of v."""
        by_r = {}
        for p, ei in sorted(node.occ.items()):
            e = net.entries[ei]
            lvl = node.level if final else node.level - 1
            traveled = e.r_org - e.r_rem_at(lvl)
            by_r.setdefault(traveled, []).append(
                e.pos_at(lvl, net.n) if final else p)
        acc = None
        for r in sorted(by_r):
            part = _masked(rotant(r), by_r[r], "net.collapse.top")
            acc = part if acc is None else acc + part
        return acc if acc is not None else v.zeros_like()

    outputs = {}
    terms = []
    order = sorted(net.nodes, key=lambda nd: (nd.level, nd.group, nd.idx))
    for nd in order:
        if nd.level > cut:
            continue
        if t and nd.level <= t:
            # interior of the collapsed top; groups that finish inside it
            # contribute their final values directly
            if not net.out_edges[nd.idx] and nd.occ:
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
                src = outputs.get(e.src)
                if src is None:
                    # re-fed edge whose source sits in the collapsed top;
                    # it carries the source's output, shifted if a rotation
                    src = rebuilt(net.nodes[e.src], final=True)
                part = src if e.mask is None else _masked(src, e.mask, tag)
                inp = part if inp is None else inp + part
        if nd.kind == "rotation":
            if nd.level < bottoms.get(nd.group, nd.level):
                inp = inp.rescale(tag)
            inp = inp.rotate(nd.step, tag)
        outputs[nd.idx] = inp
        if not net.out_edges[nd.idx] and nd.level < cut:
            terms.append(inp)

    if cs and cs.bottom:
        # bucket the values still in flight at the cut by remaining distance
        groups = {}
        for e in net.entries:
            if len(e.trace) - 1 < cut:
                continue  # finished above the cut, already a direct term
            src = e.trace[cut]
            pos = e.pos_at(cut, net.n)
            if src in net.filtered and pos not in net.nodes[src].occ:
                src = e.trace[cut - 1]  # re-fed entries sit one level up
            r = e.r_rem_at(cut)
            groups.setdefault((src, r), []).append(pos)
        buckets = {}
        for (src, r), ps in sorted(groups.items()):
            base = outputs.get(src)
            if base is None:
                base = rebuilt(net.nodes[src], final=True)
            part = _masked(base, ps, "net.collapse.bot")
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
                     ) -> RotationProfile:
    """Executed rotations per schedule level, plus the key set, reduced from
    the CostLedger of one evaluate_network run of net.

    The schedule level comes from each rotation's tag: net.g{g}.l{lv} sits on
    level lv, the collapsed top's pre-rotations on level 1 and the collapsed
    bottom's digit tree on the level just below the cut.
    """
    collapsed = {"net.collapse.top": 1, "net.collapse.bot": net.cut + 1}
    per_level = Counter(
        collapsed.get(op.tag) or int(op.tag.rpartition(".l")[2])
        for op in led.rotations)
    return RotationProfile(dict(sorted(per_level.items())), led.key_set(),
                           led.rotation_count)
