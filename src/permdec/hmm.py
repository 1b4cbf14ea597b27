"""Batched square-matrix products inside one slot vector.

m pairs of d x d matrices live row-major, one pair per d^2 * d' span, with
the tail of each span deliberately zero. Multiplication is the usual slot
recipe: bring A into column-replicated form and B into row-replicated form,
multiply slotwise, fold the partial products. The redundancy factor d'
splits the two reorder permutations into d/d' column groups. Because the
groups interleave column-wise, both reorders keep the same diagonal strides
for every d' (multiples of d^2-1 for the A side, d(d-1) for the B side) and
run as mask-free doubling ladders of log d' rotations each. Each group is
then masked out and replicated with log d signed doubling steps, and the
d/d' slotwise products are folded across the redundant segments:

    rotations  3 log d' + 2 (d/d') log d     products  d/d'     depth  2

`srep_replicate` is the single-unit replication primitive: one mask, then
log d doubling steps whose directions follow the bits of the unit index, so
copies fill exactly one span and never leak into a neighbor. Layered
replication (factors [f_top, .., f_1, f_0]) shares rotations between
targets: each upper factor is one masked-sum layer over anchored windows,
and f_0 is finished per target by `srep_replicate`. Each masked-sum layer
rescales once, but the final unit mask is never rescaled and shares the
product's rescale, so the simulated depth is 1 + (number of upper factors):
2 for factors (4, 4) and 3 for (2, 2, 4). A real CKKS scheme would spend a
level on that mask. Single-mask replication is the one-factor layered case
(d,), rescaled per unit, so its depth is 2 as well. `hmm_rotation_budget`
counts the rotations of both schemes exactly, from the window definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .slots import PositionMask, SlotVector

Matrix = list[list[int]]


def _log2(x: int, what: str = "value") -> int:
    if x < 1 or x & (x - 1):
        raise ValueError(f"{what} must be a power of two, got {x}")
    return x.bit_length() - 1


@dataclass(frozen=True)
class UnitLayout:
    """units repeated groups of `step` slots: slot p belongs to unit
    (p // step) % units. step=1 is a column comb, step=d a run of rows."""

    units: int
    step: int

    def __post_init__(self):
        _log2(self.units, "units")
        if self.step < 1:
            raise ValueError("step must be positive")

    @property
    def span(self) -> int:
        return self.units * self.step

    def mask(self, n: int, k: int) -> PositionMask:
        return _slab_mask(n, self.step, self.units, k, 1)


def _slab_mask(n: int, step: int, modulus: int, lo: int,
               width: int) -> PositionMask:
    """Units [lo, lo+width) of every period of `modulus` units, where slot p
    is in unit (p // step) % modulus; lo + width must not exceed modulus."""
    positions = []
    for start in range(lo * step, n, modulus * step):
        positions.extend(range(start, min(n, start + width * step)))
    return PositionMask(n, positions)


def srep_replicate(v: SlotVector, k: int, layout: UnitLayout,
                   tag: str = "srep") -> SlotVector:
    """Copy unit k onto every unit of the layout.

    Masks unit k, then doubles coverage log2(units) times. Step j moves
    copies backward when bit j of k is set and forward otherwise, so the
    copies stay inside [0, units) relative to k's own span: nothing ever
    crosses into the neighboring repetition, whatever rides there.
    """
    if not 0 <= k < layout.units:
        raise ValueError("unit index out of range")
    if v.n % layout.span:
        raise ValueError("layout does not tile the vector")
    out = v.cmult(layout.mask(v.n, k), tag=tag)
    for j in range(_log2(layout.units)):
        s = (1 << j) * layout.step
        out = out + out.rotate(s if (k >> j) & 1 else -s, tag=tag)
    return out


# -- configuration and packing ------------------------------------------------


@dataclass(frozen=True)
class HmmConfig:
    """Shape of a batched multiply: m pairs of d x d matrices, redundancy d'.

    A factor tuple [f_top, .., f_1, f_0] selects layered replication (one
    masked-sum layer per upper factor, srep_replicate for the last).
    Measured depth is one level per upper factor plus the product's: the
    final unit mask is not rescaled on its own, although a real CKKS scheme
    would need a level for it. replication=None, a single mask and log d
    doubling steps per column group, is the one-factor layered case (d,),
    rescaled per unit. The vector holds exactly the m packed spans.
    """

    d: int
    d_prime: int
    m: int = 1
    replication: tuple[int, ...] | None = None

    def __post_init__(self):
        _log2(self.d, "d")
        _log2(self.d_prime, "d_prime")
        if self.d % self.d_prime:
            raise ValueError("d_prime must divide d")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.replication is not None:
            object.__setattr__(self, "replication", tuple(self.replication))
            prod = 1
            for f in self.replication:
                _log2(f, "replication factor")
                prod *= f
            if prod != self.d:
                raise ValueError("replication factors must multiply to d")

    @property
    def group_span(self) -> int:
        return self.d * self.d * self.d_prime

    @property
    def data_span(self) -> int:
        return self.d * self.d

    @property
    def vector_size(self) -> int:
        return self.m * self.group_span

    @property
    def groups(self) -> int:
        # column groups per matrix, not the batch count
        return self.d // self.d_prime


def pack_matrices(mats: Sequence[Matrix], cfg: HmmConfig) -> SlotVector:
    """m matrices, each row-major in the head of its d^2*d' span."""
    if len(mats) != cfg.m:
        raise ValueError(f"expected {cfg.m} matrices, got {len(mats)}")
    slots = [0] * cfg.vector_size
    for g, mat in enumerate(mats):
        if len(mat) != cfg.d or any(len(row) != cfg.d for row in mat):
            raise ValueError("matrices must be d x d")
        base = g * cfg.group_span
        for t, row in enumerate(mat):
            for j, val in enumerate(row):
                slots[base + t * cfg.d + j] = val
    return SlotVector.from_list(slots)


def read_products(v: SlotVector, cfg: HmmConfig) -> list[Matrix]:
    """Pull the m result matrices out of the head of each span."""
    out = []
    for g in range(cfg.m):
        base = g * cfg.group_span
        out.append([[v.slots[base + t * cfg.d + c] for c in range(cfg.d)]
                    for t in range(cfg.d)])
    return out


# -- the pipeline -------------------------------------------------------------


def _doubling_spread(v: SlotVector, stride: int, count: int, tag: str) -> SlotVector:
    """Sum of copies shifted forward by {0, stride, .., (count-1)*stride}.

    The packed zero tails guarantee that at the slots read out afterwards
    exactly one copy contributes; the other shifts land on (or wrap into)
    zeros.
    """
    for i in range(1, count.bit_length()):
        v = v + v.rotate(-stride * (count >> i), tag=tag)
    return v


def hmm_evaluate(pa: SlotVector, pb: SlotVector, cfg: HmmConfig) -> SlotVector:
    """Run the multiply and return the collapsed slot vector (depth 2 for
    single-mask replication, 1 + the number of upper replication factors
    for layered replication; see HmmConfig)."""
    d, dp = cfg.d, cfg.d_prime
    va = _doubling_spread(pa, d * d - 1, dp, tag="hmm.a.reorder")
    vb = _doubling_spread(pb, d * (d - 1), dp, tag="hmm.b.reorder")
    cols = UnitLayout(d, 1)
    rows = UnitLayout(d, d)
    units = [k * dp for k in range(cfg.groups)]
    factors = cfg.replication or (d,)
    reps_a = _layered_replicate(va, units, cols, factors, tag="hmm.a.rep")
    reps_b = _layered_replicate(vb, units, rows, factors, tag="hmm.b.rep")
    if cfg.replication is None:
        # a single mask is the one-factor layered case, rescaled per unit
        reps_a = [r.rescale(tag="hmm.a.rep") for r in reps_a]
        reps_b = [r.rescale(tag="hmm.b.rep") for r in reps_b]
    acc = None
    for ta, tb in zip(reps_a, reps_b):
        p = ta.mult(tb, tag="hmm.prod")
        acc = p if acc is None else acc + p
    acc = acc.rescale(tag="hmm.prod")
    for i in range(1, dp.bit_length()):
        acc = acc + acc.rotate(cfg.group_span >> i, tag="hmm.fold")
    return acc


def hmm_multiply(a_mats: Sequence[Matrix], b_mats: Sequence[Matrix],
                 cfg: HmmConfig) -> list[Matrix]:
    """Exact products A_g @ B_g for all m packed pairs."""
    pa = pack_matrices(a_mats, cfg)
    pb = pack_matrices(b_mats, cfg)
    return read_products(hmm_evaluate(pa, pb, cfg), cfg)


def reference_products(a_mats: Sequence[Matrix],
                       b_mats: Sequence[Matrix]) -> list[Matrix]:
    """The same products by plain arithmetic: the oracle for hmm_multiply."""
    return [[[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
             for row in a] for a, b in zip(a_mats, b_mats)]


# -- layered replication ------------------------------------------------------


def _layered_replicate(v: SlotVector, elems: Sequence[int], layout: UnitLayout,
                       factors: Sequence[int], tag: str) -> list[SlotVector]:
    """Replicate each unit in `elems`, sharing rotations between targets.

    Upper factors narrow, layer by layer, which block of source units a
    working vector carries tiled across the whole layout. A target in child
    b of its parent block gathers the parent's shifts by c sub-blocks for c
    in [-b, f - b): the window is anchored at the parent block, so nothing
    crosses a span boundary, and each (parent, shift) pair is rotated once
    for all targets. The last factor is finished per target by
    `srep_replicate` on its block.
    """
    step, n = layout.step, v.n
    if n % layout.span:
        raise ValueError("layout does not tile the vector")
    cur = {0: v}
    size = layout.units
    for f in factors[:-1]:
        sub = size // f
        rots: dict[tuple[int, int], SlotVector] = {}
        nxt = {}
        for gp in sorted({e // sub for e in elems}):
            g, b = divmod(gp, f)
            acc = None
            for c in range(-b, f - b):
                if c == 0:
                    src = cur[g]
                else:
                    if (g, c) not in rots:
                        rots[g, c] = cur[g].rotate(-c * sub * step, tag=tag)
                    src = rots[g, c]
                piece = src.cmult(_slab_mask(n, step, size, (b + c) * sub, sub),
                                  tag=tag)
                acc = piece if acc is None else acc + piece
            nxt[gp] = acc.rescale(tag=tag)
        cur = nxt
        size = sub
    # bit j of e % size is bit j of e, so the doubling directions are e's
    return [srep_replicate(cur[e // size], e % size, UnitLayout(size, step), tag)
            for e in elems]


# -- rotation budget ----------------------------------------------------------


@dataclass(frozen=True)
class HmmBudget:
    """Rotations of one multiply: `parts` per stage, `amortized` per pair."""

    total: int
    amortized: Fraction
    parts: dict = field(compare=False)


def hmm_rotation_budget(cfg: HmmConfig) -> HmmBudget:
    """Rotation counts of the configured pipeline, in closed form and exact.

    Per side, replication by factors [.., f, .., f_0] (just [d] for
    single-mask replication) costs, for each upper layer of parent blocks of
    `size` units and children of sub = size / f units, the d / max(size, d')
    needed parents times their union of anchored windows: f - 1 shifts one
    way and f - max(1, d'/sub) the other, for the highest child a target
    sits in (none when a parent holds one target). Each of the d/d' targets
    then pays log f_0 doubling steps. The reorder ladders take 2 log d' and
    the fold log d'.
    """
    d, dp = cfg.d, cfg.d_prime
    factors = cfg.replication or (d,)
    per_side = 0
    size = d
    for f in factors[:-1]:
        sub = size // f
        per_side += d // max(size, dp) * (f - 1 + max(0, f - max(1, dp // sub)))
        size = sub
    per_side += cfg.groups * _log2(factors[-1])
    ldp = _log2(dp)
    parts = {"reorder": 2 * ldp, "replicate": 2 * per_side, "fold": ldp}
    total = sum(parts.values())
    return HmmBudget(total=total, amortized=Fraction(total, cfg.m), parts=parts)
