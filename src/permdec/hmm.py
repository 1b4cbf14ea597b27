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
copies fill exactly one span and never leak into a neighbor. The layered
variant caches pre-rotations shared across targets, trading masks for
rotations; `fast_replicate` exposes it standalone in row-wise (one-sided
windows, for span-periodic inputs) and column-wise (two-sided windows)
form. Each of its masked-sum layers rescales once, but its final unit mask
is never rescaled and shares the product's rescale, so the simulated depth
is 1 + (number of upper factors): 2 for factors (4, 4), as for one mask,
and 3 for (2, 2, 4). A real CKKS scheme would spend a level on that mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .slots import SlotVector

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

    def mask(self, n: int, k: int) -> tuple[int, ...]:
        return _slab_mask(n, self.step, self.units, k, 1)


def _slab_mask(n: int, step: int, modulus: int, lo: int, width: int) -> tuple[int, ...]:
    # indicator of units [lo, lo+width) taken modulo `modulus`
    return tuple(1 if lo <= (p // step) % modulus < lo + width else 0
                 for p in range(n))


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

    replication=None replicates each column group with one mask and log d
    doubling steps; a factor tuple [f_top, .., f_1, f_0] switches to the
    layered scheme (one masked-sum layer per upper factor, plain doubling
    for the last). Measured depth is one level per upper factor plus the
    product's: the final unit mask is not rescaled on its own, although a
    real CKKS scheme would need a level for it.
    """

    d: int
    d_prime: int
    m: int = 1
    replication: tuple[int, ...] | None = None
    n: int | None = None

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
        if self.n is not None and self.n < self.m * self.group_span:
            raise ValueError("vector too small for m groups")

    @property
    def group_span(self) -> int:
        return self.d * self.d * self.d_prime

    @property
    def data_span(self) -> int:
        return self.d * self.d

    @property
    def vector_size(self) -> int:
        return self.m * self.group_span if self.n is None else self.n

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
    if cfg.replication is None:
        reps_a = [srep_replicate(va, u, cols, tag="hmm.a.rep").rescale(tag="hmm.a.rep")
                  for u in units]
        reps_b = [srep_replicate(vb, u, rows, tag="hmm.b.rep").rescale(tag="hmm.b.rep")
                  for u in units]
    else:
        reps_a = _layered_replicate(va, units, cols, cfg.replication,
                                    mode="anchored", tag="hmm.a.rep")
        reps_b = _layered_replicate(vb, units, rows, cfg.replication,
                                    mode="anchored", tag="hmm.b.rep")
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


# -- layered replication ------------------------------------------------------


def _layered_replicate(v: SlotVector, elems: Sequence[int], layout: UnitLayout,
                       factors: Sequence[int], mode: str, tag: str) -> list[SlotVector]:
    """Replicate each unit in `elems`, sharing rotations between targets.

    Upper factors narrow, layer by layer, which block of source units a
    working vector carries tiled across the whole layout; the last factor
    is finished per element with a unit mask and plain signed doubling.
    Modes:

      anchored  windows centered so nothing crosses a span boundary; works
                for any input and any subset of targets, rotation set is
                whatever the windows demand.
      row       one-sided windows [1, f]; needs span-periodic input (the
                wrap then carries identical data). Top layer executes all f
                steps, lower layers reuse the parent for the full-turn one.
      column    anchored windows, but every parent's two-sided window
                [-f, f] (top) or [-(f-1), f-1] (lower) is rotated eagerly
                so the cache cost is data-independent.
    """
    if mode not in ("anchored", "row", "column"):
        raise ValueError(f"unknown replication mode: {mode}")
    d, step, n = layout.units, layout.step, v.n
    uppers, base = list(factors[:-1]), factors[-1]
    if n % layout.span:
        raise ValueError("layout does not tile the vector")

    cur = {0: v}
    size = d
    for li, f in enumerate(uppers):
        sub = size // f
        needed = sorted({e // sub for e in elems})
        rots: dict[tuple[int, int], SlotVector] = {}

        def shifted(g: int, c: int) -> SlotVector:
            if (g, c) not in rots:
                rots[(g, c)] = cur[g].rotate(-c * sub * step, tag=tag)
            return rots[(g, c)]

        if mode == "column":
            w = f if li == 0 else f - 1
            for g in sorted({gp // f for gp in needed}):
                for c in range(-w, w + 1):
                    if c:
                        shifted(g, c)
        nxt = {}
        for gp in needed:
            g, b = divmod(gp, f)
            cs = range(1, f + 1) if mode == "row" else range(-b, f - b)
            acc = None
            for c in cs:
                if c == 0 or (mode == "row" and c == f and li > 0):
                    src = cur[g]
                else:
                    src = shifted(g, c)
                piece = src.cmult(
                    _slab_mask(n, step, size, ((b + c) % f) * sub, sub), tag=tag)
                acc = piece if acc is None else acc + piece
            nxt[gp] = acc.rescale(tag=tag)
        cur = nxt
        size = sub

    outs = []
    for e in elems:
        if uppers:
            vv = cur[e // base].cmult(_slab_mask(n, step, base, e % base, 1), tag=tag)
        else:
            vv = v.cmult(layout.mask(n, e), tag=tag)
        for j in range(_log2(base)):
            s = (1 << j) * step
            if mode == "row":
                vv = vv + vv.rotate(-s, tag=tag)
            else:
                vv = vv + vv.rotate(s if (e >> j) & 1 else -s, tag=tag)
        outs.append(vv)
    return outs


def fast_replicate(v: SlotVector, cfg: HmmConfig, direction: str,
                   layout: UnitLayout | None = None) -> list[SlotVector]:
    """All d unit replications at once, with cached pre-rotations.

    Row-wise counts d/f0 + d log f0 rotations and assumes span-periodic
    input; column-wise counts 2 d/f0 + d log f0 and works on anything.
    With a bare (d,) factor list this degenerates to d srep calls.
    """
    if direction not in ("row", "column"):
        raise ValueError(f"direction must be row or column, got {direction!r}")
    factors = cfg.replication if cfg.replication is not None else (cfg.d,)
    if layout is None:
        layout = UnitLayout(cfg.d, cfg.d if direction == "row" else 1)
    return _layered_replicate(v, range(cfg.d), layout, factors,
                              mode=direction, tag="fastrep")


# -- rotation budget ----------------------------------------------------------


@dataclass(frozen=True)
class HmmBudget:
    """`tolerance` is how far an executed rotation count may sit from
    `total` and still match the budget."""

    total: int
    amortized: Fraction
    parts: dict = field(compare=False)
    tolerance: int = 0


def hmm_rotation_budget(cfg: HmmConfig) -> HmmBudget:
    """Closed-form rotation counts for the configured pipeline.

    Single-mask replication is exact (tolerance 0): the instrumented
    pipeline matches it rotation for rotation. The layered forms assume the
    shared one- and two-sided window costs; the anchored windows the pipeline
    actually executes stay within d rotations of them (tolerance d; tests pin
    the exact instrumented numbers per configuration). Per side, the
    two-sided window of 2d/f0 parent shifts shares d' of them between
    neighbouring groups, but never drops below the d/f0 - 1 shifts a single
    group needs.
    """
    d, dp = cfg.d, cfg.d_prime
    ld, ldp = _log2(d), _log2(dp)
    if cfg.replication is None:
        parts = {"reorder": 2 * ldp,
                 "replicate": 2 * cfg.groups * ld,
                 "fold": ldp}
    else:
        f0 = cfg.replication[-1]
        lf0 = _log2(f0)
        if dp == 1:
            rep = 3 * d // f0 + 2 * d * lf0
        else:
            shared = max(2 * d // f0 - dp, d // f0 - 1)
            rep = 2 * shared + 2 * cfg.groups * lf0
        parts = {"reorder": 2 * ldp, "replicate": rep, "fold": ldp}
    total = sum(parts.values())
    return HmmBudget(total=total, amortized=Fraction(total, cfg.m), parts=parts,
                     tolerance=0 if cfg.replication is None else d)
