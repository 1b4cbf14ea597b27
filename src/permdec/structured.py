"""Closed-form base permutations on packed matrices and their fixed-depth chains.

A d x d matrix lives row-major in the first d^2 slots of a length-n vector;
tail slots ride along untouched. Covered families:

  transpose      (r, c) -> (c, r)
  diag-to-col    out[i][j] = A[i][(i + j) mod d]   (matrix diagonals to columns)
  diag-to-row    out[i][j] = A[(i + j) mod d][j]   (matrix diagonals to rows)
  unit transpose the top row of a unit grid moves into the first unit column
                 (the matrix-product operand layouts), plus 1-padded variants
                 that trade masks for mask-free doubling steps.

Each decomposition is a telescoping ladder: level i applies the same map
block-wise over the round-i partition, and the right factor R_i is defined as
exactly what turns level i-1 into level i. The product collapses to the
level-0 map by construction; the structural claims (3 or 5 diagonals per
right factor, banded left factors) are asserted in tests, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .chain import DecompositionChain
from .diag import DiagMatrix, perm_to_diag
from .slots import Permutation, SlotVector

Cell = tuple[int, int]


# -- square block partitions --------------------------------------------------


@dataclass(frozen=True)
class Block:
    r0: int
    c0: int
    size: int


@dataclass(frozen=True)
class BlockPartition:
    """One round of the recursive split, plus every overlap cell so far.

    Overlap cells are covered by two blocks each (the large corners of an odd
    split share one cell); they persist through later rounds, so `overlaps`
    is cumulative and the blocks tile the grid except for those cells.
    """

    round_index: int
    blocks: tuple[Block, ...]
    overlaps: tuple[Cell, ...]

    def sizes(self) -> set[int]:
        return {b.size for b in self.blocks}


def partition_rounds(d: int, rounds: int) -> list[BlockPartition]:
    """Round-by-round split history of the d x d grid.

    Even blocks split into quadrants. An odd block of size 2h+1 splits into
    corner blocks of sizes h+1, h, h, h+1 with the two large corners sharing
    the cell at relative (h, h). Size-1 blocks persist unchanged, so any
    round count is legal; sizes stay within two consecutive values.
    """
    assert rounds >= 1 and d >= 1
    out = []
    blocks = [Block(0, 0, d)]
    overlaps: list[Cell] = []
    for r in range(1, rounds + 1):
        nxt = []
        for b in blocks:
            s = b.size
            if s == 1:
                nxt.append(b)
            elif s % 2 == 0:
                h = s // 2
                nxt += [Block(b.r0, b.c0, h), Block(b.r0, b.c0 + h, h),
                        Block(b.r0 + h, b.c0, h), Block(b.r0 + h, b.c0 + h, h)]
            else:
                h = s // 2
                nxt += [Block(b.r0, b.c0, h + 1),
                        Block(b.r0, b.c0 + h + 1, h),
                        Block(b.r0 + h + 1, b.c0, h),
                        Block(b.r0 + h, b.c0 + h, h + 1)]
                overlaps.append((b.r0 + h, b.c0 + h))
        blocks = nxt
        out.append(BlockPartition(r, tuple(blocks), tuple(overlaps)))
    return out


# -- block-local permutations -------------------------------------------------


def _transpose_moves(b: Block) -> Iterator[tuple[Cell, Cell]]:
    for x in range(b.size):
        for y in range(b.size):
            yield (b.r0 + x, b.c0 + y), (b.r0 + y, b.c0 + x)


def _diag_to_col_moves(b: Block) -> Iterator[tuple[Cell, Cell]]:
    # row i cycles left by i inside the block
    w = b.size
    for i in range(w):
        for j in range(w):
            yield (b.r0 + i, b.c0 + (i + j) % w), (b.r0 + i, b.c0 + j)


_LOCAL_OPS: dict[str, Callable[[Block], Iterator[tuple[Cell, Cell]]]] = {
    "transpose": _transpose_moves,
    "diag-to-col": _diag_to_col_moves,
}


def _merge_moves(d: int, n: int, moves: Iterable[tuple[Cell, Cell]]) -> Permutation:
    # An overlap cell gets claims from both owners. For the transpose both are
    # the identity (a corner on the main diagonal); for diag-to-col one owner
    # rotates it away while the other would hold it still, so an identity
    # claim yields to a moving one. Two distinct moving claims are a real
    # conflict and fail loudly.
    dst_for: dict[int, int] = {}
    for (sr, sc), (tr, tc) in moves:
        src = sr * d + sc
        dst = tr * d + tc
        prev = dst_for.get(src)
        if prev is None or prev == src:
            dst_for[src] = dst
        elif dst != prev:
            assert dst == src, f"conflicting moves for cell {(sr, sc)}"
    targets = list(range(n))
    for src, dst in dst_for.items():
        targets[src] = dst
    return Permutation(targets)


def block_local_perm(d: int, n: int, blocks: Iterable[Block], op: str) -> Permutation:
    """The permutation applying `op` inside every listed block of the d x d
    grid, identity elsewhere (including the slot tail beyond d^2)."""
    fn = _LOCAL_OPS[op]
    moves: list[tuple[Cell, Cell]] = []
    for b in blocks:
        moves.extend(fn(b))
    return _merge_moves(d, n, moves)


# -- telescoping ladders ------------------------------------------------------


def _ladder(n: int, levels: list[Permutation]) -> DecompositionChain:
    # factors [L_l, R_l, ..., R_1] with R_i = inverse(level_i) . level_{i-1};
    # the product telescopes to level_0 exactly, whatever the levels are
    factors = [perm_to_diag(levels[-1])]
    for i in range(len(levels) - 1, 0, -1):
        factors.append(perm_to_diag(levels[i].inverse().compose(levels[i - 1])))
    return DecompositionChain(n, factors)


def _max_rounds(d: int) -> int:
    # deepest round with non-singleton blocks: floor(log2(d - 1))
    return (d - 1).bit_length() - 1 if d > 1 else 0


def _embedding(d: int, n: int | None) -> int:
    if d < 1:
        raise ValueError(f"matrix dimension must be >= 1, got d={d}")
    n = d * d if n is None else n
    if d * d > n:
        raise ValueError(f"a {d}x{d} matrix does not fit {n} slots")
    return n


# -- transpose ----------------------------------------------------------------


def build_ut(d: int, n: int | None = None) -> DiagMatrix:
    """vec(A) -> vec(A transposed) for a row-major d x d matrix in n slots."""
    n = _embedding(d, n)
    return perm_to_diag(block_local_perm(d, n, [Block(0, 0, d)], "transpose"))


@dataclass(frozen=True)
class HmtSpec:
    """Parameters of a transpose decomposition: a d x d matrix in n slots,
    split over l rounds. For the uniform quadrant splits of a power-of-two
    size, pass the padded d and embed the operand into its row stride."""

    d: int
    n: int
    l: int

    def __post_init__(self):
        if self.d < 2 or self.d * self.d > self.n:
            raise ValueError("need d >= 2 with d^2 slots available")
        if not 1 <= self.l <= _max_rounds(self.d):
            raise ValueError(f"depth {self.l} out of range for d={self.d}")


def decompose_ut(spec: HmtSpec) -> DecompositionChain:
    """Chain [L_l, R_l, ..., R_1] whose product is build_ut(spec.d, spec.n).

    Power-of-two d gives right factors with diagonals {0, +-(d-1)d/2^i}
    (quadrant swaps) and a left factor on {+-i(d-1) : 0 <= i < d/2^l};
    odd d uses the overlapping splits and stays within 5 diagonals per
    right factor.
    """
    d = spec.d
    levels = [block_local_perm(d, spec.n, [Block(0, 0, d)], "transpose")]
    for part in partition_rounds(d, spec.l):
        levels.append(block_local_perm(d, spec.n, part.blocks, "transpose"))
    return _ladder(spec.n, levels)


# -- diag-to-col --------------------------------------------------------------


def build_sigma(d: int, n: int | None = None) -> DiagMatrix:
    """Matrix diagonals into columns: out[i][j] = A[i][(i+j) mod d]."""
    n = _embedding(d, n)
    return perm_to_diag(block_local_perm(d, n, [Block(0, 0, d)], "diag-to-col"))


def decompose_sigma(d: int, l: int, n: int | None = None) -> DecompositionChain:
    """Ladder for diag-to-col: right factors are triangle swaps between
    horizontally adjacent blocks (3 diagonals {0, +-d/2^i} in the
    power-of-two case), the left factor is block-wise diag-to-col."""
    n = _embedding(d, n)
    if not 1 <= l <= _max_rounds(d):
        raise ValueError(f"depth {l} out of range for d={d}")
    levels = [block_local_perm(d, n, [Block(0, 0, d)], "diag-to-col")]
    for part in partition_rounds(d, l):
        levels.append(block_local_perm(d, n, part.blocks, "diag-to-col"))
    return _ladder(n, levels)


# -- diag-to-row --------------------------------------------------------------


def _strip_rounds(d: int, rounds: int) -> list[list[tuple[int, int]]]:
    # column strips (c0, width); an odd strip leaves a width-1 remainder
    # whose shift is completed by the round that created it
    strips = [(0, d)]
    hist = []
    for _ in range(rounds):
        nxt = []
        for c0, w in strips:
            if w == 1:
                nxt.append((c0, w))
            elif w % 2 == 0:
                nxt += [(c0, w // 2), (c0 + w // 2, w // 2)]
            else:
                h = w // 2
                nxt += [(c0, h), (c0 + h, h), (c0 + 2 * h, 1)]
        strips = nxt
        hist.append(nxt)
    return hist


def _strip_shift_perm(d: int, n: int, strips: Iterable[tuple[int, int]]) -> Permutation:
    # column c0 + j of each strip cycles up by j rows
    targets = list(range(n))
    for c0, w in strips:
        for j in range(w):
            for i in range(d):
                targets[((i + j) % d) * d + c0 + j] = i * d + c0 + j
    return Permutation(targets)


def build_tau(d: int, n: int | None = None) -> DiagMatrix:
    """Matrix diagonals into rows: out[i][j] = A[(i+j) mod d][j].

    Column j rises by j rows, so every entry displacement is a multiple of
    d: the diagonal distribution is {0, d, ..., d^2 - d}, one-sided.
    """
    n = _embedding(d, n)
    return perm_to_diag(_strip_shift_perm(d, n, [(0, d)]))


def decompose_tau(d: int, l: int, n: int | None = None) -> DecompositionChain:
    """Ladder for diag-to-row over column strips: each right factor lifts the
    non-leading strips ({0, (d/2^i)*d} for power-of-two d, one extra diagonal
    when an odd strip sheds its remainder column), the left factor shifts
    within strips of width d/2^l."""
    n = _embedding(d, n)
    if not 1 <= l <= _max_rounds(d):
        raise ValueError(f"depth {l} out of range for d={d}")
    levels = [_strip_shift_perm(d, n, [(0, d)])]
    for strips in _strip_rounds(d, l):
        levels.append(_strip_shift_perm(d, n, strips))
    return _ladder(n, levels)


# The three ladder families by name: (build(d, n), decompose(d, l, n)), where
# n = None packs the d x d matrix into exactly d^2 slots.
LADDERS: dict[str, tuple[Callable[..., DiagMatrix],
                         Callable[..., DecompositionChain]]] = {
    "ut": (build_ut, lambda d, l, n=None:
           decompose_ut(HmtSpec(d, n or d * d, l))),
    "sigma": (build_sigma, decompose_sigma),
    "tau": (build_tau, decompose_tau),
}


# -- unit transposes (matrix-product layouts) ---------------------------------


def _unit_grid(d: int, dprime: int | None) -> int:
    dp = d if dprime is None else dprime
    if dp < 1 or d % dp:
        raise ValueError("unit grid must divide the dimension")
    return dp


def unit_input_slots(d: int, dprime: int | None = None, n: int | None = None) -> list[int]:
    """Slots a packed operand occupies: the top unit-row of every block."""
    dp = _unit_grid(d, dprime)
    blk = d * dp * dp
    n = d * d * dp if n is None else n
    return [b * blk + s for b in range(n // blk) for s in range(d * dp)]


def build_gamma_xi(d: int, dprime: int | None = None,
                   n: int | None = None) -> tuple[DiagMatrix, DiagMatrix]:
    """Unit-grid transposes used by the matrix-product pipeline.

    A block of d*dp^2 slots holds a dp x dp grid of units of length d:
    column-vector units for the first map (gamma), row units for the second
    (xi). Each map sends the top unit-row (I=0, J) into the first unit
    column (J, 0). Only those sources carry entries, so the matrices are
    partial (one entry per used source, none elsewhere): is_permutation()
    is False, but HLT application is exact on supported inputs and the
    diagonals stay one-sided: {-(d*dp-1)*J} for gamma, {-d*(dp-1)*J} for xi.
    """
    dp = _unit_grid(d, dprime)
    blk = d * dp * dp
    n = d * d * dp if n is None else n
    if n % blk:
        raise ValueError("slot count must be a multiple of the block span")
    gamma = DiagMatrix(n)
    xi = DiagMatrix(n)
    for b in range(n // blk):
        base = b * blk
        for j in range(dp):
            for t in range(d):
                src = base + t * dp + j
                dst = base + (j * d + t) * dp
                gamma.set_entry((src - dst) % n, dst, 1)
                src = base + j * d + t
                dst = base + j * d * dp + t
                xi.set_entry((src - dst) % n, dst, 1)
    return gamma, xi


@dataclass
class PaddedChain:
    """Mask-free doubling steps, then one masked fan-out. Depth exactly 1.

    Each right step sends x to x + rotate(x, step); the left stage sums
    rotate(x, s) over {0} + l_steps and applies the region mask once. On an
    input supported on the packed-operand slots the masked output equals the
    partial unit-transpose matrix applied directly.
    """

    n: int
    r_steps: list[int]
    l_steps: list[int]
    mask: tuple[int, ...]

    def evaluate(self, v: SlotVector) -> SlotVector:
        if v.n != self.n:
            raise ValueError(f"dimension mismatch: chain n={self.n}, vector "
                             f"n={v.n}")
        for s in self.r_steps:
            v = v + v.rotate(s)
        acc = v
        for s in self.l_steps:
            acc = acc + v.rotate(s)
        return acc.cmult(self.mask).rescale()


def decompose_gamma_xi_pad(d: int, l: int, dprime: int | None = None,
                           n: int | None = None,
                           ) -> tuple[PaddedChain, PaddedChain, tuple[tuple[int, ...], tuple[int, ...]]]:
    """1-padded chains for both unit transposes, plus their final masks.

    Padding every diagonal to all-ones lets a right factor collapse to a
    single rotate-and-add; l of those plus the dp/2^l - 1 masked fan-out
    steps reproduce the designated region (the first unit column) exactly.
    At l = log2(dp) the fan-out degenerates to the mask alone.
    """
    dp = _unit_grid(d, dprime)
    if dp & (dp - 1):
        raise ValueError("padded halving needs a power-of-two unit grid")
    if not 1 <= l <= dp.bit_length() - 1:
        raise ValueError(f"depth {l} out of range for grid {dp}")
    blk = d * dp * dp
    n = d * d * dp if n is None else n
    if n % blk:
        raise ValueError("slot count must be a multiple of the block span")
    u = dp >> l

    def chain(step_unit: int, region: Callable[[int], bool]) -> PaddedChain:
        r_steps = [(-step_unit * (dp >> i)) % n for i in range(1, l + 1)]
        l_steps = [(-step_unit * i) % n for i in range(1, u)]
        mask = tuple(1 if region(s) else 0 for s in range(n))
        return PaddedChain(n, r_steps, l_steps, mask)

    gamma = chain(d * dp - 1, lambda s: s % dp == 0)
    xi = chain(d * (dp - 1), lambda s: s % (d * dp) < d)
    return gamma, xi, (gamma.mask, xi.mask)
