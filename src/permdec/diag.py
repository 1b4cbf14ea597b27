"""Diagonal-form matrices and homomorphic linear transforms.

A matrix is stored as a map from diagonal index k (normalized to [0, n)) to
the rows holding a non-zero entry on that diagonal, where the entry at
diagonal k, row l is A[l, (l + k) mod n]. Evaluating U x homomorphically is

    (U x)[l] = sum_k  u_k[l] * x[(l + k) mod n]

with one mask multiply per non-zero diagonal and a single rescale after the
sum. The one evaluator, apply_hlt_bsgs, groups the sum under a BSGS plan as

    U x = sum_g Rot( sum_j Rot(u_{n1 g + j}, -a n1 g) . Rot(x, a j), a n1 g )

so it rotates once per baby step j and once per giant step g; each
giant-shifted mask Rot(u_k, -a n1 g) is built in one pass (DiagMatrix.mask).
Under baby_plan every diagonal is its own baby step and there is no giant
step: the diagonal method, one rotation per non-zero off diagonal.
plan_bsgs is the one planner: it plans a factor from its signed diagonals,
and every chain factor given no plan runs under its plan, which never
executes more rotations than baby_plan. Its three splits of t into n1*g + j
(symmetric, onesided, sparse) are defined once, by their shifts (_shifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .slots import Permutation, SlotVector


def signed_rep(k: int, n: int) -> int:
    """Signed representative of k mod n with minimum magnitude, ties positive."""
    k %= n
    return k if k <= n - k else k - n


class DiagMatrix:
    __slots__ = ("n", "diags")

    def __init__(self, n: int, diags: dict[int, dict[int, int]] | None = None):
        self.n = n
        self.diags: dict[int, dict[int, int]] = {}
        if diags:
            for k, rows in diags.items():
                k %= n
                bucket = self.diags.setdefault(k, {})
                for l, val in rows.items():
                    if val:
                        bucket[l % n] = val
                if not bucket:
                    del self.diags[k]

    # -- construction --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DiagMatrix":
        return cls(n, {0: {l: 1 for l in range(n)}})

    def set_entry(self, k: int, l: int, val: int) -> None:
        """Stores a non-zero entry; a zero would count as a diagonal."""
        if val == 0:
            raise ValueError(f"zero entry at diagonal {k}, row {l}")
        self.diags.setdefault(k % self.n, {})[l % self.n] = val

    # -- views ---------------------------------------------------------------

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """Yields (diagonal k, row l, value)."""
        for k in sorted(self.diags):
            rows = self.diags[k]
            for l in sorted(rows):
                yield k, l, rows[l]

    def diag_set(self) -> list[int]:
        return sorted(self.diags)

    def signed_diag_set(self) -> list[int]:
        return sorted(signed_rep(k, self.n) for k in self.diags)

    def mask(self, k: int, shift: int = 0) -> list[int]:
        """The diagonal k as a full-length mask vector u_k, rotated right by
        `shift` (Rot(u_k, -shift)) in the same pass."""
        n = self.n
        out = [0] * n
        s = shift % n - n  # negative, so out[l + s] is slot (l + shift) mod n
        for l, val in self.diags.get(k % n, {}).items():
            out[l + s] = val
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagMatrix) and self.n == other.n
                and self.diags == other.diags)

    def __repr__(self) -> str:
        return f"DiagMatrix(n={self.n}, diags={self.diag_set()})"


def perm_to_diag(p: Permutation) -> DiagMatrix:
    """U with matvec(U, v) = p(v): entry for source s sits at
    row targets[s], diagonal (s - targets[s]) mod n."""
    n = p.n
    m = DiagMatrix(n)
    diags = m.diags  # filled directly: keys are normalized, entries 1
    for src, dst in enumerate(p.targets):
        diags.setdefault((src - dst) % n, {})[dst] = 1
    return m


def to_permutation(m: DiagMatrix) -> Permutation:
    """The permutation p with perm_to_diag(p) == m; raises ValueError when m
    is not a permutation matrix."""
    n = m.n
    targets = [-1] * n
    for k in sorted(m.diags):  # a column's first entry is on the lowest k
        for l, val in m.diags[k].items():
            src = (l + k) % n
            if val != 1:
                raise ValueError(f"not a permutation matrix: entry {val} at "
                                 f"row {l}, column {src}")
            if targets[src] != -1:
                raise ValueError(f"not a permutation matrix: column {src} "
                                 f"has entries in rows {targets[src]} and {l}")
            targets[src] = l
    return Permutation(targets)  # refuses an empty column or a repeated row


def matmul(a: DiagMatrix, b: DiagMatrix) -> DiagMatrix:
    """C = A B in diagonal form; sparse in both factors."""
    if a.n != b.n:
        raise ValueError(f"matmul of matrices n={a.n} and n={b.n}")
    n = a.n
    out = DiagMatrix(n)
    acc: dict[int, dict[int, int]] = {}
    for ka, rows_a in a.diags.items():
        for kb, rows_b in b.diags.items():
            kc = (ka + kb) % n
            bucket = acc.setdefault(kc, {})
            for l, va in rows_a.items():
                vb = rows_b.get((l + ka) % n)
                if vb:
                    bucket[l] = bucket.get(l, 0) + va * vb
    for kc, rows in acc.items():
        for l, val in rows.items():
            if val:
                out.set_entry(kc, l, val)
    return out


def matvec(m: DiagMatrix, vals: Sequence[int]) -> list[int]:
    """Free reference product for oracles."""
    n = m.n
    out = [0] * n
    for k, l, val in m.entries():
        out[l] += val * vals[(l + k) % n]
    return out


# -- BSGS ---------------------------------------------------------------------


class PlanCoverageError(ValueError):
    """A diagonal of the matrix is not covered by the BSGS plan."""


@dataclass(frozen=True)
class BsgsPlan:
    """Grouping t = n1*g + j of diagonal offsets k = a*t mod n.

    Every step in the windows is used by some offset, so a matrix holding
    every planned diagonal runs one rotation per executed step; the counts a
    report prints come from the CostLedger of that run. plan_bsgs sizes the
    windows of every candidate n1 on bitsets (_window_counts) and builds
    `assign` and the windows for the chosen n1 only.
    """

    n: int
    stride: int
    n1: int
    style: str  # 'symmetric' | 'onesided' | 'sparse' | 'trivial'
    assign: dict[int, tuple[int, int]] = field(hash=False)  # t -> (g, j)
    baby_window: tuple[int, ...]  # j values the evaluator rotates by (no 0)
    giant_window: tuple[int, ...]  # g values the evaluator rotates by (no 0)

    def executed_steps(self) -> list[int]:
        """One entry per rotation the evaluator performs; a window slot whose
        step wraps to 0 mod n costs nothing and is dropped."""
        steps = [(self.stride * j) % self.n for j in self.baby_window]
        steps += [(self.stride * self.n1 * g) % self.n
                  for g in self.giant_window]
        return [s for s in steps if s]


def baby_plan(offsets: Iterable[int], n: int, stride: int = 1,
              style: str = "sparse") -> BsgsPlan:
    """The plan with every offset its own baby step and no giant step (the
    diagonal method); n1 = dmax + 1 puts every offset in giant group 0."""
    ts = sorted(set(offsets))
    dmax = max((abs(t) for t in ts), default=0)
    return BsgsPlan(n, stride, dmax + 1, style, {t: (0, t) for t in ts},
                    tuple(t for t in ts if t), ())


def _shifts(style: str, n1: int, dmax: int) -> tuple[int, int]:
    """The shifts c (for t >= 0, for t < 0) of the style's split
    g = floor((t + c) / n1), j = t - n1*g.

    symmetric: 0 and s = dmax mod n1, so j lies in [0, n1) for t >= 0 and in
    [-s, n1-s) for t < 0, and the union of both sides is exactly the window
    [-s, n1), every value used; onesided: 0 and n1 - 1, which splits |t|
    and gives both parts t's sign; sparse: n1 // 2 on both sides, the
    nearest g.
    """
    if style == "symmetric":
        return 0, dmax % n1
    if style == "onesided":
        return 0, n1 - 1
    return n1 // 2, n1 // 2


def _giants(ts: Sequence[int], n1: int, style: str, dmax: int) -> list[int]:
    """Giant index g of each offset t under the style's split (_shifts)."""
    cp, cn = _shifts(style, n1, dmax)
    return [(t + (cp if t >= 0 else cn)) // n1 for t in ts]


def _fold(x: int, width: int) -> int:
    """OR of the width-bit fields of x, halving the field count per step."""
    fields = -(-x.bit_length() // width)
    while fields > 1:
        half = (fields + 1) >> 1
        x = (x & ((1 << half * width) - 1)) | (x >> half * width)
        fields = half
    return x


def _nonzero_fields(x: int, width: int) -> int:
    """Number of width-bit fields of x holding a set bit (SWAR: a field's
    low bits plus all-ones below its top bit carry into the top bit, and no
    further)."""
    fields = -(-x.bit_length() // width)
    ones = ((1 << fields * width) - 1) // ((1 << width) - 1)  # bit 0 each
    top = ones << (width - 1)
    low = top - ones
    return ((((x & low) + low) | x) & top).bit_count()


def _window_counts(ts: Sequence[int], cands: Sequence[int], style: str,
                   dmax: int) -> list[tuple[int, int]]:
    """Baby and giant window sizes (distinct nonzero j and g) of the split
    at each n1 in cands, counted without building an assignment.

    The offsets are held as an int with bit t + dmax set, split by sign. For
    each n1 a side with shift c (_shifts) is lifted so that t sits at bit
    t + c + K*n1, with K = ceil(dmax / n1) keeping every bit index
    nonnegative: n1-bit field i then holds the offsets with g = i - K, and
    bit r of a field the ones with j = r - c. So the distinct g are the
    nonzero fields of both sides together, and the distinct j the set bits
    of each side's fields OR-ed into one, aligned on c. Sides with equal
    shifts are lifted as one.
    """
    buf = bytearray((2 * dmax + 8) >> 3)
    for t in ts:
        buf[(t + dmax) >> 3] |= 1 << ((t + dmax) & 7)
    both = int.from_bytes(buf, "little")
    neg = both & ((1 << dmax) - 1)
    pos = both ^ neg
    out = []
    for n1 in cands:
        cp, cn = _shifts(style, n1, dmax)
        sides = ((both, cp),) if cp == cn else ((pos, cp), (neg, cn))
        zero = -(-dmax // n1) * n1  # K*n1, the first bit of field g = 0
        shift = max(cp, cn)  # bit j + shift of the folded babies holds j
        lifted = js = 0
        for bits, c in sides:
            x = bits << (zero - dmax + c)
            lifted |= x
            js |= _fold(x, n1) << (shift - c)
        ng = _nonzero_fields(lifted, n1)
        ng -= (lifted >> zero) & ((1 << n1) - 1) != 0
        out.append((js.bit_count() - ((js >> shift) & 1), ng))
    return out


# preferred babies per giant among n1 that execute equally many rotations
BSGS_RATIO = 4.0
# a strided spread up to this is swept at every n1 and may take a
# symmetric or one-sided split; a wider one takes the sparse split
FULL_SWEEP = 64


def _tie_penalty(babies: int, giants: int) -> float:
    if babies <= 0 or giants <= 0:
        return math.inf
    return abs(math.log2((babies / giants) / BSGS_RATIO))


def plan_bsgs(offsets: Iterable[int], n: int) -> BsgsPlan:
    """The BSGS plan of a factor whose signed diagonals are `offsets`.

    The offsets' gcd is taken out as the stride. A strided spread dmax up
    to FULL_SWEEP picks its split (symmetric for the full range -dmax..dmax,
    onesided for 0 or 1..dmax of one sign, else sparse) and counts every
    n1; ties prefer babies per giant (giants per side when symmetric)
    nearest BSGS_RATIO, then smaller n1. A wider spread counts the sparse
    split at n1 = 1..FULL_SWEEP and the powers of two below dmax, and
    takes the first n1 with the fewest rotations. The pure-baby plan
    (baby_plan) wins only with strictly fewer rotations. All candidates are
    counted in one _window_counts sweep over the offsets held as bitsets;
    the assignment and windows are built for the winner alone. No offsets
    give the empty baby_plan, and {0} the trivial plan.
    """
    ts = sorted(offsets)  # linear on the sorted sets chains pass
    if not ts:
        return baby_plan(ts, n)
    stride = math.gcd(*ts) or 1
    if stride > 1:
        ts = [t // stride for t in ts]
    dmax = max(-ts[0], ts[-1])
    if dmax == 0:
        return baby_plan(ts, n, stride, "trivial")

    has_zero = 0 in ts
    babies = len(set(ts)) - has_zero
    sweep = dmax <= FULL_SWEEP
    if not sweep:
        style = "sparse"
    elif babies == 2 * dmax and has_zero:
        style = "symmetric"
    elif babies == dmax and (ts[0] >= 0 or ts[-1] <= 0):
        style = "onesided"
    else:
        style = "sparse"
    cands = range(1, dmax + 1) if sweep else [
        *range(1, FULL_SWEEP + 1),
        *(1 << b for b in range(FULL_SWEEP.bit_length(), dmax.bit_length()))]

    # (rotations, tie penalty, n1); n1 = dmax + 1 is the pure-baby plan,
    # which loses every full tie. Symmetric ties weigh one side's giants.
    keys = [(babies, math.inf, dmax + 1)]
    for cand, (nj, ng) in zip(cands, _window_counts(ts, cands, style, dmax)):
        tie = (_tie_penalty(nj, ng // 2 if style == "symmetric" else ng)
               if sweep else 0)
        keys.append((nj + ng, tie, cand))
    best = min(keys)[2]
    if best > dmax:
        return baby_plan(ts, n, stride, style)
    gs = _giants(ts, best, style, dmax)
    assign = {t: (g, t - best * g) for t, g in zip(ts, gs)}
    js = tuple(sorted({j for _, j in assign.values()} - {0}))
    return BsgsPlan(n, stride, best, style, assign, js,
                    tuple(sorted(set(gs) - {0})))


def apply_hlt_bsgs(m: DiagMatrix, plan: BsgsPlan, v: SlotVector,
                   tag: str = "",
                   key_paths: dict[int, tuple[int, ...]] | None = None
                   ) -> SlotVector:
    """U v with one rotation per executed step of the plan's windows (one
    per non-zero off diagonal under baby_plan) and one rescale.

    With `key_paths` (step mod n -> key steps summing to it) every window
    rotation runs as its chain of key rotations; a step with no path raises
    KeyError.
    """
    if not m.n == v.n == plan.n:
        raise ValueError(f"dimension mismatch: matrix n={m.n}, vector "
                         f"n={v.n}, plan n={plan.n}")

    def rot(vec: SlotVector, step: int) -> SlotVector:
        for k in (step,) if key_paths is None else key_paths[step]:
            vec = vec.rotate(k, tag)
        return vec

    n = m.n
    diag_for = {}
    for t in plan.assign:
        diag_for.setdefault((plan.stride * t) % n, t)
    groups: dict[int, list[tuple[int, int]]] = {}
    for k in m.diags:
        if k not in diag_for:
            raise PlanCoverageError(f"diagonal {k} not covered by plan")
        g, j = plan.assign[diag_for[k]]
        groups.setdefault(g, []).append((j, k))

    babies: dict[int, SlotVector] = {0: v}

    def baby(j: int) -> SlotVector:
        if j not in babies:
            babies[j] = rot(v, (plan.stride * j) % n)
        return babies[j]

    acc = None
    for g in sorted(groups):
        gstep = (plan.stride * plan.n1 * g) % n
        inner = None
        for j, k in sorted(groups[g]):
            term = baby(j).cmult(m.mask(k, gstep), tag)
            inner = term if inner is None else inner + term
        out_g = rot(inner, gstep) if gstep else inner
        acc = out_g if acc is None else acc + out_g
    if acc is None:
        acc = v.zeros_like()
    return acc.rescale(tag)


def convert_r(k: int, l: int, k_r: int, n: int) -> int:
    """Row of the right factor receiving entry (diag k, row l) routed through
    diagonal k_r; equals the entry's column minus k_r."""
    return (k + l - k_r) % n
