"""Depth-1 ideal-decomposition search, enumeration, and depth maximization.

A depth-1 ideal decomposition U = U_L * U_R routes every entry of U (at
signed diagonal k, row l, column c) through one diagonal k_R of U_R, with
k_R in {0, +-r_c}; the induced U_L entry then sits on diagonal k - k_R.
Entries with |k| > r_c have a single legal k_R (the matching sign); entries
with |k| < r_c start at k_R = 0 and are moved to +-r_c only to resolve row
conflicts in U_R, depth-first, each entry moved at most once. Entries with
|k| = r_c exactly may take either their natural diagonal or, when the range
permits, k_R = 0; those choices branch.

The depth-first search runs on an explicit stack of generators, so its
depth is bounded by memory, not by Python's recursion limit. Each step
places one entry (or moves one conflicted entry), yields the step below
it or a finished placement, and undoes its move once the search loop has
run that step to exhaustion. search_depth1 takes the first placement and
enumerate_depth1 all distinct ones, in the same order.

All diagonal arithmetic uses stride-aligned signed representatives: every
non-zero diagonal index is a multiple of a common difference `a`, bounded
by |k| <= r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import DecompositionChain
from .diag import DiagMatrix, convert_r, perm_to_diag, to_permutation
from .slots import Permutation


def _readings(k: int, n: int, a: int, onesided: bool) -> list[int]:
    """Stride-aligned signed readings of diagonal k (0 <= k < n), min-abs
    first and, on a tie, positive first."""
    if onesided:
        return [k] if k % a == 0 else []
    return sorted((c for c in (k, k - n) if c % a == 0),
                  key=lambda c: (abs(c), -c))


@dataclass(frozen=True)
class SearchParams:
    n: int
    a: int
    r: int
    onesided: bool = False

    def __post_init__(self):
        if self.a < 1 or not 0 <= self.r < self.n:
            raise ValueError(f"search needs a >= 1 and 0 <= r < n, got "
                             f"n={self.n}, a={self.a}, r={self.r}")
        if self.r % self.a:
            raise ValueError(f"radius r={self.r} is not a multiple of "
                             f"stride a={self.a}")

    @property
    def rho(self) -> int:
        return self.r // self.a

    def rc(self, i: int) -> int:
        """Routing magnitude at depth i (1-based): a * ceil(rho / 2^i)."""
        return self.a * -(-self.rho // (1 << i))

    def max_depth_cap(self) -> int:
        return int(math.log2(self.rho)) if self.rho >= 2 else 0

    def aligned_rep(self, k: int) -> int:
        """Signed representative of diagonal k divisible by a."""
        cands = _readings(k % self.n, self.n, self.a, self.onesided)
        if not cands:
            raise ValueError(f"diagonal {k % self.n} not on stride {self.a}")
        return cands[0]


def diag_profile(m: DiagMatrix, onesided: bool = False) -> SearchParams:
    """Best (a, r): all non-zero diagonals representable as multiples of a
    within [-r, r] (or [0, r] one-sided), minimizing ceil(r/a), then
    maximizing a. Falls back to a=1."""
    n = m.n
    ks = [k for k in m.diag_set() if k != 0]
    if not ks:
        return SearchParams(n, 1, 0, onesided)
    best = None
    for a in range(1, n):
        r_a = 0
        for k in ks:
            cands = _readings(k, n, a, onesided)
            if not cands:
                break
            r_a = max(r_a, abs(cands[0]))
        else:
            if r_a % a == 0:
                key = (-(-r_a // a), r_a, -a)
                if best is None or key < best[0]:
                    best = (key, a, r_a)
    assert best is not None  # a=1 is always feasible
    return SearchParams(n, best[1], best[2], onesided)


class _Searcher:
    """One depth-1 search of u; solutions() yields its placements.

    The right factor's rows are kept per routing: m_pos, m_neg and m_zero
    map a row of U_R on diagonal +rc, -rc or 0 to the signed diagonal
    (kappa) of the entry of U routed through it."""

    def __init__(self, u: DiagMatrix, params: SearchParams,
                 rc: int | None = None, r_bound: int | None = None):
        self.perm = to_permutation(u)  # refuses a non-permutation matrix
        self.n = u.n
        self.p = params
        self.rc = rc = params.rc(1) if rc is None else rc
        self.r_bound = params.r if r_bound is None else r_bound
        # +rc and -rc coincide as diagonals when 2*rc = 0 mod n
        self.merged_pm = (2 * rc) % u.n == 0
        self.m_pos: dict[int, int] = {}
        self.m_neg: dict[int, int] = {}
        self.m_zero: dict[int, int] = {}
        self.infeasible = False
        forced = []      # single-option entries on +-rc
        interior = []    # single-option entries on 0
        choices = []     # entries with several legal routings
        for k in sorted(u.diag_set()):
            for l in sorted(u.diags[k]):
                c = (l + k) % u.n
                opts = self._options(k, l, c)
                if not opts:
                    self.infeasible = True
                    return
                if len(opts) == 1 and opts[0][0] == 0:
                    interior.append(opts[0])
                elif len(opts) == 1:
                    forced.append(opts[0])
                else:
                    choices.append(opts)
        self.forced = forced
        self.interior = interior
        self.choices = choices

    def _options(self, k: int, l: int, c: int) -> list[tuple[int, int, int]]:
        """Legal (k_R, row, kappa) routings for the entry at (diagonal k,
        row l, column c), natural routing first."""
        rc, n = self.rc, self.n
        r_left = self.r_bound - rc
        opts = []
        seen = set()

        def push(kr, kappa):
            row = convert_r(kappa, l, kr, n)
            key = (kr % n, row)
            if key not in seen:
                seen.add(key)
                opts.append((kr, row, kappa))

        for kappa in _readings(k, n, self.p.a, self.p.onesided):
            def ok(kr):
                v = kappa - kr
                return 0 <= v <= r_left if self.p.onesided else abs(v) <= r_left
            if abs(kappa) >= rc and rc > 0:
                kr = rc if kappa > 0 else -rc
                if ok(kr):
                    push(kr, kappa)
                if abs(kappa) == rc and ok(0):
                    push(0, kappa)
            elif ok(0):
                push(0, kappa)
            else:
                if ok(rc) and rc > 0:
                    push(rc, kappa)
                if not self.merged_pm and ok(-rc) and rc > 0:
                    push(-rc, kappa)
        return opts

    # -- placement primitives ------------------------------------------------

    def _bucket(self, kr: int) -> dict[int, int]:
        if kr % self.n == 0:
            return self.m_zero
        if self.merged_pm or kr > 0:
            return self.m_pos
        return self.m_neg

    def _opposite(self, kr: int) -> dict[int, int]:
        if self.merged_pm:
            return {}
        return self.m_neg if kr > 0 else self.m_pos

    # -- the search ----------------------------------------------------------

    def solutions(self):
        """Snapshot of every placement the DFS reaches, in search order. A
        step that yields a sub-step is resumed only once the sub-step is
        exhausted."""
        if self.infeasible:
            return
        for kr, row, kappa in self.forced:
            if row in self._opposite(kr):
                return  # two immovable entries share a row
            bucket = self._bucket(kr)
            assert row not in bucket  # same column twice is impossible
            bucket[row] = kappa
        stack = [self._place_choice(0)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
            elif isinstance(step, frozenset):
                yield step
            else:
                stack.append(step)

    def _place_choice(self, idx: int):
        if idx == len(self.choices):
            yield self._place_interior()
            return
        for kr, row, kappa in self.choices[idx]:
            bucket = self._bucket(kr)
            if kr % self.n != 0:
                if row in self._opposite(kr) or row in bucket:
                    continue
            else:
                assert row not in bucket
            bucket[row] = kappa
            yield self._place_choice(idx + 1)
            del bucket[row]

    def _place_interior(self):
        m0 = self.m_zero
        for _, c, kappa in self.interior:
            assert c not in m0
            m0[c] = kappa
        q = sorted(row for row in m0 if row in self.m_pos or row in self.m_neg)
        yield self._resolve(None, q, 0)
        for _, c, _ in self.interior:
            del m0[c]

    def _resolve(self, row: int | None, q: list[int], i: int):
        """Alg.-2 style conflict resolution; `row` is a freshly conflicted
        row to fix first, else scan q from i. Undoes only its own moves."""
        if row is None or row not in self.m_zero:
            while i < len(q) and q[i] not in self.m_zero:
                i += 1
            if i == len(q):
                yield self.snapshot()
                return
            row, i = q[i], i + 1
        b = self.m_zero.pop(row)
        # move the 0-diagonal entry at this row to +rc
        if b >= 2 * self.rc - self.r_bound and (not self.p.onesided
                                                or b >= self.rc):
            r2 = (row - self.rc) % self.n
            if r2 not in self._opposite(self.rc):
                assert r2 not in self.m_pos
                self.m_pos[r2] = b
                yield self._resolve(r2, q, i)
                del self.m_pos[r2]
        # otherwise to -rc
        if (not self.p.onesided and not self.merged_pm
                and -b >= 2 * self.rc - self.r_bound):
            r2 = (row + self.rc) % self.n
            if r2 not in self.m_pos:
                self.m_neg[r2] = b
                yield self._resolve(r2, q, i)
                del self.m_neg[r2]
        self.m_zero[row] = b

    def snapshot(self) -> frozenset:
        items = [(row, self.rc) for row in self.m_pos]
        items += [(row, (-self.rc) % self.n) for row in self.m_neg]
        items += [(row, 0) for row in self.m_zero]
        return frozenset(items)


def _build_factors(p_u: Permutation, placements: frozenset
                   ) -> tuple[DiagMatrix, DiagMatrix]:
    ur = DiagMatrix(p_u.n)
    for row, kr in placements:
        ur.set_entry(kr, row, 1)
    p_r = to_permutation(ur)
    ul = perm_to_diag(p_u.compose(p_r.inverse()))
    return ul, ur


def search_depth1(u: DiagMatrix, params: SearchParams, rc: int | None = None,
                  r_bound: int | None = None
                  ) -> tuple[DiagMatrix, DiagMatrix] | None:
    """First (U_L, U_R) with U = U_L U_R, U_R supported on {0, +-rc} and
    U_L within [-(r - rc), r - rc]; None when no such factorization exists."""
    searcher = _Searcher(u, params, rc, r_bound)
    snap = next(searcher.solutions(), None)
    return None if snap is None else _build_factors(searcher.perm, snap)


def enumerate_depth1(u: DiagMatrix, params: SearchParams, rc: int | None = None,
                     r_bound: int | None = None
                     ) -> list[tuple[DiagMatrix, DiagMatrix]]:
    """All distinct factor pairs reachable by the conflict-resolution DFS."""
    searcher = _Searcher(u, params, rc, r_bound)
    snaps = dict.fromkeys(searcher.solutions())
    return [_build_factors(searcher.perm, snap) for snap in snaps]


def max_ideal_depth(u: DiagMatrix, params: SearchParams | None = None
                    ) -> tuple[int, DecompositionChain]:
    """Deepest chain satisfying the ideal-form conditions, by recursing the
    depth-1 enumeration into each left factor. Depth 0 = no decomposition."""
    if params is None:
        params = diag_profile(u)
    cap = params.max_depth_cap()
    best: tuple[int, list[DiagMatrix]] = (0, [u])

    def dfs(cur: DiagMatrix, level: int, r_bound: int, rights: list[DiagMatrix]):
        nonlocal best
        if level == cap or best[0] == cap:
            return
        rc = params.rc(level + 1)
        if r_bound - rc < 0:
            return
        for ul, ur in enumerate_depth1(cur, params, rc=rc, r_bound=r_bound):
            depth = level + 1
            if depth > best[0]:
                best = (depth, [ul] + [ur] + rights)
                if best[0] == cap:
                    return
            if r_bound - rc >= params.a:
                dfs(ul, depth, r_bound - rc, [ur] + rights)

    dfs(u, 0, params.r, [])
    depth, factors = best
    return depth, DecompositionChain(u.n, factors)


@dataclass
class ValidationReport:
    product_ok: bool
    right_factors_ok: bool
    left_factor_ok: bool
    rc_sequence: list[int]
    r_prime: int
    details: list[str]

    @property
    def ok(self) -> bool:
        return self.product_ok and self.right_factors_ok and self.left_factor_ok


def validate_ideal_chain(u: DiagMatrix, chain: DecompositionChain,
                         params: SearchParams) -> ValidationReport:
    """Checks the three ideal-form conditions for chain = [L, R_l, ..., R_1]."""
    details = []
    product_ok = chain.product() == u
    if not product_ok:
        details.append("factor product differs from the source matrix")

    depth = chain.depth - 1
    rcs = [params.rc(i) for i in range(1, depth + 1)]
    right_ok = True
    for i in range(1, depth + 1):
        factor = chain.factors[chain.depth - i]  # R_i
        allowed = {0, rcs[i - 1] % params.n, (-rcs[i - 1]) % params.n
                   } if not params.onesided else {0, rcs[i - 1] % params.n}
        extra = set(factor.diag_set()) - allowed
        if extra:
            right_ok = False
            details.append(f"R_{i} has diagonals outside {{0,+-{rcs[i-1]}}}: "
                           f"{sorted(extra)}")

    r_prime = params.r - sum(rcs)
    left_ok = True
    if depth >= 1:
        left = chain.factors[0]
        for k in left.diag_set():
            try:
                rep = params.aligned_rep(k)
            except ValueError:
                left_ok = False
                details.append(f"L diagonal {k} not on stride {params.a}")
                continue
            bad = rep > r_prime if params.onesided else abs(rep) > r_prime
            if bad:
                left_ok = False
                details.append(f"L diagonal {rep} outside [-{r_prime}, {r_prime}]")
    return ValidationReport(product_ok, right_ok, left_ok, rcs, r_prime, details)
