"""Shared test helpers: oracles and constrained permutation sampling."""

from __future__ import annotations

import functools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permdec import slots
from permdec.benes import _chain
from permdec.costmodel import replay
from permdec.diag import BsgsPlan, DiagMatrix, _tie_penalty, plan_bsgs
from permdec.network import rotation_profile
from permdec.slots import Permutation, SlotVector
from permdec.structured import build_ut
from permdec.verify import ROUTES


# a route of every ROUTES family at a small size: name -> make(rng); a name
# "family-variant" is a variant of family
SMALL_ROUTES = {
    "ut": lambda rng: ROUTES["ut"](8, 2),
    "sigma": lambda rng: ROUTES["sigma"](8, 2),
    "tau": lambda rng: ROUTES["tau"](8, 2),
    "gamma": lambda rng: ROUTES["gamma"](8, 2, 4),
    "xi": lambda rng: ROUTES["xi"](8, 2, 4),
    "search": lambda rng: ROUTES["search"](build_ut(8)),
    "network-raw": lambda rng: ROUTES["network"](Permutation.random(256, rng),
                                                 reduce=False),
    "network-reduced": lambda rng: ROUTES["network"](
        Permutation.random(256, rng)),
    "network-collapsed": lambda rng: ROUTES["network"](
        Permutation.random(256, rng), collapse=(2, 3)),
    "benes-collapsed": lambda rng: ROUTES["benes"](Permutation.random(64, rng),
                                                   restrict=False),
    "benes-restricted": lambda rng: ROUTES["benes"](
        Permutation.random(64, rng)),
}


def assert_value_errors(table) -> None:
    """table maps message text to a callable that must raise ValueError
    with that text."""
    for match, make in table.items():
        with pytest.raises(ValueError, match=match):
            make()


def assert_value_errors_without_asserts(module: str, table: str) -> None:
    """The same check run under python -O, where an assert would vanish:
    `table` is the name of such a mapping in test module `module`."""
    src = str(Path(slots.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(Path(__file__).parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    script = (f"from {module} import {table}\n"
              f"for match, make in {table}.items():\n"
              "    try:\n"
              "        make()\n"
              "    except ValueError as e:\n"
              "        if match not in str(e):\n"
              "            raise SystemExit(f'{match!r} not in {e}')\n"
              "    else:\n"
              "        raise SystemExit('accepted: ' + match)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def entry_routes(net) -> list[list[tuple]]:
    """Per entry, one (node, input position, distance travelled after the
    node) triple per level from the input down, read from node occupancy:
    entry i at input position p has travelled (i - p) mod n."""
    routes = [[] for _ in range(net.n)]
    for nd in sorted(net.nodes, key=lambda nd: nd.level):
        for p, i in zip(*nd.occ):
            routes[i].append((nd, p, (i - p + nd.step) % net.n))
    return routes


def zero_ledger(net):
    """CostLedger of the cost model's replay of net on the zero vector."""
    return replay(net)[0]


def zero_profile(net):
    """rotation_profile (rotations per schedule level) of that replay."""
    return rotation_profile(net, zero_ledger(net))


def reference_split(t, n1, style, dmax):
    """(g, j) of offset t under the style's split t = n1*g + j, by the
    definitions: symmetric floors t >= 0 and shifts t < 0 by dmax mod n1,
    onesided splits |t| and gives both parts t's sign, sparse takes the
    nearest g."""
    if style == "symmetric":
        g = t // n1 if t >= 0 else (t + dmax % n1) // n1
    elif style == "onesided":
        g = abs(t) // n1 * (1 if t >= 0 else -1)
    else:
        g = (t + n1 // 2) // n1
    return g, t - n1 * g


def reference_window_sizes(ts, n1, style, dmax):
    """Baby and giant window sizes (distinct nonzero j and g) of the split
    at n1, counted on Python sets: the counter before the bitset sweep."""
    split = [reference_split(t, n1, style, dmax) for t in ts]
    js = {j for _, j in split}
    gs = {g for g, _ in split}
    return len(js) - (0 in js), len(gs) - (0 in gs)


def reference_plan_bsgs(offsets, n, stride=1, n1=None, style=None):
    """The per-candidate BSGS planner that plan_bsgs replaced: every n1
    candidate builds its full assignment and plan, and the plans are sorted
    by (rotations, tie penalty, n1). A test that needs a plan at a forced
    stride, n1 or style builds it here."""
    ts = sorted(set(offsets))
    dmax = max(-ts[0], ts[-1])
    if dmax == 0:
        return BsgsPlan(n, stride, 1, "trivial", {0: (0, 0)}, (), ())
    if style is None:
        pos = sorted(t for t in ts if t > 0)
        neg = sorted(-t for t in ts if t < 0)
        full_pos = pos == list(range(1, dmax + 1))
        full_neg = neg == list(range(1, dmax + 1))
        if full_pos and full_neg and 0 in ts:
            style = "symmetric"
        elif (full_pos and not neg) or (full_neg and not pos):
            style = "onesided"
        else:
            style = "sparse"

    def windows(assign):
        js = sorted({j for g, j in assign.values() if j != 0})
        gs = sorted({g for g, j in assign.values() if g != 0})
        return tuple(js), tuple(gs)

    candidates = []
    for cand in [n1] if n1 is not None else range(1, dmax + 1):
        if style == "symmetric" and cand >= dmax + 1:
            continue
        assign = {t: reference_split(t, cand, style, dmax) for t in ts}
        js, gs = windows(assign)
        pd1 = len(js)
        pd2 = len(gs) // 2 if style == "symmetric" else len(gs)
        candidates.append((len(js) + len(gs), _tie_penalty(pd1, pd2), cand,
                           BsgsPlan(n, stride, cand, style, assign, js, gs)))
    assign = {t: (0, t) for t in ts}
    js, gs = windows(assign)
    candidates.append((len(js), math.inf, dmax + 1,
                       BsgsPlan(n, stride, dmax + 1, style, assign, js, gs)))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    return candidates[0][3]


def reference_plan_for(offs, n):
    """The factor planner before the count-only sweep: the gcd taken out as
    the stride, the full sweep up to a strided spread of 64 and, on wider
    spreads, one full sparse plan per n1 candidate, keeping the first with
    the fewest rotations."""
    if not offs:
        return BsgsPlan(n, 1, 1, "sparse", {}, (), ())
    stride = 0
    for o in offs:
        stride = math.gcd(stride, abs(o))
    stride = stride or 1
    ts = [o // stride for o in sorted(set(offs))]
    dmax = max(abs(t) for t in ts)
    if dmax <= 64:
        return reference_plan_bsgs(ts, n, stride=stride)
    cands = list(range(1, 65)) + [1 << b for b in range(7, dmax.bit_length())]
    best = None
    for n1 in sorted(set(cands)):
        plan = reference_plan_bsgs(ts, n, stride=stride, n1=n1,
                                   style="sparse")
        rotations = len(plan.baby_window) + len(plan.giant_window)
        if best is None or rotations < best[0]:
            best = rotations, plan
    return best[1]


def benes_rotation_counts(chain) -> list[int]:
    """Rotations per factor of a Beneš chain predicted from its plans: one
    per executed window step, or one per hop of the step's key path."""
    out = []
    for plan in chain.plans:
        steps = plan.executed_steps()
        if chain.key_paths is None:
            out.append(len(steps))
        else:
            out.append(sum(len(chain.key_paths[s]) for s in steps))
    return out


def benes_total_rotations(chain) -> int:
    return sum(benes_rotation_counts(chain))


def benes_key_set(chain) -> set[int]:
    """Rotation keys a Beneš chain's run uses, predicted from its plans."""
    used = set()
    for plan in chain.plans:
        for s in plan.executed_steps():
            used.update(chain.key_paths[s] if chain.key_paths is not None
                        else (s,))
    return used


@functools.lru_cache(maxsize=1)
def reference_span_costs(stages: tuple, n: int) -> dict:
    """Executed rotations of every span (a, b) of a Beneš chain's stages:
    each span gathered stage by stage from a, its diagonals planned."""
    cost = {}
    for a in range(len(stages)):
        q = stages[a]
        for b in range(a + 1, len(stages) + 1):
            if b > a + 1:
                q = tuple(map(q.__getitem__, stages[b - 1]))
            ks = {d % n for d in map(operator.sub, range(n), q)}
            offs = sorted(k if k <= n - k else k - n for k in ks)
            cost[a, b] = len(plan_bsgs(offs, n).executed_steps())
    return cost


def reference_collapse(routing, target_depth):
    """collapse_benes(routing, target_depth) by exhaustive scoring: every
    span of up to nf - T + 1 stages is a candidate, and the DP scans each
    state's predecessors a upward, keeping the first cheapest. The chain
    plans its own factors."""
    n, nf = routing.n, routing.depth
    if target_depth >= nf:
        return routing.chain()
    cost = reference_span_costs(tuple(routing.stages), n)
    span_max = nf - target_depth + 1
    best = {(0, 0): 0}
    back = {}
    for i in range(1, nf + 1):
        for g in range(1, min(i, target_depth) + 1):
            for a in range(max(g - 1, i - span_max), i):
                if (a, g - 1) in best:
                    c = best[a, g - 1] + cost[a, i]
                    if (i, g) not in best or c < best[i, g]:
                        best[i, g] = c
                        back[i, g] = a
    bounds = [nf]
    for g in range(target_depth, 0, -1):
        bounds.append(back[bounds[-1], g])
    bounds.reverse()

    stages = routing.stages
    merged, groups = [], []
    for a, b in zip(bounds, bounds[1:]):
        q = stages[a]
        for stage in stages[a + 1:b]:
            q = tuple(map(q.__getitem__, stage))
        merged.append(q)
        groups.append((routing.groups[a][0], routing.groups[b - 1][1]))
    return _chain(n, merged, groups)


def reference_apply_hlt_bsgs(m: DiagMatrix, plan: BsgsPlan, v: SlotVector,
                             tag: str = "", key_paths=None) -> SlotVector:
    """apply_hlt_bsgs with every mask built as the n-long list
    DiagMatrix.mask, in the same op order: giant groups sorted, (j, k)
    sorted within each, terms and groups added one at a time."""
    if not m.n == v.n == plan.n:
        raise ValueError("dimension mismatch")

    def rot(vec, step):
        for k in (step,) if key_paths is None else key_paths[step]:
            vec = vec.rotate(k, tag)
        return vec

    n = m.n
    diag_for = {}
    for t in plan.assign:
        diag_for.setdefault((plan.stride * t) % n, t)
    groups = {}
    for k in m.diags:
        g, j = plan.assign[diag_for[k]]
        groups.setdefault(g, []).append((j, k))
    babies = {0: v}

    def baby(j):
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


def depth1_oracle(u: DiagMatrix, a: int, r: int, rc: int,
                  onesided: bool = False, count_all: bool = False):
    """Brute-force depth-1 factorization: assign each column of U a routing
    k_R in {0, +-rc} (gated so the induced left diagonal stays in
    [-(r-rc), r-rc]), U_R rows pairwise distinct. Returns the number of
    distinct valid U_R assignments (count_all) or the first one found as a
    frozenset of (row, k_R mod n), else None.

    Deliberately independent of the search: column-order backtracking over
    explicit per-column option lists, no conflict-driven moves.
    """
    n = u.n
    r_left = r - rc
    cols = []
    for k in sorted(u.diag_set()):
        for row in sorted(u.diags[k]):
            cols.append(((row + k) % n, k))
    cols.sort()
    assert len(cols) == n

    def signed_reps(k):
        if onesided:
            return [k] if k % a == 0 else []
        return [c for c in (k, k - n) if c % a == 0]

    options = []
    for c, k in cols:
        reps = signed_reps(k)
        assert reps
        kappa = min(reps, key=lambda x: (abs(x), -x))
        opts = []
        krs = [0, rc] if onesided else [0, rc, -rc]
        for kr in krs:
            lefts = signed_reps((kappa - kr) % n)
            if onesided:
                if any(0 <= x <= r_left for x in lefts):
                    opts.append(kr)
            elif any(abs(x) <= r_left for x in lefts):
                opts.append(kr)
        options.append((c, opts))

    solutions = set()
    used_rows = [False] * n
    chosen = []

    def rec(i: int) -> frozenset | None:
        if i == len(options):
            sol = frozenset(chosen)
            if count_all:
                solutions.add(sol)
                return None
            return sol
        c, opts = options[i]
        for kr in opts:
            row = (c - kr) % n
            if not used_rows[row]:
                used_rows[row] = True
                chosen.append((row, kr % n))
                got = rec(i + 1)
                used_rows[row] = False
                chosen.pop()
                if got is not None:
                    return got
        return None

    first = rec(0)
    if count_all:
        return len(solutions)
    return first


def transpose_perm(d: int, n: int | None = None) -> Permutation:
    """Row-major d x d transpose as a slot permutation (oracle-side builder)."""
    n = d * d if n is None else n
    targets = list(range(n))
    for r in range(d):
        for c in range(d):
            targets[d * r + c] = d * c + r
    return Permutation(targets)


def sigma_oracle(d: int, vals) -> list:
    """Diag-to-col by the definition: wrapped diagonal j of the matrix (the
    entries A[i][(i+j) mod d]) becomes column j. Tail slots pass through."""
    out = list(vals)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = vals[i * d + (i + j) % d]
    return out


def tau_oracle(d: int, vals) -> list:
    """Diag-to-row: column j rises by j rows, so row i collects a wrapped
    diagonal. Tail slots pass through."""
    out = list(vals)
    for i in range(d):
        for j in range(d):
            out[i * d + j] = vals[((i + j) % d) * d + j]
    return out


def gamma_oracle(d: int, dp: int, vals) -> list:
    """Column-vector unit transpose: per block, unit (0, J) moves to (J, 0).
    Unused output slots are zero (the map is partial)."""
    blk = d * dp * dp
    out = [0] * len(vals)
    for base in range(0, len(vals), blk):
        for j in range(dp):
            for t in range(d):
                out[base + (j * d + t) * dp] = vals[base + t * dp + j]
    return out


def xi_oracle(d: int, dp: int, vals) -> list:
    """Row unit transpose: per block, row-unit (0, J) moves to (J, 0)."""
    blk = d * dp * dp
    out = [0] * len(vals)
    for base in range(0, len(vals), blk):
        for j in range(dp):
            for t in range(d):
                out[base + j * d * dp + t] = vals[base + j * d + t]
    return out


def row_span(b) -> tuple[int, int]:
    """Half-open row range of a partition block."""
    return (b.r0, b.r0 + b.size)


def col_span(b) -> tuple[int, int]:
    """Half-open column range of a partition block."""
    return (b.c0, b.c0 + b.size)


def zero_region_ok(vector, cfg) -> bool:
    """Every slot of packed matrices outside the matrices' d^2 heads is 0."""
    data = set()
    for g in range(cfg.m):
        base = g * cfg.group_span
        data.update(range(base, base + cfg.d * cfg.d))
    return all(s == 0 for p, s in enumerate(vector.slots) if p not in data)


def to_dense(m: DiagMatrix) -> list[list[int]]:
    """m as an n x n row-major matrix: diagonal k holds entries (l, l + k)."""
    out = [[0] * m.n for _ in range(m.n)]
    for k, l, val in m.entries():
        out[l][(l + k) % m.n] = val
    return out


def dense_slab_mask(n: int, step: int, modulus: int, lo: int,
                    width: int) -> list[int]:
    """0/1 indicator of units [lo, lo+width) taken modulo `modulus`, slot p
    being in unit (p // step) % modulus, built slot by slot."""
    return [1 if lo <= (p // step) % modulus < lo + width else 0
            for p in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Schoolbook product, exact ints."""
    d = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def rand_mat(d: int, rng, lo: int = -9, hi: int = 9) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]


def perms_with_diags(n: int, allowed: list[int], limit: int | None = None):
    """All permutations whose matrix diagonals lie in `allowed` (signed steps):
    p(src) = (src - k) mod n for some k in allowed, bijectively. Backtracking
    over sources in order; yields Permutation objects."""
    allowed = list(dict.fromkeys(allowed))
    targets = [-1] * n
    used = [False] * n
    out_count = 0

    def rec(src: int):
        nonlocal out_count
        if limit is not None and out_count >= limit:
            return
        if src == n:
            out_count += 1
            yield Permutation(list(targets))
            return
        for k in allowed:
            dst = (src - k) % n
            if not used[dst]:
                used[dst] = True
                targets[src] = dst
                yield from rec(src + 1)
                used[dst] = False
                targets[src] = -1

    yield from rec(0)


def random_perm_with_diags(n: int, allowed: list[int], rng) -> Permutation:
    """One random permutation with diagonals in `allowed`. Backtracking with
    shuffled choice order; restarted when it thrashes (bad shuffles can be
    exponential), with one final unbounded attempt for feasibility."""

    def attempt(budget: int | None) -> Permutation | None:
        targets = [-1] * n
        used = [False] * n
        steps = 0

        def rec(src: int) -> bool:
            nonlocal steps
            if src == n:
                return True
            steps += 1
            if budget is not None and steps > budget:
                return False
            ks = list(allowed)
            rng.shuffle(ks)
            for k in ks:
                dst = (src - k) % n
                if not used[dst]:
                    used[dst] = True
                    targets[src] = dst
                    if rec(src + 1):
                        return True
                    used[dst] = False
                    targets[src] = -1
            return False

        return Permutation(targets) if rec(0) else None

    for _ in range(200):
        got = attempt(20 * n)
        if got is not None:
            return got
    got = attempt(None)
    assert got is not None, "no permutation with the requested diagonal support"
    return got
