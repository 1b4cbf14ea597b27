"""Diagonal representation, HLT evaluation, and BSGS plans."""

import inspect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdec.diag import (
    BsgsPlan,
    DiagMatrix,
    PlanCoverageError,
    _giants,
    _window_counts,
    apply_hlt_bsgs,
    baby_plan,
    hlt_masks,
    convert_r,
    matmul,
    matvec,
    perm_to_diag,
    plan_bsgs,
    signed_rep,
    to_permutation,
)
from permdec.ledger import CostLedger
from permdec.slots import (DEFAULT_LEVEL, Permutation, PositionMask,
                           SlotVector, rotate_tuple)
from permdec.structured import PaddedChain

from util import (assert_value_errors, assert_value_errors_without_asserts,
                  reference_apply_hlt_bsgs, reference_plan_for,
                  reference_split, reference_window_sizes, to_dense,
                  transpose_perm)


def test_signed_rep():
    assert signed_rep(3, 16) == 3
    assert signed_rep(13, 16) == -3
    assert signed_rep(8, 16) == 8  # tie goes positive
    assert signed_rep(-3, 16) == -3


def test_perm_to_diag_identity():
    m = perm_to_diag(Permutation.identity(4))
    assert m.diag_set() == [0]
    assert m.mask(0) == [1, 1, 1, 1]


def test_mask_shift_is_one_pass_rotation():
    # mask(k, shift) is Rot(u_k, -shift): the giant-shifted mask of BSGS
    rng = random.Random(4)
    m = DiagMatrix(12, {k: {l: rng.randint(1, 9) for l in rng.sample(
        range(12), 5)} for k in (0, 3, 7)})
    for k in (0, 3, 7, 5):
        for shift in (0, 1, 5, 11, 12, -4):
            assert m.mask(k, shift) == list(rotate_tuple(m.mask(k), -shift))


def test_perm_to_diag_rotation():
    # left-rotation by 1 is realized by u_1 alone
    m = perm_to_diag(Permutation.rotation(4, 1))
    assert m.diag_set() == [1]


def test_perm_to_diag_transpose_diag_sets():
    m2 = perm_to_diag(transpose_perm(2))
    assert m2.signed_diag_set() == [-1, 0, 1]
    m4 = perm_to_diag(transpose_perm(4))
    # the 2d-1 diagonals are (d-1)*i mod n; min-abs reps differ (9 -> -7)
    assert set(m4.diag_set()) == {(3 * i) % 16 for i in range(-3, 4)}


def test_perm_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        p = Permutation.random(32, rng)
        assert to_permutation(perm_to_diag(p)) == p


def apply_direct(m: DiagMatrix, v: SlotVector) -> SlotVector:
    """The diagonal method: apply_hlt_bsgs under the all-baby plan."""
    return apply_hlt_bsgs(m, baby_plan(m.diags, m.n), v)


def test_hlt_direct_equals_oracle():
    rng = random.Random(6)
    for n in (8, 64):
        for _ in range(50):
            p = Permutation.random(n, rng)
            m = perm_to_diag(p)
            v = SlotVector(tuple(rng.randrange(1000) for _ in range(n)))
            with CostLedger() as lg:
                out = apply_direct(m, v)
            assert list(out.slots) == p.apply(v.slots)
            assert lg.rotation_count == len([k for k in m.diag_set() if k])
            assert len(lg.of_kind("rescale")) == 1
            assert out.level == v.level - 1


@st.composite
def diag_matrices(draw):
    """A DiagMatrix of up to 16 slots with random non-zero entries on a
    random set of diagonals (possibly none)."""
    n = draw(st.integers(1, 16))
    rows = st.dictionaries(st.integers(0, n - 1),
                           st.integers(-9, 9).filter(bool), min_size=1)
    return DiagMatrix(n, draw(st.dictionaries(st.integers(0, n - 1), rows)))


@settings(max_examples=200, deadline=None)
@given(m=diag_matrices(), data=st.data())
@example(m=DiagMatrix(5), data=None)
@example(m=DiagMatrix(4, {0: {1: 3, 2: -2}}), data=None)
def test_baby_plan_is_the_diagonal_method(m, data):
    # the all-baby plan rotates once per non-zero off diagonal, by that
    # diagonal, multiplies one mask per diagonal and rescales once
    vals = list(range(1, m.n + 1)) if data is None else data.draw(
        st.lists(st.integers(-99, 99), min_size=m.n, max_size=m.n))
    v = SlotVector.from_list(vals)
    with CostLedger() as lg:
        out = apply_direct(m, v)
    assert out.to_list() == matvec(m, vals)
    assert sorted(op.step for op in lg.rotations) == \
        [k for k in m.diag_set() if k]
    assert lg.cmult_count == len(m.diags)
    assert len(lg.of_kind("rescale")) == 1
    assert len(lg.ops) == lg.rotation_count + lg.cmult_count + 1


def test_hlt_direct_identity_no_rotations():
    v = SlotVector((5, 6, 7, 8))
    with CostLedger() as lg:
        out = apply_direct(DiagMatrix.identity(4), v)
    assert out.slots == v.slots
    assert lg.rotation_count == 0


def test_empty_hlt_keeps_the_depth_of_its_input():
    # a matrix without diagonals gives zeros one rescale down; their depth
    # counts the levels the input had consumed, as the level does
    v = SlotVector((1, 2, 3, 4)).rescale().rescale()
    assert (v.level, v.depth_used) == (DEFAULT_LEVEL - 2, 2)
    out = apply_hlt_bsgs(DiagMatrix(4), plan_bsgs([], 4), v)
    assert out.to_list() == [0] * 4
    assert (out.level, out.depth_used) == (DEFAULT_LEVEL - 3, 3)
    assert out.depth_used == DEFAULT_LEVEL - out.level


def test_hlt_direct_transpose_2x2():
    v = SlotVector((1, 2, 3, 4))
    out = apply_direct(perm_to_diag(transpose_perm(2)), v)
    assert out.slots == (1, 3, 2, 4)


def test_matmul_against_dense():
    rng = random.Random(7)
    for _ in range(20):
        n = 8
        a = DiagMatrix(n)
        b = DiagMatrix(n)
        for m in (a, b):
            for _ in range(12):
                m.set_entry(rng.randrange(n), rng.randrange(n), rng.randrange(1, 5))
        da, db = to_dense(a), to_dense(b)
        expect = [[sum(da[i][k] * db[k][j] for k in range(n)) for j in range(n)]
                  for i in range(n)]
        assert to_dense(matmul(a, b)) == expect


def test_matmul_permutations_compose():
    rng = random.Random(8)
    for _ in range(20):
        p = Permutation.random(16, rng)
        q = Permutation.random(16, rng)
        prod = matmul(perm_to_diag(p), perm_to_diag(q))
        assert to_permutation(prod) == p.compose(q)


def test_matvec_oracle():
    rng = random.Random(9)
    p = Permutation.random(16, rng)
    vals = [rng.randrange(100) for _ in range(16)]
    assert matvec(perm_to_diag(p), vals) == p.apply(vals)


def test_convert_r_examples():
    assert convert_r(6, 3, 6, 16) == 3
    assert convert_r(3, 0, 6, 16) == 13
    for k in range(8):
        for l in range(8):
            assert convert_r(k, l, 0, 8) == (k + l) % 8


# -- BSGS ---------------------------------------------------------------------


def check_assignment(plan: BsgsPlan):
    for t, (g, j) in plan.assign.items():
        assert plan.n1 * g + j == t
        if j:
            assert j in plan.baby_window
        if g:
            assert g in plan.giant_window


@pytest.mark.parametrize("dmax,n1,d1,d2", [
    (7, 3, 3, 2),     # range 8
    (3, 2, 2, 1),     # range 4
    (15, 5, 4, 3),    # range 16
    (31, 10, 10, 3),  # range 32
])
def test_plan_symmetric_frozen(dmax, n1, d1, d2):
    plan = plan_bsgs(range(-dmax, dmax + 1), n=4 * (dmax + 1))
    assert plan.style == "symmetric"
    assert plan.n1 == n1
    # d1 babies, d2 giants on each side
    assert (len(plan.baby_window), len(plan.giant_window) // 2) == (d1, d2)
    assert len(plan.executed_steps()) == d1 + 2 * d2
    check_assignment(plan)


def test_plan_wide_full_range_is_sparse():
    # a full range of strided spread above 64 takes the sparse split, as
    # every wide chain factor does: range 256 runs 14 babies and 16 giants
    # at n1 = 15, at any stride
    for stride in (1, 127):
        offs = [stride * t for t in range(-127, 128)]
        plan = plan_bsgs(offs, n=4 * 128 * stride)
        assert (plan.style, plan.stride, plan.n1) == ("sparse", stride, 15)
        assert (len(plan.baby_window), len(plan.giant_window)) == (14, 16)
        assert len(plan.executed_steps()) == 30
        check_assignment(plan)


def test_plan_onesided():
    plan = plan_bsgs(range(16), n=64)
    assert plan.style == "onesided"
    m = DiagMatrix(64, {k: {0: 1, 5: 2} for k in range(16)})
    with CostLedger() as lg:
        apply_hlt_bsgs(m, plan, SlotVector.zeros(64))
    assert lg.rotation_count == len(plan.executed_steps()) \
        == len(plan.baby_window) + len(plan.giant_window)
    check_assignment(plan)


def test_plan_factor_sorts_its_input():
    # the planner takes offsets in any order: the same plan for a shuffled
    # set, on both sides of its strided-spread-64 shortcut, and the empty
    # baby plan for a factor with no diagonals
    rng = random.Random(31)
    cases = [list(range(-7, 8)), [3 * t for t in range(-40, 41)],
             [2 * t for t in rng.sample(range(-200, 201), 90)] + [2, 400],
             rng.sample(range(-300, 301), 120) + [1]]
    for offs in cases:
        plan = plan_bsgs(sorted(offs), 1024)
        for _ in range(3):
            rng.shuffle(offs)
            assert plan_bsgs(offs, 1024) == plan
    wide = [plan_bsgs(offs, 1024) for offs in cases[2:]]
    assert [p.stride for p in wide] == [2, 1]
    assert all(max(abs(t) for t in p.assign) > 64 for p in wide)
    assert plan_bsgs([], 16) == baby_plan([], 16)
    assert plan_bsgs([], 16).executed_steps() == []


@st.composite
def strided_diag_matrices(draw):
    """A DiagMatrix of up to 64 slots whose signed diagonals are multiples
    of a stride of 1, 2 or 4 (possibly none), with random non-zero entries."""
    stride = draw(st.sampled_from([1, 2, 4]))
    n = stride * draw(st.integers(1, 64 // stride))
    half = n // (2 * stride)  # |stride * t| <= n / 2
    rows = st.dictionaries(st.integers(0, n - 1),
                           st.integers(-9, 9).filter(bool), min_size=1)
    ts = draw(st.sets(st.integers(-half, half)))
    return DiagMatrix(n, {stride * t: draw(rows) for t in ts})


@settings(max_examples=200, deadline=None)
@given(m=strided_diag_matrices(), data=st.data())
@example(m=DiagMatrix(8), data=None)
@example(m=DiagMatrix(64, {2 * t: {t % 64: 1, 5: -2} for t in range(-15, 16)}),
         data=None)
def test_plan_factor_is_exact_and_no_dearer_than_baby(m, data):
    # the plan every chain factor gets by default: exact against matvec,
    # never more rotations than one per off diagonal, one level consumed
    vals = list(range(1, m.n + 1)) if data is None else data.draw(
        st.lists(st.integers(-99, 99), min_size=m.n, max_size=m.n))
    v = SlotVector.from_list(vals)
    with CostLedger() as lg:
        out = apply_hlt_bsgs(m, plan_bsgs(m.signed_diag_set(), m.n), v)
    with CostLedger() as baby:
        apply_direct(m, v)
    assert out.to_list() == matvec(m, vals)
    assert lg.rotation_count <= baby.rotation_count
    assert out.depth_used == v.depth_used + 1


def test_plan_single_offset_one_rotation():
    plan = plan_bsgs([5], n=32)
    assert len(plan.executed_steps()) == 1


# each plan that does not cover its matrix must be refused with ValueError
# matching the text, also under python -O
BAD_PLANS = {
    "diagonal 7 not covered by plan": lambda: apply_hlt_bsgs(
        DiagMatrix(16, {7: {0: 1}}), plan_bsgs([0, 1, 2], n=16),
        SlotVector.zeros(16)),
    "diagonal 3 not covered by plan": lambda: apply_hlt_bsgs(
        DiagMatrix(16, {3: {0: 1}, 6: {1: 1}}), plan_bsgs([6], n=16),
        SlotVector.zeros(16)),
}


def test_bad_plans_raise_value_error():
    assert_value_errors(BAD_PLANS)


def test_bad_plans_raise_without_asserts():
    assert_value_errors_without_asserts("test_diag", "BAD_PLANS")


def random_offset_sets(rng, count):
    """Seeded (offsets, n) cases: full symmetric ranges, one-sided ranges of
    either sign and sparse sets, of strided spread up to 80 (sparse: 300),
    so both sides of the spread-64 shortcut are drawn, at strides 1 to 5."""
    for i in range(count):
        stride = rng.choice([1, 1, 2, 3, 5])
        kind = i % 3
        dmax = rng.randint(0, rng.choice([64, 300]) if kind == 2 else 80)
        if kind == 0:
            ts = range(-dmax, dmax + 1)
        elif kind == 1:
            ts = range(rng.randint(0, min(1, dmax)), dmax + 1)
            if rng.random() < 0.5:
                ts = [-t for t in ts]
        else:
            ts = rng.sample(range(-dmax, dmax + 1),
                            rng.randint(1, min(2 * dmax + 1, 100)))
        n = 1 << max(3, (2 * stride * dmax + 1).bit_length())
        yield [stride * t for t in ts], n


def test_plan_bsgs_is_the_one_planner_of_offsets_and_n():
    # no stride, n1 or style to force: a plan follows from its offsets
    assert list(inspect.signature(plan_bsgs).parameters) == ["offsets", "n"]


def test_plan_bsgs_matches_per_candidate_reference():
    # counting the candidates and building only the winner must give the
    # plan, field for field, that building every candidate gave
    rng = random.Random(2024)
    seen = set()
    for offs, n in random_offset_sets(rng, 1500):
        plan = plan_bsgs(offs, n)
        assert plan == reference_plan_for(offs, n), (offs, n)
        dmax = max(abs(o) for o in offs) // plan.stride
        wide_full = dmax > 64 and len(offs) == 2 * dmax + 1
        seen.add((plan.style, plan.stride > 1, wide_full))
    # every split, strided and not, and strided and unstrided full ranges
    # wider than 64 are drawn
    assert {(st, strided) for st, strided, _ in seen} >= {
        (st, strided) for st in ("symmetric", "onesided", "sparse")
        for strided in (False, True)}
    assert {("sparse", False, True), ("sparse", True, True)} <= seen


def window_offset_sets(rng, count):
    """Seeded offset lists for the window counter, dmax 0..300: dense and
    sparse draws from both signs, positive-only and negative-only sides
    (with and without 0), full ranges, and a few offsets near +-dmax."""
    for i in range(count):
        dmax = rng.choice([rng.randint(0, 8), rng.randint(9, 64),
                           rng.randint(65, 300)])
        span = range(-dmax, dmax + 1)
        kind = i % 6
        if kind == 0:  # dense
            ts = rng.sample(span, rng.randint(dmax + 1, 2 * dmax + 1))
        elif kind == 1:  # sparse
            ts = rng.sample(span, rng.randint(1, max(1, dmax // 8)))
        elif kind in (2, 3):  # one side only
            ts = rng.sample(range(rng.randint(0, min(1, dmax)), dmax + 1),
                            rng.randint(1, max(1, dmax)))
            ts = ts if kind == 2 else [-t for t in ts]
        elif kind == 4:
            ts = list(span)
        else:
            ts = [dmax, -dmax, rng.choice(span)]
        yield ts


def test_window_counts_match_set_reference():
    # the bitset counter must give the set-based counts for every style and
    # n1 from 1 past dmax, plus powers of two up to 2^11
    rng = random.Random(13)
    for ts in window_offset_sets(rng, 240):
        dmax = max(abs(t) for t in ts)
        cands = sorted(set(range(1, dmax + 4)) | {1 << b for b in range(12)})
        for style in ("sparse", "symmetric", "onesided"):
            want = [reference_window_sizes(ts, n1, style, dmax)
                    for n1 in cands]
            assert _window_counts(ts, cands, style, dmax) == want, (ts, style)


def test_giants_match_reference_splits():
    # _giants must split every offset as the style's definition does, at
    # every n1 from 1 past dmax
    rng = random.Random(13)
    for ts in window_offset_sets(rng, 120):
        dmax = max(abs(t) for t in ts)
        for style in ("sparse", "symmetric", "onesided"):
            for n1 in range(1, dmax + 4):
                want = [reference_split(t, n1, style, dmax)[0] for t in ts]
                assert _giants(ts, n1, style, dmax) == want, (ts, style, n1)


# each non-permutation matrix must be refused with ValueError, also under
# python -O
def _matrix(n, entries):
    m = DiagMatrix(n)
    for k, l, val in entries:
        m.set_entry(k, l, val)
    return m


BAD_PERMUTATION_MATRICES = {
    "entry 2 at row 1, column 1": lambda: to_permutation(
        _matrix(2, [(0, 0, 1), (0, 1, 2)])),
    "column 0 has entries in rows 0 and 3": lambda: to_permutation(
        _matrix(4, [(0, 0, 1), (1, 3, 1), (0, 1, 1), (0, 2, 1)])),
    "every target in 0..3 must appear once": lambda: to_permutation(
        _matrix(4, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])),
    # diagonal 3 filled first: the diagonals are walked by k all the same
    "column 1 has entries in rows 1 and 2": lambda: to_permutation(
        _matrix(4, [(3, 2, 1), (0, 1, 1), (0, 0, 1), (0, 3, 1)])),
    # n entries, one per column, but row 0 twice and row 1 never
    "every target in 0..7 must appear once": lambda: to_permutation(
        _matrix(8, [(1, 0, 1)] + [(0, l, 1) for l in range(8) if l != 1])),
}


def test_bad_permutation_matrices_raise_value_error():
    assert_value_errors(BAD_PERMUTATION_MATRICES)


def test_bad_permutation_matrices_raise_without_asserts():
    assert_value_errors_without_asserts("test_diag",
                                        "BAD_PERMUTATION_MATRICES")


def reference_to_permutation(m):
    """The walk over the sorted entries() that to_permutation replaced."""
    targets = [-1] * m.n
    for k, l, val in m.entries():
        src = (l + k) % m.n
        if val != 1 or targets[src] != -1:
            raise ValueError("not a permutation matrix")
        targets[src] = l
    return Permutation(targets)


def test_to_permutation_accepts_what_the_sorted_walk_accepted():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.choice([1, 2, 4, 8])
        p = Permutation.random(n, rng)
        m = perm_to_diag(p)
        assert to_permutation(m) == p
        for _ in range(rng.randint(1, 2)):  # add or overwrite entries
            m.set_entry(rng.randrange(n), rng.randrange(n),
                        rng.choice([1, 1, 2, -1]))
        try:
            ref = reference_to_permutation(m)
        except ValueError:
            with pytest.raises(ValueError, match="not a permutation"):
                to_permutation(m)
        else:
            assert to_permutation(m) == ref


# a zero entry must be refused, also under python -O: stored, it would count
# as a diagonal and cost a rotation and a mask
BAD_ENTRIES = {
    "zero entry at diagonal 3, row 1": lambda: DiagMatrix(8).set_entry(
        3, 1, 0),
}


def test_bad_entries_raise_value_error():
    assert_value_errors(BAD_ENTRIES)


def test_bad_entries_raise_without_asserts():
    assert_value_errors_without_asserts("test_diag", "BAD_ENTRIES")


# each evaluator the cost model replays through, and the matrix product,
# must refuse an operand of another slot count with ValueError, also under
# python -O
BAD_DIMENSIONS = {
    "matrix n=8, vector n=4, plan n=8": lambda: apply_hlt_bsgs(
        DiagMatrix.identity(8), baby_plan([0], 8), SlotVector.zeros(4)),
    "matrix n=16, vector n=8, plan n=16": lambda: apply_hlt_bsgs(
        DiagMatrix.identity(16), plan_bsgs([0, 1], n=16),
        SlotVector.zeros(8)),
    "matrix n=8, vector n=16, plan n=16": lambda: apply_hlt_bsgs(
        DiagMatrix.identity(8), plan_bsgs([0, 1], n=16),
        SlotVector.zeros(16)),
    "matrix n=16, vector n=16, plan n=8": lambda: apply_hlt_bsgs(
        DiagMatrix.identity(16), plan_bsgs([0, 1], n=8),
        SlotVector.zeros(16)),
    "chain n=8, vector n=4": lambda: PaddedChain(
        8, [1], [], (1,) * 8).evaluate(SlotVector.zeros(4)),
    "matmul of matrices n=4 and n=8": lambda: matmul(
        DiagMatrix.identity(4), DiagMatrix.identity(8)),
}


def test_bad_dimensions_raise_value_error():
    assert_value_errors(BAD_DIMENSIONS)


def test_bad_dimensions_raise_without_asserts():
    assert_value_errors_without_asserts("test_diag", "BAD_DIMENSIONS")


def full_range_matrix(n, stride, dmax, rng):
    """Non-permutation matrix with every diagonal stride*t, |t| <= dmax,
    populated on several rows (so every plan step is exercised)."""
    m = DiagMatrix(n)
    for t in range(-dmax, dmax + 1):
        k = (stride * t) % n
        for _ in range(3):
            m.set_entry(k, rng.randrange(n), rng.randrange(1, 9))
    return m


def test_bsgs_equals_direct_symmetric():
    rng = random.Random(10)
    n, stride, dmax = 64, 3, 7
    m = full_range_matrix(n, stride, dmax, rng)
    plan = plan_bsgs([stride * t for t in range(-dmax, dmax + 1)], n=n)
    assert (plan.style, plan.stride) == ("symmetric", stride)
    v = SlotVector(tuple(rng.randrange(50) for _ in range(n)))
    with CostLedger() as lg:
        out = apply_hlt_bsgs(m, plan, v)
    assert out.to_list() == matvec(m, v.to_list())
    assert lg.rotation_count == len(plan.executed_steps()) \
        == len(plan.baby_window) + len(plan.giant_window)
    assert len(lg.of_kind("rescale")) == 1


def test_bsgs_equals_direct_random_structured():
    rng = random.Random(11)
    for _ in range(50):
        n = 64
        stride = rng.choice([1, 2, 3, 5])
        dmax = rng.randrange(2, 9)
        m = full_range_matrix(n, stride, dmax, rng)
        plan = plan_bsgs([stride * t for t in range(-dmax, dmax + 1)], n=n)
        v = SlotVector(tuple(rng.randrange(50) for _ in range(n)))
        assert apply_hlt_bsgs(m, plan, v).to_list() == matvec(m, v.to_list())


def test_bsgs_full_16_perm_six_rotations():
    # generic 16x16 permutation, unsigned diagonals [0,16): the planner
    # splits them with n1 = n2 = 4
    rng = random.Random(12)
    p = Permutation.random(16, rng)
    m = perm_to_diag(p)
    plan = plan_bsgs(range(16), n=16)
    assert (plan.style, plan.n1) == ("onesided", 4)
    v = SlotVector(tuple(rng.randrange(100) for _ in range(16)))
    with CostLedger() as lg:
        out = apply_hlt_bsgs(m, plan, v)
    assert list(out.slots) == p.apply(v.slots)
    assert lg.rotation_count <= 6


def test_bsgs_transpose_d128():
    # transpose for d=128: diagonals 127*t, t in [-127, 127]; the planned
    # sparse split, as in test_plan_wide_full_range_is_sparse, runs one
    # rotation per executed step
    d = 128
    n = d * d
    p = transpose_perm(d)
    m = perm_to_diag(p)
    assert to_permutation(m) == p
    plan = plan_bsgs([(d - 1) * t for t in range(-(d - 1), d)], n=n)
    assert (plan.style, plan.stride) == ("sparse", d - 1)
    rng = random.Random(13)
    v = SlotVector(tuple(rng.randrange(100) for _ in range(n)))
    with CostLedger() as lg:
        out = apply_hlt_bsgs(m, plan, v)
    assert list(out.slots) == p.apply(v.slots)
    assert lg.rotation_count == len(plan.executed_steps()) == 14 + 16


def test_bsgs_plan_coverage_error():
    m = DiagMatrix(16)
    m.set_entry(7, 0, 1)
    plan = plan_bsgs([0, 1, 2], n=16)
    with pytest.raises(PlanCoverageError):
        apply_hlt_bsgs(m, plan, SlotVector.zeros(16))


def test_bsgs_key_steps():
    plan = plan_bsgs([3 * t for t in range(-7, 8)], n=64)
    m = full_range_matrix(64, 3, 7, random.Random(14))
    with CostLedger() as lg:
        apply_hlt_bsgs(m, plan, SlotVector.zeros(64))
    keys = lg.key_set()
    assert 0 not in keys
    assert keys == set(plan.executed_steps())
    assert len(keys) <= lg.rotation_count


# ------------------------------------------- position masks against dense


def _op_stream(led):
    return [(op.kind, op.level, op.tag, op.step) for op in led.ops]


def _random_matrix(n, rng, zero_one):
    """A few random diagonals, each with random rows: all 1 when zero_one,
    else values in -9..9 with some diagonals all 1 among them."""
    m = DiagMatrix(n)
    for k in rng.sample(range(n), rng.randint(1, min(n, 9))):
        ones = zero_one or rng.random() < 0.3
        for l in rng.sample(range(n), rng.randint(1, n)):
            val = 1 if ones else rng.choice([-9, -2, -1, 1, 2, 3, 9])
            m.set_entry(k, l, val)
    return m


def _power_paths(steps):
    """Each step as the rotations by the powers of two it sums."""
    return {s: tuple(1 << b for b in range(s.bit_length()) if s >> b & 1)
            for s in steps}


@pytest.mark.parametrize("zero_one", [True, False], ids=["0-1", "general"])
def test_hlt_position_masks_match_dense_masks(zero_one):
    # apply_hlt_bsgs, with masks made once (hlt_masks) or as it goes, gives
    # the dense-mask evaluator's output and op stream, for any plan, with
    # and without key paths, on dense, sparse and zero inputs
    rng = random.Random(f"hlt:{zero_one}")
    for _ in range(15):
        n = rng.choice([8, 16, 64])
        m = _random_matrix(n, rng, zero_one)
        vals = [rng.randint(-50, 50) for _ in range(n)]
        dense = SlotVector.from_list(vals, level=9)
        inputs = [dense, SlotVector.zeros(n),
                  dense.cmult(PositionMask(n, rng.sample(range(n), n // 4)))]
        assert type(inputs[2].slots) is not tuple
        offs = m.signed_diag_set()
        for plan in (plan_bsgs(offs, n), baby_plan(offs, n),
                     baby_plan(m.diags, n)):
            made = hlt_masks(m, plan)
            assert made.keys() == m.diags.keys()
            for k, mask in made.items():
                ones = set(m.diags[k].values()) == {1}
                assert (type(mask) is PositionMask) == ones
            assert all(type(mask) is PositionMask
                       for mask in made.values()) or not zero_one
            for key_paths in (None, _power_paths(plan.executed_steps())):
                for v in inputs:
                    with CostLedger() as ref:
                        want = reference_apply_hlt_bsgs(m, plan, v, "t",
                                                        key_paths)
                    assert want.to_list() == matvec(m, v.to_list())
                    for masks in (None, made):
                        with CostLedger() as led:
                            got = apply_hlt_bsgs(m, plan, v, "t", key_paths,
                                                 masks)
                        assert got.to_list() == want.to_list()
                        assert (got.level, got.depth_used) \
                            == (want.level, want.depth_used)
                        assert _op_stream(led) == _op_stream(ref)
