"""Slot-vector semantics, rotation convention, permutation application."""

import json
import random
from dataclasses import replace

import pytest

from permdec.ledger import CostLedger, Op
from permdec.slots import (
    DEFAULT_LEVEL,
    DepthExhaustedError,
    Permutation,
    PositionMask,
    SlotVector,
    _Sparse,
    rotate_tuple,
)

from util import assert_value_errors, assert_value_errors_without_asserts


def test_rotate_left_shift():
    v = SlotVector((1, 2, 3, 4))
    assert v.rotate(1).slots == (2, 3, 4, 1)


def test_rotate_zero_identity():
    v = SlotVector((1, 2, 3, 4))
    assert v.rotate(0).slots == (1, 2, 3, 4)


def test_rotate_negative_wraps():
    v = SlotVector((1, 2, 3, 4))
    # rotate by -1 equals three successive rotates by 1
    w = v.rotate(1).rotate(1).rotate(1)
    assert v.rotate(-1).slots == w.slots == (4, 1, 2, 3)


def test_rotate_composition_law():
    rng = random.Random(1)
    for _ in range(50):
        n = 16
        v = SlotVector(tuple(rng.randrange(100) for _ in range(n)))
        k1, k2 = rng.randrange(-n, n), rng.randrange(-n, n)
        assert v.rotate(k1).rotate(k2).slots == v.rotate((k1 + k2) % n).slots


def test_cmult_masks():
    v = SlotVector((1, 2, 3, 4))
    assert v.cmult([1, 1, 1, 1]).slots == (1, 2, 3, 4)
    assert v.cmult([0, 1, 0, 1]).slots == (0, 2, 0, 4)
    assert SlotVector((5, 5, 5, 5)).cmult([2, 0, 2, 0]).slots == (10, 0, 10, 0)


def dense(mask: PositionMask) -> list[int]:
    out = [0] * mask.n
    for p in mask.positions:
        out[p] = 1
    return out


def test_position_mask_matches_dense_mask():
    rng = random.Random(11)
    for n in (1, 4, 16, 64):
        for _ in range(20):
            picks = [rng.randrange(n) for _ in range(rng.randrange(n + 1))]
            mask = PositionMask(n, rng.choice([set(picks), picks]))
            level = rng.randrange(1, DEFAULT_LEVEL + 1)
            for v in (SlotVector(tuple(rng.randrange(-99, 100)
                                       for _ in range(n)), level, 2),
                      SlotVector.zeros(n, level)):
                with CostLedger() as sparse_lg:
                    sparse = v.cmult(mask, "t")
                with CostLedger() as dense_lg:
                    want = v.cmult(dense(mask), "t")
                assert sparse_lg.ops == dense_lg.ops
                assert (sparse.n, sparse.level, sparse.depth_used) == \
                    (want.n, want.level, want.depth_used) == \
                    (n, level, v.depth_used)
                assert sparse.slots == want.slots
                assert sparse == want


def test_sparse_add_matches_dense_add():
    rng = random.Random(12)
    n = 32

    def rand_vec(level):
        return SlotVector(tuple(rng.randrange(-99, 100) for _ in range(n)),
                          level)

    for _ in range(50):
        u, w = rand_vec(5), rand_vec(3)
        mu = PositionMask(n, {rng.randrange(n) for _ in range(rng.randrange(n))})
        mw = PositionMask(n, [rng.randrange(n) for _ in range(rng.randrange(n))])
        with CostLedger() as sparse_lg:
            su, sw = u.cmult(mu), w.cmult(mw)
        with CostLedger() as dense_lg:
            du, dw = u.cmult(dense(mu)), w.cmult(dense(mw))
        assert sparse_lg.ops == dense_lg.ops
        for got, want in ((su + w, du + w), (w + su, w + du),
                          (su + sw, du + dw), (sw + su, dw + du),
                          (su.rescale() + sw, du.rescale() + dw)):
            assert got.slots == want.slots
            assert (got.level, got.depth_used) == (want.level, want.depth_used)
            assert got == want and hash(got) == hash(want)
        # adding a product to a sum of products stays exact
        again = (su + sw) + su
        assert again.slots == ((du + dw) + du).slots
        assert again == (du + dw) + du


def test_sparse_ops_refuse_bad_operands():
    zeros, real = SlotVector.zeros(4), SlotVector((1, 2, 3, 4))
    mask = PositionMask(4, [1, 2])
    with pytest.raises(ValueError, match="slot length mismatch: 8 != 4"):
        real.cmult(mask) + SlotVector.zeros(8).cmult(PositionMask(8, [0]))
    # a position past the end raises IndexError, as building the dense
    # mask does, and records nothing
    for v in (real, zeros):
        with pytest.raises(IndexError):
            dense(PositionMask(4, [1, 4]))
        with CostLedger() as lg, pytest.raises(IndexError):
            v.cmult(PositionMask(4, [1, 4]))
        assert lg.ops == []


def test_equality_ignores_support():
    v = SlotVector((1, 2, 3, 4), level=6)
    sparse = v.cmult(PositionMask(4, [0, 3]))
    assert sparse == SlotVector((1, 0, 0, 4), level=6)
    assert hash(sparse) == hash(SlotVector((1, 0, 0, 4), level=6))
    assert sparse != SlotVector((1, 0, 0, 4), level=5)
    # a product on 2 of 32 slots is held as its support, and reads, compares
    # and hashes as the dense product
    v = SlotVector(tuple(range(1, 33)), level=6)
    sparse = v.cmult(PositionMask(32, [0, 31]), "m")
    want = (1,) + (0,) * 30 + (32,)
    assert not isinstance(sparse.slots, tuple)
    assert sparse.slots == want and want == sparse.slots
    assert (len(sparse.slots), tuple(sparse.slots), sparse.to_list()) == \
        (32, want, list(want))
    assert [sparse.slots[i] for i in range(-32, 32)] == list(want) * 2
    assert sparse.slots[1:] == want[1:]
    assert sparse == SlotVector(want, level=6) == v.cmult(dense(
        PositionMask(32, [0, 31])))
    assert hash(sparse) == hash(SlotVector(want, level=6))
    assert sparse != SlotVector(want, level=5)
    assert sparse != SlotVector(want, level=6, depth_used=1)
    for i in (32, -33):
        with pytest.raises(IndexError):
            sparse.slots[i]


# masks of the randomized op runs: a set, a list with repeats (negative
# positions index from the end), or nothing
def _random_mask(rng, n: int) -> PositionMask:
    kind = rng.randrange(4)
    if kind == 0:
        return PositionMask(n, [])
    size = rng.choice([1, 2, max(1, n // 8), n])
    picks = [rng.randrange(-n, n) for _ in range(rng.randrange(size + 1))]
    if kind == 1:
        return PositionMask(n, {p % n for p in picks})
    return PositionMask(n, picks + picks[: len(picks) // 2])


def _random_program(rng, n: int, length: int) -> list[tuple]:
    """Ops over a growing pool of vectors; ("cmult", i, mask) etc. name
    pool indices, and every op appends its result to the pool."""
    prog, size, levels = [], 1, [DEFAULT_LEVEL]
    for _ in range(length):
        i, j = rng.randrange(size), rng.randrange(size)
        kind = rng.choice(["pmask", "pmask", "pmask", "rotate", "add", "add",
                           "rescale", "mult", "dmask"])
        if kind == "pmask":
            op, level = ("pmask", i, _random_mask(rng, n)), levels[i]
        elif kind == "rotate":
            op, level = ("rotate", i, rng.randrange(-2 * n, 2 * n)), levels[i]
        elif kind == "add":
            op, level = ("add", i, j), min(levels[i], levels[j])
        elif kind == "rescale" and levels[i] > 0:
            op, level = ("rescale", i), levels[i] - 1
        elif kind == "mult":
            op, level = ("mult", i, j), min(levels[i], levels[j])
        else:
            mask = [rng.randrange(-3, 4) for _ in range(n)]
            op, level = ("dmask", i, mask), levels[i]
        prog.append(op)
        levels.append(level)
        size += 1
    return prog


def _run_program(prog, v: SlotVector, position_masks: bool):
    pool = [v]
    with CostLedger() as lg:
        for op in prog:
            kind, i = op[0], op[1]
            a = pool[i]
            if kind == "pmask":
                mask = op[2] if position_masks else dense(op[2])
                out = a.cmult(mask, "p")
            elif kind == "rotate":
                out = a.rotate(op[2], "r")
            elif kind == "add":
                out = a + pool[op[2]]
            elif kind == "rescale":
                out = a.rescale("s")
            elif kind == "mult":
                out = a.mult(pool[op[2]], "m")
            else:
                out = a.cmult(op[2], "d")
            pool.append(out)
    return pool, lg.ops


@pytest.mark.parametrize("n", [1, 4, 32, 256])
def test_random_sparse_runs_match_dense_mask_runs(n):
    rng = random.Random(1000 + n)
    held_sparse = 0
    for _ in range(40):
        prog = _random_program(rng, n, 30)
        v = SlotVector(tuple(rng.randrange(-9, 10) for _ in range(n)),
                       depth_used=rng.randrange(3))
        got, got_ops = _run_program(prog, v, True)
        want, want_ops = _run_program(prog, v, False)
        zeros, zeros_ops = _run_program(
            prog, replace(SlotVector.zeros(n), depth_used=v.depth_used),
            True)
        assert got_ops == want_ops == zeros_ops
        for g, w, z in zip(got, want, zeros):
            assert (g.n, g.level, g.depth_used) == \
                (w.n, w.level, w.depth_used) == (z.n, z.level, z.depth_used)
            assert z.to_list() == [0] * n
            assert g.slots == w.slots and tuple(g.slots) == w.slots
            assert g.to_list() == w.to_list()
            assert g == w and hash(g) == hash(w)
            held_sparse += not isinstance(g.slots, tuple)
        # an out-of-range position raises on a dense, a sparse and an
        # all-zero vector, and records nothing
        forms = {isinstance(x.slots, tuple): x for x in got}
        for u in [*forms.values(), zeros[-1]]:
            for bad in ([n], [-n - 1], {0, n + 5}, [0, 0, n]):
                with CostLedger() as lg, pytest.raises(IndexError):
                    u.cmult(PositionMask(n, bad))
                assert lg.ops == []
    # the runs must reach the sparse form, or they compared dense to dense
    assert held_sparse > 0


def test_add_levels():
    a = SlotVector((1, 2), level=5)
    b = SlotVector((3, 4), level=3)
    out = a + b
    assert out.slots == (4, 6)
    assert out.level == 3


def test_rescale_counts_down():
    v = SlotVector((1, 2, 3, 4))
    assert v.level == DEFAULT_LEVEL == 17
    w = v.rescale()
    assert w.level == 16 and w.depth_used == 1
    # the 18-moduli chain supports depth 17
    for _ in range(16):
        w = w.rescale()
    assert w.level == 0 and w.depth_used == 17
    with pytest.raises(DepthExhaustedError):
        w.rescale()


def test_ledger_records_ops():
    v = SlotVector((1, 2, 3, 4))
    with CostLedger() as lg:
        v.rotate(1, tag="x").rotate(0).cmult([1, 0, 1, 0]).rescale()
        v.rotate(-1)
        v.rescale().mult(v, tag="m")
    assert lg.rotation_count == 2  # step-0 rotation is free and unrecorded
    assert lg.cmult_count == 1
    assert len(lg.of_kind("rescale")) == 2
    assert len(lg.of_kind("mult")) == 1
    assert lg.rotations_by_tag()["x"] == 1
    # one stream in execution order: a rescale records the level it drops
    # from, a mult the lower of its operand levels
    assert [(op.kind, op.level, op.tag, op.step) for op in lg.ops] == [
        ("rotate", 17, "x", 1),
        ("cmult", 17, "", 0),
        ("rescale", 17, "", 0),
        ("rotate", 17, "", 3),
        ("rescale", 17, "", 0),
        ("mult", 16, "m", 0),
    ]


def test_ledger_nesting_inner_wins():
    v = SlotVector((1, 2, 3, 4))
    with CostLedger() as outer:
        v.rotate(1)
        with CostLedger() as inner:
            v.rotate(2)
        v.rotate(3)
    assert inner.rotation_count == 1
    assert outer.rotation_count == 2


def test_zeros_ops_keep_bookkeeping_and_record_like_real_ones():
    def run(v):
        with CostLedger() as lg:
            w = v.rotate(1, "a").cmult([1, 0, 1, 0], "b").rescale("c")
            w = (w + v.zeros_like().rescale()).mult(w, "d").rotate(4, "e")
        return w, lg.ops

    real, real_ops = run(SlotVector((1, 2, 3, 4), level=5))
    zeros, zeros_ops = run(SlotVector.zeros(4, level=5))
    assert zeros_ops == real_ops
    assert (zeros.n, zeros.level, zeros.depth_used) == \
        (real.n, real.level, real.depth_used) == (4, 4, 1)
    assert zeros.to_list() == [0] * 4 and real.to_list() != [0] * 4
    # the zero vector holds no support, at any level
    for z in (SlotVector.zeros(4), SlotVector.zeros(4, 3).zeros_like()):
        assert z.to_list() == [0] * 4 and not z.slots.vals
    assert SlotVector.zeros(4, 3).zeros_like().level == 3


def test_dense_mask_on_sparse_vector_stays_sparse():
    # a cmult by an n-long list scales only the support of a sparse vector
    rng = random.Random(13)
    n = 64
    for _ in range(20):
        v = SlotVector(tuple(rng.randrange(-99, 100) for _ in range(n)), 9)
        picks = {rng.randrange(n) for _ in range(rng.randrange(n // 4))}
        sparse = v.cmult(PositionMask(n, picks))
        mask = [rng.randrange(-3, 4) for _ in range(n)]
        with CostLedger() as sparse_lg:
            got = sparse.cmult(mask, "m")
        with CostLedger() as dense_lg:
            want = SlotVector(tuple(sparse.slots), 9).cmult(mask, "m")
        assert isinstance(got.slots, _Sparse)
        assert got.slots.vals.keys() <= sparse.slots.vals.keys()
        assert isinstance(want.slots, tuple)
        assert got == want and got.to_list() == want.to_list()
        assert sparse_lg.ops == dense_lg.ops == [Op("cmult", 9, "m")]


# each bad call must raise ValueError matching the text, also under python -O
BAD_SLOT_OPS = {
    "slot length mismatch: 2 != 4":
        lambda: SlotVector.zeros(4).cmult([1, 1]),
    "slot length mismatch: 3 != 2":
        lambda: SlotVector.zeros(2).cmult([1, 1, 1]),
    "slot length mismatch: 5 != 2":
        lambda: SlotVector.zeros(2).cmult(PositionMask(5, [0])),
    "slot length mismatch: 3 != 4":
        lambda: SlotVector.zeros(4).mult(SlotVector.zeros(3)),
    "slot length mismatch: 8 != 4":
        lambda: SlotVector.zeros(4).add(SlotVector.zeros(8)),
    "slot length mismatch: 5 != 4":
        lambda: Permutation.identity(4).apply([0] * 5),
    "slot length mismatch: 6 != 4":
        lambda: Permutation.identity(4).compose(Permutation.identity(6)),
}


def test_bad_slot_ops_raise_value_error():
    assert_value_errors(BAD_SLOT_OPS)


def test_bad_slot_ops_raise_without_asserts():
    assert_value_errors_without_asserts("test_slots", "BAD_SLOT_OPS")


def test_permutation_apply_and_inverse():
    rng = random.Random(2)
    for _ in range(50):
        n = 32
        p = Permutation.random(n, rng)
        vals = [rng.randrange(1000) for _ in range(n)]
        moved = p.apply(vals)
        for i in range(n):
            assert moved[p.targets[i]] == vals[i]
        assert p.inverse().apply(moved) == vals
        assert p.compose(p.inverse()) == Permutation.identity(n)


# each non-permutation must be refused with ValueError, also under python -O:
# floats and bools compare equal to the ints they stand for, so a sort alone
# would accept them
BAD_PERMUTATIONS = {
    "targets must be integers, not float": lambda: Permutation([1.0, 0.0]),
    "targets must be integers, not bool": lambda: Permutation([True, False]),
    "targets must be integers, not float, str":
        lambda: Permutation([0, 1.0, "2"]),
    "every target in 0..2 must appear once": lambda: Permutation([0, 1, 1]),
    "'n' must be an integer, not float": lambda: Permutation.from_json(
        {"n": 4.0, "targets": [1, 0, 3, 2]}),
    "'n' must be an integer, not bool": lambda: Permutation.from_json(
        {"n": True, "targets": [0]}),
    "'targets' must be a list, not int": lambda: Permutation.from_json(
        {"n": 1, "targets": 5}),
    "'targets' must be a list, not NoneType": lambda: Permutation.from_json(
        {"n": 1, "targets": None}),
}


def test_bad_permutations_raise_value_error():
    assert_value_errors(BAD_PERMUTATIONS)


def test_bad_permutations_raise_without_asserts():
    assert_value_errors_without_asserts("test_slots", "BAD_PERMUTATIONS")


@pytest.mark.parametrize("n", [1, 2, 64, 4096])
def test_compose_matches_validated_reference(n):
    # compose and inverse build their results without the constructor's
    # checks; each must equal the validated permutation the old list
    # comprehension built, in == and in hash
    rng = random.Random(n)
    for _ in range(3):
        p, q = Permutation.random(n, rng), Permutation.random(n, rng)
        ref = Permutation([p.targets[q.targets[i]] for i in range(n)])
        got = p.compose(q)
        assert type(got.targets) is tuple
        assert (got.targets, got.n) == (ref.targets, ref.n)
        assert got == ref and hash(got) == hash(ref)
        inv = p.inverse()
        assert inv == Permutation(inv.targets) and inv.n == n
        assert p.compose(inv) == inv.compose(p) == Permutation.identity(n)
    with pytest.raises(ValueError, match=f"slot length mismatch: {n + 1}"):
        Permutation.identity(n).compose(Permutation.identity(n + 1))


def test_permutation_compose_order():
    # compose(first) applies `first` then self
    n = 8
    f = Permutation.rotation(n, 1)
    g = Permutation.rotation(n, 2)
    h = g.compose(f)
    vals = list(range(n))
    assert h.apply(vals) == g.apply(f.apply(vals))
    assert h == Permutation.rotation(n, 3)


def test_rotation_permutation_matches_rotate():
    rng = random.Random(3)
    n = 16
    for k in range(-n, n):
        v = SlotVector(tuple(rng.randrange(100) for _ in range(n)))
        p = Permutation.rotation(n, k)
        assert tuple(p.apply(v.slots)) == v.rotate(k).slots


def test_permutation_json_roundtrip(tmp_path):
    rng = random.Random(4)
    p = Permutation.random(64, rng)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_json()))
    assert Permutation.load(path) == p


def test_rotate_tuple_helper():
    assert rotate_tuple([1, 2, 3, 4], 1) == (2, 3, 4, 1)
    assert rotate_tuple((1, 2, 3, 4), -1) == (4, 1, 2, 3)
