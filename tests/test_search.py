import random
import signal
from contextlib import contextmanager
from itertools import permutations

import pytest

from permdec.chain import DecompositionChain
from permdec.diag import (DiagMatrix, matmul, matvec, perm_to_diag,
                          to_permutation)
from permdec.search import (
    SearchParams,
    diag_profile,
    enumerate_depth1,
    max_ideal_depth,
    search_depth1,
    validate_ideal_chain,
)
from permdec.slots import Permutation, SlotVector
from permdec.structured import (LADDERS, _max_rounds, build_sigma, build_tau,
                                build_ut)

from util import (assert_value_errors, assert_value_errors_without_asserts,
                  depth1_oracle, random_perm_with_diags, transpose_perm)


def a1_params(u):
    """Forced common-difference-1 parameters for any permutation matrix."""
    n = u.n
    reps = [min((k, k - n), key=lambda c: (abs(c), -c)) for k in u.diag_set()]
    return SearchParams(n, 1, max(abs(x) for x in reps))


def a1_case(p):
    u = perm_to_diag(p)
    return u, a1_params(u)


def test_params_rc_sequence():
    p = SearchParams(32, 2, 12)
    assert p.rho == 6
    assert [p.rc(i) for i in (1, 2, 3)] == [6, 4, 2]
    assert p.max_depth_cap() == 2


def test_params_aligned_rep():
    p = SearchParams(16, 3, 9)
    assert p.aligned_rep(9) == 9       # -7 is not a multiple of 3
    assert p.aligned_rep(13) == -3
    assert p.aligned_rep(0) == 0
    with pytest.raises(ValueError):
        p.aligned_rep(5)
    q = SearchParams(16, 1, 8)
    assert q.aligned_rep(9) == -7
    assert q.aligned_rep(8) == 8       # tie between +-8 goes positive


# each bad parameter set must raise ValueError matching the text, also under
# python -O
BAD_SEARCH_PARAMS = {
    "got n=0, a=1, r=0": lambda: SearchParams(0, 1, 0),
    "got n=16, a=0, r=0": lambda: SearchParams(16, 0, 0),
    "got n=16, a=1, r=16": lambda: SearchParams(16, 1, 16),
    "got n=16, a=1, r=-1": lambda: SearchParams(16, 1, -1),
    "radius r=4 is not a multiple of stride a=3":
        lambda: SearchParams(16, 3, 4),
}


def test_bad_search_params_raise_value_error():
    assert_value_errors(BAD_SEARCH_PARAMS)


def test_bad_search_params_raise_without_asserts():
    assert_value_errors_without_asserts("test_search", "BAD_SEARCH_PARAMS")


def test_profile_even_diag_window():
    m = DiagMatrix(32)
    row = 0
    for k in (0, 2, 30, 4, 28, 6, 26):
        m.set_entry(k, row, 1)
        row += 1
    prof = diag_profile(m)
    assert (prof.a, prof.r) == (2, 6)


def test_profile_transpose_d4():
    u = perm_to_diag(transpose_perm(4))
    prof = diag_profile(u)
    assert (prof.n, prof.a, prof.r) == (16, 3, 9)


def test_profile_identity():
    u = perm_to_diag(Permutation.identity(8))
    prof = diag_profile(u)
    assert (prof.a, prof.r) == (1, 0)


def test_profile_onesided():
    m = DiagMatrix(16)
    row = 0
    for k in (0, 4, 8, 12):
        m.set_entry(k, row, 1)
        row += 1
    prof = diag_profile(m, onesided=True)
    assert (prof.a, prof.r, prof.onesided) == (4, 12, True)


def test_search_identity():
    u = perm_to_diag(Permutation.identity(8))
    got = search_depth1(u, diag_profile(u))
    assert got is not None
    ul, ur = got
    assert to_permutation(ul).targets == tuple(range(8))
    assert to_permutation(ur).targets == tuple(range(8))


def test_search_transpose_d4_matches_known_structure():
    u = perm_to_diag(transpose_perm(4))
    params = diag_profile(u)
    got = search_depth1(u, params)
    assert got is not None
    ul, ur = got
    assert set(ur.diag_set()) == {0, 6, 10}          # {0, +-6} on n=16
    assert set(ul.diag_set()) <= {0, 3, 13}          # within {0, +-3}
    assert matmul(ul, ur) == u
    rep = validate_ideal_chain(u, DecompositionChain(16, [ul, ur]), params)
    assert rep.ok and rep.rc_sequence == [6] and rep.r_prime == 3


def test_enumerate_transpose_d4_unique():
    u = perm_to_diag(transpose_perm(4))
    params = diag_profile(u)
    sols = enumerate_depth1(u, params)
    assert len(sols) == 1
    assert depth1_oracle(u, params.a, params.r, params.rc(1),
                         count_all=True) == 1


def test_search_on_rc_support_returns_identity_left(rng):
    # a matrix already supported on {0, +-r_c} factors as (I, itself) first
    n = 32
    u = perm_to_diag(random_perm_with_diags(n, {0, 6, n - 6}, rng))
    params = diag_profile(u)
    assert (params.a, params.r) == (6, 6)
    ul, ur = search_depth1(u, params)
    assert to_permutation(ul).targets == tuple(range(n))
    assert ur == u


def test_exhaustive_existence_matches_oracle_small_n():
    checked = found = 0
    for n in range(2, 8):
        for tg in permutations(range(n)):
            u = perm_to_diag(Permutation(list(tg)))
            params = a1_params(u)
            rc = params.rc(1)
            got = search_depth1(u, params)
            orc = depth1_oracle(u, 1, params.r, rc)
            assert (got is None) == (orc is None), (n, tg)
            checked += 1
            if got is not None:
                found += 1
                ul, ur = got
                rep = validate_ideal_chain(
                    u, DecompositionChain(n, [ul, ur]), params)
                assert rep.ok, (tg, rep.details)
    assert checked == sum(
        len(list(permutations(range(n)))) for n in range(2, 8))
    assert 0 < found < checked


def test_exhaustive_n8_sampled_against_oracle(rng):
    perms = [Permutation.random(8, rng) for _ in range(400)]
    for p in perms:
        u = perm_to_diag(p)
        params = a1_params(u)
        got = search_depth1(u, params)
        orc = depth1_oracle(u, 1, params.r, params.rc(1))
        assert (got is None) == (orc is None), p.targets


def test_conflict_moves_fire():
    # at least one small case must require relocating a 0-routed entry
    hit = 0
    for tg in permutations(range(6)):
        u = perm_to_diag(Permutation(list(tg)))
        params = a1_params(u)
        rc = params.rc(1)
        if rc == 0 or (2 * rc) % 6 == 0:
            continue
        natural_pm = set()
        natural_zero = set()
        conflicted = False
        for k in u.diag_set():
            kappa = params.aligned_rep(k)
            for row in u.diags[k]:
                col = (row + k) % 6
                if abs(kappa) >= rc:
                    dest = (col - rc) % 6 if kappa > 0 else (col + rc) % 6
                    natural_pm.add(dest)
                else:
                    natural_zero.add(col)
        conflicted = bool(natural_pm & natural_zero)
        if conflicted and search_depth1(u, params) is not None:
            hit += 1
    assert hit > 0


def test_enumerate_subset_of_oracle_and_deduped():
    for tg in permutations(range(6)):
        u = perm_to_diag(Permutation(list(tg)))
        params = a1_params(u)
        sols = enumerate_depth1(u, params)
        cnt = depth1_oracle(u, 1, params.r, params.rc(1), count_all=True)
        assert len(sols) <= cnt
        assert (len(sols) > 0) == (cnt > 0)
        seen = set()
        for ul, ur in sols:
            key = frozenset(
                (k, row) for k in ur.diags for row in ur.diags[k])
            assert key not in seen
            seen.add(key)
            assert matmul(ul, ur) == u


def test_onesided_search(rng):
    n = 16
    u = perm_to_diag(random_perm_with_diags(n, {0, 4, 8, 12}, rng))
    params = diag_profile(u, onesided=True)
    assert (params.a, params.r) == (4, 12)
    got = search_depth1(u, params)
    orc = depth1_oracle(u, 4, 12, params.rc(1), onesided=True)
    assert (got is None) == (orc is None)
    if got is not None:
        ul, ur = got
        assert set(ur.diag_set()) <= {0, 8}
        assert set(ul.diag_set()) <= {0, 4}
        assert matmul(ul, ur) == u


@pytest.mark.parametrize("d,need", [(4, 1), (8, 2), (16, 3)])
def test_max_depth_transpose(d, need):
    u = perm_to_diag(transpose_perm(d))
    params = diag_profile(u)
    depth, chain = max_ideal_depth(u, params)
    assert depth >= need
    rep = validate_ideal_chain(u, chain, params)
    assert rep.ok, rep.details


def test_validator_accepts_constructed_depth2_chain():
    rng = random.Random(2)
    n = 32
    ur1 = perm_to_diag(random_perm_with_diags(n, {0, 6, n - 6}, rng))
    ur2 = perm_to_diag(random_perm_with_diags(n, {0, 4, n - 4}, rng))
    ul = perm_to_diag(random_perm_with_diags(n, {0, 2, n - 2}, rng))
    u = matmul(matmul(ul, ur2), ur1)
    params = SearchParams(n, 2, 12)
    rep = validate_ideal_chain(
        u, DecompositionChain(n, [ul, ur2, ur1]), params)
    assert rep.ok
    assert rep.rc_sequence == [6, 4] and rep.r_prime == 2
    depth, chain = max_ideal_depth(u, params)
    assert depth == 2
    assert validate_ideal_chain(u, chain, params).ok


def test_validator_rejects_bad_chains():
    u = perm_to_diag(transpose_perm(4))
    params = diag_profile(u)
    ul, ur = search_depth1(u, params)
    # wrong product
    other = perm_to_diag(Permutation.rotation(16, 1))
    rep = validate_ideal_chain(u, DecompositionChain(16, [ul, other]), params)
    assert not rep.product_ok
    # right factor off its allowed support
    rep = validate_ideal_chain(u, DecompositionChain(16, [ur, ul]), params)
    assert not rep.right_factors_ok
    assert not rep.ok and rep.details


def test_search_is_first_enumerated_solution(rng):
    # the first snapshot of the one DFS is the enumeration's first pair
    cases = [a1_case(Permutation(list(tg)))
             for n in range(2, 7) for tg in permutations(range(n))]
    cases += [a1_case(Permutation.random(8, rng)) for _ in range(100)]
    for build in (build_ut, build_sigma, build_tau):
        for d in (2, 4):
            u = build(d)
            cases.append((u, diag_profile(u)))
    for d in (4, 8):
        u = perm_to_diag(transpose_perm(d))
        cases.append((u, diag_profile(u)))
    u = perm_to_diag(random_perm_with_diags(16, {0, 4, 8, 12}, rng))
    cases.append((u, diag_profile(u, onesided=True)))
    found = 0
    for u, params in cases:
        sols = enumerate_depth1(u, params)
        first = search_depth1(u, params)
        assert first == (sols[0] if sols else None)
        found += bool(sols)
    assert 0 < found < len(cases)


def test_search_checks_permutation_at_call_time():
    m = DiagMatrix(4)
    m.set_entry(0, 0, 2)
    with pytest.raises(ValueError, match="permutation matrix"):
        search_depth1(m, SearchParams(4, 1, 0))
    with pytest.raises(ValueError, match="permutation matrix"):
        enumerate_depth1(m, SearchParams(4, 1, 0))


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("target,d", [
    (t, d) for t in ("ut", "sigma") for d in (4, 8, 16, 32, 64)
] + [("tau", 4), pytest.param("tau", 8, marks=pytest.mark.xfail(
    strict=True, raises=TimeoutError,
    reason="the tau search does not finish from d = 8 on"))])
def test_search_reaches_full_depth(target, d):
    # d = 64 runs the DFS thousands of steps deep, past Python's default
    # recursion limit of 1,000 frames
    u = LADDERS[target][0](d)
    params = diag_profile(u)
    with deadline(2):
        depth, chain = max_ideal_depth(u, params)
    assert depth == params.max_depth_cap() == _max_rounds(d)
    rep = validate_ideal_chain(u, chain, params)
    assert rep.ok, rep.details


@pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
def test_onesided_tau_search_reaches_full_depth(d):
    # tau's diagonals {0, d, ..., d^2 - d} are one-sided; searched with a
    # one-sided profile it finishes at every size (the two-sided default
    # times out from d = 8 on, see test_search_reaches_full_depth)
    u = build_tau(d)
    params = diag_profile(u, onesided=True)
    with deadline(2):
        depth, chain = max_ideal_depth(u, params)
    assert depth == params.max_depth_cap() == _max_rounds(d)
    rep = validate_ideal_chain(u, chain, params)
    assert rep.ok, rep.details
    vals = random.Random(d).choices(range(-50, 51), k=u.n)
    out = chain.evaluate(SlotVector.from_list(vals))
    assert out.to_list() == matvec(u, vals)
