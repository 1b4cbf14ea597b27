"""The benchmark's workloads: input generation and one instance each.

Inputs come from the seed alone (`random.Random(f"{seed}:{name}:{index}")`);
permdec receives only the generated values. Expected outputs of the route
workloads and the reference matrix products are computed here, without
permdec; the ladder and padded routes are checked against `matvec` of the
matrix permdec builds, as the library's own verifier does.

Every permdec function is reached through its module object (`pd.network.
build_network`), so a tracer that rebinds module attributes sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from routes import BudgetMismatch, cost_block


def _rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _random_perm(pd, rng, n: int):
    """A uniform permutation with random slot values and the expected
    output out[targets[i]] = vals[i]."""
    targets = list(range(n))
    rng.shuffle(targets)
    vals = [rng.randint(-99, 99) for _ in range(n)]
    want = [0] * n
    for i, t in enumerate(targets):
        want[t] = vals[i]
    return pd.slots.Permutation(targets), vals, want


def _powers(lo: int, hi: int) -> list[int]:
    out, x = [], lo
    while x <= hi:
        out.append(x)
        x *= 2
    return out


@dataclass
class NetWorkload:
    """One permutation through the rotation network: raw, mask-reduced, and
    reduced + collapse_levels(2, 3), each evaluated, checked and priced."""

    n: int
    name: str = "net-2e14"
    deadline_s: float = 60.0
    he_sample: int = 4

    def make_input(self, pd, seed: int, index: int):
        return _random_perm(pd, _rng(seed, self.name, index), self.n)

    def run_instance(self, pd, inp, rt) -> None:
        p, vals, want = inp
        net_mod = pd.network

        def priced(route, make):
            def body():
                net = make()
                return net, rt.evaluate(route, net, net_mod.evaluate_network,
                                        vals, want)
            return body

        raw = rt.route("raw", priced("raw", lambda: net_mod.build_network(p)))
        red = rt.route("reduced", priced(
            "reduced", lambda: net_mod.reduce_masks(raw)), raw)
        rt.route("collapsed", priced(
            "collapsed", lambda: net_mod.collapse_levels(red, 2, 3)), red)


@dataclass
class BenesWorkload:
    """One permutation through the Benes baseline: decompose and collapse to
    the default depth, then restrict the key set; both evaluated, checked
    and priced."""

    n: int
    name: str = "benes-2e12"
    deadline_s: float = 60.0
    he_sample: int = 3

    def make_input(self, pd, seed: int, index: int):
        return _random_perm(pd, _rng(seed, self.name, index), self.n)

    def run_instance(self, pd, inp, rt) -> None:
        p, vals, want = inp
        benes = pd.benes

        def collapsed():
            bc = benes.collapse_benes(benes.benes_decompose(p))
            return bc, rt.evaluate("collapsed", bc, benes.evaluate_benes,
                                   vals, want)

        def restricted():
            rk = benes.restrict_keys(bc)
            return rk, rt.evaluate("restricted", rk, benes.evaluate_benes,
                                   vals, want)

        bc = rt.route("collapsed", collapsed)
        rt.route("restricted", restricted, bc)


def _chain_eval(chain, v):
    return chain.evaluate(v)


@dataclass
class LaddersWorkload:
    """A fixed pass over the closed-form routes for each d in `dims`:
    ut / sigma / tau ladders at every legal depth, the ideal search on the
    same three matrices, the padded gamma / xi chains, and hmm_multiply
    (single-mask and layered replication), all with n <= n_max."""

    dims: tuple[int, ...]
    n_max: int
    name: str = "ladders-mix"
    deadline_s: float = 1.5
    he_sample: int = 1

    def _padded_configs(self, d: int) -> list[int]:
        return [dp for dp in _powers(2, d) if d * d * dp <= self.n_max]

    def _hmm_configs(self, d: int) -> list[int]:
        return [dp for dp in _powers(1, d) if d * d * dp <= self.n_max]

    def make_input(self, pd, seed: int, index: int) -> dict:
        rng = _rng(seed, self.name, index)
        inp = {"ladder": {}, "padded": {}, "hmm": {}}
        for d in self.dims:
            inp["ladder"][d] = [rng.randint(-99, 99) for _ in range(d * d)]
            for dp in self._padded_configs(d):
                # operand slots: the top unit-row of every d*dp*dp block
                blk = d * dp * dp
                vals = [0] * (d * d * dp)
                for s in range(len(vals)):
                    if s % blk < d * dp:
                        vals[s] = rng.randint(-30, 30)
                inp["padded"][d, dp] = vals
            for dp in self._hmm_configs(d):
                a = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
                b = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
                prod = [[sum(a[i][k] * b[k][j] for k in range(d))
                         for j in range(d)] for i in range(d)]
                inp["hmm"][d, dp] = ([a], [b], [prod])
        return inp

    def run_instance(self, pd, inp, rt) -> None:
        st = pd.structured
        families = (
            ("ut", st.build_ut,
             lambda d, l: st.decompose_ut(st.HmtSpec(d, d * d, l))),
            ("sigma", st.build_sigma, st.decompose_sigma),
            ("tau", st.build_tau, st.decompose_tau),
        )
        for d in self.dims:
            vals = inp["ladder"][d]
            for fam, build, decompose in families:
                self._ladder(pd, rt, f"{fam}.d{d}", d, vals, build, decompose)
        for d in self.dims:
            for dp in self._padded_configs(d):
                self._padded(pd, rt, d, dp, inp["padded"][d, dp])
        for d in self.dims:
            for dp in self._hmm_configs(d):
                a, b, want = inp["hmm"][d, dp]
                for rep in (None, (4, d // 4)) if d >= 4 else (None,):
                    self._hmm(pd, rt, d, dp, rep, a, b, want)

    def _ladder(self, pd, rt, tag, d, vals, build, decompose) -> None:
        u = rt.stage(f"{tag}.build", lambda: build(d))
        want = None
        if u is not None:
            with rt.oracle():
                want = pd.diag.matvec(u, vals)
        for l in range(1, (d - 1).bit_length()):
            name = f"{tag}.l{l}"

            def body(l=l, name=name):
                chain = decompose(d, l)
                return chain, rt.evaluate(name, chain, _chain_eval, vals, want)

            rt.route(name, body, u)

        name = f"search.{tag}"

        def search():
            params = pd.search.diag_profile(u)
            depth, chain = pd.search.max_ideal_depth(u, params)
            report = pd.search.validate_ideal_chain(u, chain, params)
            rt.check(name, report.ok)
            block = rt.evaluate(name, chain, _chain_eval, vals, want)
            block["search_depth"] = depth
            return chain, block

        rt.route(name, search, u)

    def _padded(self, pd, rt, d, dp, vals) -> None:
        st = pd.structured
        pair = rt.stage(f"gamma_xi.d{d}.p{dp}.build",
                        lambda: st.build_gamma_xi(d, dp))
        want_g = want_x = None
        if pair is not None:
            with rt.oracle():
                want_g = pd.diag.matvec(pair[0], vals)
                want_x = pd.diag.matvec(pair[1], vals)
        for l in range(1, dp.bit_length()):
            tag = f"d{d}.p{dp}.l{l}"

            def gamma(l=l, tag=tag):
                cg, cx, _ = st.decompose_gamma_xi_pad(d, l, dp)
                return cx, rt.evaluate(f"gamma.{tag}", cg, _chain_eval, vals,
                                       want_g, price=False)

            def xi(tag=tag):
                return None, rt.evaluate(f"xi.{tag}", cx, _chain_eval, vals,
                                         want_x, price=False)

            cx = rt.route(f"gamma.{tag}", gamma, pair)
            rt.route(f"xi.{tag}", xi, cx)

    def _hmm(self, pd, rt, d, dp, rep, a, b, want) -> None:
        hmm = pd.hmm
        name = f"hmm.d{d}.p{dp}." + ("naive" if rep is None else "layered")

        def body():
            cfg = hmm.HmmConfig(d, dp, replication=rep)
            outputs = []
            evaluate = hmm.hmm_evaluate

            def keep(*args, **kwargs):  # the output vector carries the depth
                outputs.append(evaluate(*args, **kwargs))
                return outputs[-1]

            hmm.hmm_evaluate = keep
            try:
                with pd.ledger.CostLedger() as led:
                    got = hmm.hmm_multiply(a, b, cfg)
            finally:
                hmm.hmm_evaluate = evaluate
            with rt.oracle():
                rt.check(name, got == want)
            budget = hmm.hmm_rotation_budget(cfg).total
            rot = led.rotation_count
            rt.count("hmm.rotations_over_budget", rot - budget)
            # single-mask budgets are exact; layered ones model shared
            # windows and may drift from the executed ones by up to d
            drift = abs(rot - budget)
            if drift > (0 if rep is None else d):
                raise BudgetMismatch(f"{rot} rotations, budget {budget}")
            block = cost_block(led, None, outputs[-1].depth_used)
            block["budget"] = budget
            return None, block

        rt.route(name, body)


WORKLOADS = {
    "net-2e14": lambda: NetWorkload(1 << 14),
    "benes-2e12": lambda: BenesWorkload(1 << 12),
    "ladders-mix": lambda: LaddersWorkload((16, 32, 64), 1 << 14),
}

# tiny instances of the same code, run untimed as the set-up warm-up
WARMUPS = {
    "net-2e14": lambda: NetWorkload(1 << 6),
    "benes-2e12": lambda: BenesWorkload(1 << 5),
    "ladders-mix": lambda: LaddersWorkload((4,), 1 << 6),
}
