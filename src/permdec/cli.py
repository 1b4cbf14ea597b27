"""Command line front end.

Subcommands cover the whole pipeline: ideal-form search, the structured
decompositions, batched matrix products, routing networks, the key-routed
baseline, profile benchmarking, and the oracle suite. Every run writes a
machine-readable report (json, csv for bench, or flat text) to stdout or to
--out; relative --out paths land in $PERMDEC_OUTDIR when that is set. Exit
status: 0 on success, 1 when a verification fails, 2 on usage errors.

Reports carry no timestamps or environment data, so a repeated (command,
seed) invocation is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bench import bench_csv, bench_networks
from .benes import benes_decompose, collapse_benes, restrict_keys
from .costmodel import chain_cost
from .diag import matvec, perm_to_diag, signed_rep
from .hmm import HmmConfig, hmm_multiply, hmm_rotation_budget
from .ledger import CostLedger
from .network import (build_network, collapse_levels, evaluate_network,
                      reduce_masks)
from .search import diag_profile, max_ideal_depth, validate_ideal_chain
from .slots import Permutation, SlotVector
from .structured import (HmtSpec, build_gamma_xi, build_sigma, build_tau,
                         build_ut, decompose_gamma_xi_pad, decompose_sigma,
                         decompose_tau, decompose_ut, unit_input_slots)
from .verify import DEFAULT_SEED, run_suite

OUTDIR_ENV = "PERMDEC_OUTDIR"


# ------------------------------------------------------------- subcommands

_BUILDERS = {"ut": build_ut, "sigma": build_sigma, "tau": build_tau}


def _signed(n: int, steps) -> list[int]:
    return sorted(signed_rep(s % n, n) for s in steps)


def _cmd_search(cfg: argparse.Namespace):
    if cfg.perm_file:
        u = perm_to_diag(Permutation.load(cfg.perm_file))
        target = cfg.perm_file
    else:
        u = _BUILDERS[cfg.target or "ut"](cfg.d, cfg.n)
        target = cfg.target or "ut"
    params = diag_profile(u)
    depth, chain = max_ideal_depth(u, params)
    rep = validate_ideal_chain(u, chain, params)
    names = ["L"] + [f"R_{chain.depth - i}" for i in range(1, chain.depth)]
    report = {
        "command": "search", "target": target, "n": u.n,
        "stride": params.a, "radius": params.r,
        "depth": depth, "depth_cap": params.max_depth_cap(),
        "rc_sequence": rep.rc_sequence, "residual_radius": rep.r_prime,
        "factors": [{"name": nm, "diagonals": f.signed_diag_set()}
                    for nm, f in zip(names, chain.factors)],
        "ok": rep.ok,
    }
    return (0 if rep.ok else 1), report


def _ladder_report(chain, u, cfg: argparse.Namespace):
    names = ["L"] + [f"R_{chain.depth - i}" for i in range(1, chain.depth)]
    report = {
        "command": "decompose", "target": cfg.target, "n": u.n,
        "d": cfg.d, "depth_l": cfg.l,
        "factors": [{"name": nm, "diagonals": f.signed_diag_set(),
                     "rotations": len([k for k in f.diag_set() if k])}
                    for nm, f in zip(names, chain.factors)],
    }
    status = 0
    if cfg.verify:
        rng = random.Random(cfg.seed)
        vals = [rng.randint(-50, 50) for _ in range(u.n)]
        out = chain.evaluate(SlotVector.from_list(vals))
        ok = chain.product() == u and out.to_list() == matvec(u, vals)
        report["verified"] = ok
        status = 0 if ok else 1
    return status, report


def _cmd_decompose(cfg: argparse.Namespace):
    if cfg.target in ("ut", "sigma", "tau"):
        if cfg.target == "ut":
            n = cfg.n if cfg.n else build_ut(cfg.d).n
            chain = decompose_ut(HmtSpec(cfg.d, n, cfg.l))
            u = build_ut(cfg.d, n)
        elif cfg.target == "sigma":
            chain = decompose_sigma(cfg.d, cfg.l, cfg.n)
            u = build_sigma(cfg.d, cfg.n)
        else:
            chain = decompose_tau(cfg.d, cfg.l, cfg.n)
            u = build_tau(cfg.d, cfg.n)
        return _ladder_report(chain, u, cfg)

    # padded fan-out pair; report the requested map
    gamma, xi = build_gamma_xi(cfg.d, cfg.dp, cfg.n)
    cg, cx, _ = decompose_gamma_xi_pad(cfg.d, cfg.l, cfg.dp, cfg.n)
    chain, u = (cg, gamma) if cfg.target == "gamma" else (cx, xi)
    report = {
        "command": "decompose", "target": cfg.target, "n": chain.n,
        "d": cfg.d, "dp": cfg.dp or cfg.d, "depth_l": cfg.l,
        "doubling_steps": _signed(chain.n, chain.r_steps),
        "fanout_steps": _signed(chain.n, chain.l_steps),
        "rotations": chain.rotation_count(),
        "mask_ones": sum(chain.mask),
    }
    status = 0
    if cfg.verify:
        rng = random.Random(cfg.seed)
        support = set(unit_input_slots(cfg.d, cfg.dp, chain.n))
        vals = [rng.randint(-30, 30) if s in support else 0
                for s in range(chain.n)]
        out = chain.evaluate(SlotVector.from_list(vals))
        ok = out.to_list() == matvec(u, vals)
        report["verified"] = ok
        status = 0 if ok else 1
    return status, report


def _parse_replication(text: str):
    if text in ("naive", ""):
        return None
    return tuple(int(x) for x in text.split(","))


def _cmd_hmm(cfg: argparse.Namespace):
    repl = _parse_replication(cfg.replication)
    hc = HmmConfig(cfg.d, cfg.dp if cfg.dp else cfg.d, cfg.m,
                   replication=repl)
    rng = random.Random(cfg.seed)
    mk = lambda: [[[rng.randint(-9, 9) for _ in range(hc.d)]
                   for _ in range(hc.d)] for _ in range(hc.m)]
    products_ok = True
    rotations = None
    for _ in range(max(1, cfg.samples)):
        a, b = mk(), mk()
        with CostLedger() as led:
            got = hmm_multiply(a, b, hc)
        if rotations is None:
            rotations = led.rotation_count
        want = [[[sum(a[g][i][k] * b[g][k][j] for k in range(hc.d))
                  for j in range(hc.d)] for i in range(hc.d)]
                for g in range(hc.m)]
        products_ok = products_ok and got == want
    bud = hmm_rotation_budget(hc)
    budget_ok = abs(rotations - bud.total) <= bud.tolerance
    ok = products_ok and budget_ok
    report = {
        "command": "hmm", "d": hc.d, "dp": hc.d_prime, "m": hc.m,
        "replication": list(repl) if repl else "naive",
        "samples": max(1, cfg.samples), "rotations": rotations,
        "budget": {"total": bud.total, "parts": dict(bud.parts),
                   "amortized": [bud.amortized.numerator,
                                 bud.amortized.denominator]},
        "budget_exact": bud.tolerance == 0,
        "products_ok": products_ok, "budget_ok": budget_ok, "ok": ok,
    }
    return (0 if ok else 1), report


def _net_for(cfg: argparse.Namespace):
    if cfg.perm_file:
        p = Permutation.load(cfg.perm_file)
    else:
        p = Permutation.random(cfg.n or 256, random.Random(cfg.seed))
    net = build_network(p)
    if cfg.reduce:
        net = reduce_masks(net)
    if cfg.collapse:
        t, b, ar = cfg.collapse
        net = collapse_levels(net, t, b, ar)
    return p, net


def _cmd_net(cfg: argparse.Namespace):
    if cfg.target == "profile":
        n = cfg.n or 256
        res = bench_networks(n, cfg.samples, cfg.seed, reduce=cfg.reduce,
                             collapse=cfg.collapse)
        report = {
            "command": "net", "action": "profile", "n": n,
            "samples": cfg.samples, "seed": cfg.seed,
            "per_level_mean": {str(lv): v for lv, v in
                               sorted(res.per_level_mean.items())},
            "total_mean": res.total_mean,
            "distinct_keys": res.distinct_keys,
        }
        return 0, report

    p, net = _net_for(cfg)
    if cfg.target == "build":
        rep = chain_cost(net)
        report = {
            "command": "net", "action": "build", "n": net.n,
            "seed": cfg.seed, "max_level": net.max_level,
            "rotation_nodes": len(net.rotation_nodes()),
            "per_level": {str(k): v for k, v in sorted(rep.per_level.items())},
            "keys": sorted(rep.key_set),
            "network": net.to_json(),
        }
        return 0, report

    rng = random.Random(cfg.seed + 1)
    vals = [rng.randint(-50, 50) for _ in range(net.n)]
    with CostLedger() as led:
        out = evaluate_network(net, SlotVector.from_list(vals))
    ok = out.to_list() == p.apply(vals)
    report = {
        "command": "net", "action": "eval", "n": net.n, "seed": cfg.seed,
        "rotations": led.rotation_count, "depth_used": out.depth_used,
        "profile_total": led.rotation_count,
        "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_benes(cfg: argparse.Namespace):
    n = cfg.n or 256
    p = (Permutation.load(cfg.perm_file) if cfg.perm_file
         else Permutation.random(n, random.Random(cfg.seed)))
    bc = benes_decompose(p)
    if not cfg.no_collapse:
        bc = collapse_benes(bc, cfg.depth)
    if not cfg.no_restrict:
        bc = restrict_keys(bc, cfg.budget)
    rng = random.Random(cfg.seed + 1)
    vals = [rng.randint(-50, 50) for _ in range(p.n)]
    out = bc.evaluate(SlotVector.from_list(vals))
    ok = bc.product() == perm_to_diag(p) and out.to_list() == p.apply(vals)
    report = {
        "command": "benes", "n": p.n, "seed": cfg.seed,
        "depth": bc.depth, "rotation_counts": bc.rotation_counts(),
        "total_rotations": bc.total_rotations(),
        "keys": _signed(p.n, bc.key_set()),
        "diag_counts": bc.diag_counts(),
        "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_bench(cfg: argparse.Namespace):
    sizes = cfg.sizes or [1 << 10]
    results = [bench_networks(n, cfg.samples, cfg.seed) for n in sizes]
    if (cfg.fmt or "csv") == "csv":
        return 0, bench_csv(results)
    return 0, {"command": "bench", "seed": cfg.seed,
               "samples": cfg.samples,
               "results": [r.to_json() for r in results]}


def _cmd_verify(cfg: argparse.Namespace):
    rep = run_suite(n_max=cfg.n_max, seed=cfg.seed, full=cfg.all_checks)
    report = dict(rep.to_json(), command="verify")
    return (0 if rep.ok else 1), report


_DISPATCH = {
    "search": _cmd_search, "decompose": _cmd_decompose, "hmm": _cmd_hmm,
    "net": _cmd_net, "benes": _cmd_benes, "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def dispatch(cfg: argparse.Namespace):
    """Returns (exit status, report). Report is a dict, or csv text."""
    return _DISPATCH[cfg.command](cfg)


# ------------------------------------------------------------------ plumbing

def _flat(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flat(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        for i, item in enumerate(obj):
            yield from _flat(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {obj}"


def _render(report, fmt: str) -> str:
    if isinstance(report, str):
        return report
    if fmt == "csv":
        raise ValueError("csv output is only available for bench")
    if fmt == "text":
        return "\n".join(_flat(report)) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write(text: str, out: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    outdir = os.environ.get(OUTDIR_ENV, "")
    if outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    with open(out, "w") as fh:
        fh.write(text)


def _int_pair(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 2:
        parts.append(4)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected t,b or t,b,arity")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permdec",
        description="permutation decompositions on an exact slot simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, seed=0):
        sp.add_argument("--format", dest="fmt", default="",
                        choices=["json", "csv", "text", ""])
        sp.add_argument("--out", default="")
        sp.add_argument("--seed", type=int, default=seed)

    sp = sub.add_parser("search", help="ideal-form chain search")
    sp.add_argument("--target", default="", choices=["ut", "sigma", "tau", ""])
    sp.add_argument("--perm-file", default="")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--n", type=int)
    common(sp)

    sp = sub.add_parser("decompose", help="structured decompositions")
    sp.add_argument("target", choices=["ut", "sigma", "tau", "gamma", "xi"])
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--dp", type=int)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", type=int)
    sp.add_argument("--verify", action="store_true")
    common(sp)

    sp = sub.add_parser("hmm", help="batched matrix products")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--dp", type=int)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--replication", default="naive",
                    help="'naive' or factors like '4,4'")
    sp.add_argument("--samples", type=int, default=3)
    common(sp)

    sp = sub.add_parser("net", help="routing networks")
    sp.add_argument("target", choices=["build", "eval", "profile"])
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--collapse", type=_int_pair, default=None,
                    metavar="T,B[,ARITY]")
    sp.add_argument("--no-reduce", dest="reduce", action="store_false")
    sp.add_argument("--perm-file", default="")
    common(sp)

    sp = sub.add_parser("benes", help="key-routed baseline")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--no-collapse", action="store_true")
    sp.add_argument("--no-restrict", action="store_true")
    sp.add_argument("--perm-file", default="")
    common(sp)

    sp = sub.add_parser("bench", help="profile and cost statistics")
    sp.add_argument("--n", dest="sizes", type=int, action="append",
                    default=None)
    sp.add_argument("--samples", type=int, default=20)
    common(sp, seed=5000)

    sp = sub.add_parser("verify", help="oracle equivalence suite")
    sp.add_argument("--all", dest="all_checks", action="store_true")
    sp.add_argument("--n-max", type=int, default=256)
    common(sp, seed=DEFAULT_SEED)
    return ap


def main(argv=None) -> int:
    try:
        cfg = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        status, report = dispatch(cfg)
        _write(_render(report, cfg.fmt), cfg.out)
    except (ValueError, OSError) as e:
        print(f"permdec: {e}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
