"""Command line front end.

Subcommands cover the whole pipeline: ideal-form search, the structured
decompositions, batched matrix products, routing networks, the key-routed
baseline, and the oracle suite. The ladder targets come from
`structured.LADDERS`. Every route subcommand (decompose, hmm, net eval and
benes) runs its route once through the helpers of `permdec verify`
(`checked_run`, `supported_slots`, `hmm_trial`), so it checks the route the
way the suite does, and its verdict and its counts come from that one run.
Every run writes a machine-readable report (json or flat text) to stdout or
to --out; relative --out paths land in $PERMDEC_OUTDIR when that is set.
Exit status: 0 on success, 1 when a verification fails, 2 on usage errors,
among them an option the requested run would not read.

Reports carry no timestamps or environment data, so a repeated (command,
seed) invocation is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import partial

from .bench import bench_networks
from .benes import benes_decompose, collapse_benes, restrict_keys
from .costmodel import chain_cost
from .diag import matvec, perm_to_diag, signed_rep
from .hmm import HmmConfig, hmm_rotation_budget
from .network import (build_network, collapse_levels, evaluate_network,
                      reduce_masks)
from .search import diag_profile, max_ideal_depth, validate_ideal_chain
from .slots import DEFAULT_LEVEL, Permutation
from .structured import (LADDERS, build_gamma_xi, decompose_gamma_xi_pad,
                         unit_input_slots)
from .verify import (DEFAULT_SEED, checked_run, hmm_trial, random_slots,
                     run_suite, supported_slots)

OUTDIR_ENV = "PERMDEC_OUTDIR"


# ------------------------------------------------------------- subcommands

def _refuse(cfg: argparse.Namespace, why: str, *names: str) -> None:
    """A usage error for options given to a run that would not read them."""
    given = [f"--{nm.replace('_', '-')}" for nm in names
             if getattr(cfg, nm) not in (None, "")]
    if given:
        raise ValueError(f"{why}; drop {' '.join(given)}")


def _signed(n: int, steps) -> list[int]:
    return sorted(signed_rep(s % n, n) for s in steps)


def _factor_names(depth: int) -> list[str]:
    """L, R_l, ..., R_1: the names of a ladder chain's factors in order."""
    return ["L"] + [f"R_{depth - i}" for i in range(1, depth)]


def _cmd_search(cfg: argparse.Namespace):
    if cfg.perm_file:
        _refuse(cfg, "search reads its permutation from --perm-file",
                "target", "d", "n")
        u = perm_to_diag(Permutation.load(cfg.perm_file))
        target = cfg.perm_file
    else:
        target = cfg.target or "ut"
        u = LADDERS[target][0](cfg.d or 4, cfg.n)
    params = diag_profile(u)
    depth, chain = max_ideal_depth(u, params)
    rep = validate_ideal_chain(u, chain, params)
    names = _factor_names(chain.depth)
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


def _cmd_decompose(cfg: argparse.Namespace):
    rng = random.Random(cfg.seed)
    if cfg.target in LADDERS:
        _refuse(cfg, f"decompose {cfg.target} has no unit grid", "dp")
        build, decompose = LADDERS[cfg.target]
        chain, u = decompose(cfg.d, cfg.l, cfg.n), build(cfg.d, cfg.n)
        vals = random_slots(rng, u.n)
        ok, led, _ = checked_run(chain.evaluate, vals, matvec(u, vals))
        # the run checks the slots; the product checks the factors
        ok = chain.product() == u and ok
        by_tag = led.rotations_by_tag()
        names = _factor_names(chain.depth)
        factors = [{"name": nm, "diagonals": f.signed_diag_set(),
                    "rotations": by_tag[f"{chain.TAG}.f{i}"]}
                   for i, (nm, f) in enumerate(zip(names, chain.factors))]
        report = {
            "command": "decompose", "target": cfg.target, "n": u.n,
            "d": cfg.d, "depth_l": cfg.l, "factors": factors,
        }
    else:
        # padded fan-out pair; report the requested map
        gamma, xi = build_gamma_xi(cfg.d, cfg.dp, cfg.n)
        cg, cx, _ = decompose_gamma_xi_pad(cfg.d, cfg.l, cfg.dp, cfg.n)
        chain, u = (cg, gamma) if cfg.target == "gamma" else (cx, xi)
        support = set(unit_input_slots(cfg.d, cfg.dp, chain.n))
        vals = supported_slots(rng, chain.n, support)
        ok, led, _ = checked_run(chain.evaluate, vals, matvec(u, vals))
        report = {
            "command": "decompose", "target": cfg.target, "n": chain.n,
            "d": cfg.d, "dp": cfg.dp or cfg.d, "depth_l": cfg.l,
            "doubling_steps": _signed(chain.n, chain.r_steps),
            "fanout_steps": _signed(chain.n, chain.l_steps),
            "rotations": led.rotation_count,
            "mask_ones": sum(chain.mask),
        }
    report["verified"] = ok
    return (0 if ok else 1), report


def _cmd_hmm(cfg: argparse.Namespace):
    hc = HmmConfig(cfg.d, cfg.dp or cfg.d, cfg.m,
                   replication=cfg.replication)
    rng = random.Random(cfg.seed)
    trials = [hmm_trial(rng, hc) for _ in range(cfg.samples)]
    products_ok = all(ok for ok, _ in trials)
    rotations = trials[0][1]
    bud = hmm_rotation_budget(hc)
    budget_ok = rotations == bud.total
    ok = products_ok and budget_ok
    report = {
        "command": "hmm", "d": hc.d, "dp": hc.d_prime, "m": hc.m,
        "replication": list(hc.replication) if hc.replication else "naive",
        "samples": cfg.samples, "rotations": rotations,
        "budget": {"total": bud.total, "parts": dict(bud.parts),
                   "amortized": [bud.amortized.numerator,
                                 bud.amortized.denominator]},
        "products_ok": products_ok, "budget_ok": budget_ok, "ok": ok,
    }
    return (0 if ok else 1), report


def _net_for(cfg: argparse.Namespace):
    if cfg.perm_file:
        p = Permutation.load(cfg.perm_file)
    else:
        p = Permutation.random(cfg.n, random.Random(cfg.seed))
    net = build_network(p)
    if cfg.reduce:
        net = reduce_masks(net)
    if cfg.collapse:
        net = collapse_levels(net, *cfg.collapse)
    return p, net


def _cmd_net(cfg: argparse.Namespace):
    if cfg.target == "profile":
        _refuse(cfg, "net profile samples random permutations", "perm_file")
        samples = cfg.samples or 20
        res = bench_networks(cfg.n, samples, cfg.seed, reduce=cfg.reduce,
                             collapse=cfg.collapse)
        report = {
            "command": "net", "action": "profile", "n": cfg.n,
            "samples": samples, "seed": cfg.seed,
            "per_level_mean": {str(lv): v for lv, v in
                               sorted(res.per_level_mean.items())},
            "total_mean": res.total_mean, "total_std": res.total_std,
            "scalar_mult_mean": res.scalar_mean,
            "distinct_keys": res.distinct_keys,
        }
        return 0, report

    _refuse(cfg, f"net {cfg.target} runs one permutation", "samples")
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

    vals = random_slots(random.Random(cfg.seed + 1), net.n)
    ok, led, out = checked_run(partial(evaluate_network, net), vals,
                               p.apply(vals))
    report = {
        "command": "net", "action": "eval", "n": net.n, "seed": cfg.seed,
        "reduced": cfg.reduce, "rotations": led.rotation_count,
        "masks": led.cmult_count, "depth_used": out.depth_used, "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_benes(cfg: argparse.Namespace):
    if cfg.no_collapse:
        _refuse(cfg, "benes --no-collapse keeps every factor", "depth")
    if cfg.no_restrict:
        _refuse(cfg, "benes --no-restrict keeps every key", "budget")
    p = (Permutation.load(cfg.perm_file) if cfg.perm_file
         else Permutation.random(cfg.n, random.Random(cfg.seed)))
    bc = benes_decompose(p)
    if not cfg.no_collapse:
        bc = collapse_benes(bc, cfg.depth)
    if bc.depth > DEFAULT_LEVEL:  # each factor rescales once
        raise ValueError(f"a chain of {bc.depth} factors needs {bc.depth} "
                         f"levels; only {DEFAULT_LEVEL} are available")
    if not cfg.no_restrict:
        bc = restrict_keys(bc, cfg.budget)
    vals = random_slots(random.Random(cfg.seed + 1), p.n)
    ok, led, _ = checked_run(bc.evaluate, vals, p.apply(vals))
    ok = bc.product() == perm_to_diag(p) and ok
    by_tag = led.rotations_by_tag()
    report = {
        "command": "benes", "n": p.n, "seed": cfg.seed, "depth": bc.depth,
        "rotation_counts": [by_tag[f"{bc.TAG}.f{i}"]
                            for i in range(bc.depth)],
        "total_rotations": led.rotation_count,
        "keys": _signed(p.n, led.key_set()),
        "diag_counts": bc.diag_counts(),
        "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_verify(cfg: argparse.Namespace):
    rep = run_suite(n_max=cfg.n_max, seed=cfg.seed, full=cfg.all_checks)
    report = dict(rep.to_json(), command="verify")
    return (0 if rep.ok else 1), report


_DISPATCH = {
    "search": _cmd_search, "decompose": _cmd_decompose, "hmm": _cmd_hmm,
    "net": _cmd_net, "benes": _cmd_benes, "verify": _cmd_verify,
}


def dispatch(cfg: argparse.Namespace):
    """Returns (exit status, report dict)."""
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


def _render(report: dict, fmt: str) -> str:
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


def _collapse(text: str) -> tuple[int, int]:
    try:
        top, bottom = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected T,B, got {text!r}") from None
    return top, bottom


def _replication(text: str) -> tuple[int, ...] | None:
    if text == "naive":
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'naive' or factors like 4,4, got {text!r}") from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permdec",
        description="permutation decompositions on an exact slot simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, seed=0):
        # seed=None: the run draws nothing, so it takes no --seed
        sp.add_argument("--format", dest="fmt", default="",
                        choices=["json", "text", ""])
        sp.add_argument("--out", default="")
        if seed is not None:
            sp.add_argument("--seed", type=int, default=seed)

    sp = sub.add_parser("search", help="ideal-form chain search")
    sp.add_argument("--target", default="", choices=[*LADDERS, ""])
    sp.add_argument("--perm-file", default="")
    sp.add_argument("--d", type=_positive, help="default 4")
    sp.add_argument("--n", type=_positive)
    common(sp, seed=None)

    sp = sub.add_parser("decompose", help="structured decompositions")
    sp.add_argument("target", choices=[*LADDERS, "gamma", "xi"])
    sp.add_argument("--d", type=_positive, default=4)
    sp.add_argument("--dp", type=_positive)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--n", type=_positive)
    common(sp)

    sp = sub.add_parser("hmm", help="batched matrix products")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--dp", type=_positive)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--replication", type=_replication, default="naive",
                    help="'naive' or factors like '4,4'")
    sp.add_argument("--samples", type=_positive, default=3)
    common(sp)

    sp = sub.add_parser("net", help="routing networks")
    sp.add_argument("target", choices=["build", "eval", "profile"])
    sp.add_argument("--n", type=_positive, default=256)
    sp.add_argument("--samples", type=_positive, help="default 20")
    sp.add_argument("--collapse", type=_collapse, default=None,
                    metavar="T,B")
    sp.add_argument("--no-reduce", dest="reduce", action="store_false")
    sp.add_argument("--perm-file", default="")
    common(sp)

    sp = sub.add_parser("benes", help="key-routed baseline")
    sp.add_argument("--n", type=_positive, default=256)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--no-collapse", action="store_true")
    sp.add_argument("--no-restrict", action="store_true")
    sp.add_argument("--perm-file", default="")
    common(sp)

    sp = sub.add_parser("verify", help="oracle equivalence suite")
    sp.add_argument("--all", dest="all_checks", action="store_true")
    sp.add_argument("--n-max", type=_positive, default=256)
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
