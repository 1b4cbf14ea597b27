"""Command line front end.

Subcommands cover the whole pipeline: ideal-form search, the structured
decompositions, batched matrix products, routing networks, the key-routed
baseline, and the oracle suite. The ladder targets come from
`structured.LADDERS`. The route subcommands build their routes from
`verify.ROUTES`, and all but net build run theirs once through the suite's
`checked_run` (hmm through `hmm_trial`): the verdict and the rotation counts
and keys come from that run's ledger, and a chain's verdict also needs its
factors (their product, or a searched chain's ideal-form conditions).
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

from .bench import bench_networks
from .costmodel import chain_cost
from .diag import perm_to_diag, signed_rep
from .hmm import HmmConfig, hmm_rotation_budget
from .search import diag_profile, validate_ideal_chain
from .slots import Permutation
from .structured import LADDERS
from .verify import DEFAULT_SEED, ROUTES, checked_run, hmm_trial, run_suite

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


def _factors(chain, led=None) -> list[dict]:
    """The factors L, R_l, ..., R_1 of a ladder or searched chain with their
    diagonals and, given the ledger of a run, their rotations."""
    names = ["L"] + [f"R_{chain.depth - i}" for i in range(1, chain.depth)]
    out = [{"name": nm, "diagonals": f.signed_diag_set()}
           for nm, f in zip(names, chain.factors)]
    if led is not None:
        by_tag = led.rotations_by_tag()
        for i, factor in enumerate(out):
            factor["rotations"] = by_tag[f"{chain.TAG}.f{i}"]
    return out


def _cmd_search(cfg: argparse.Namespace):
    if cfg.perm_file:
        _refuse(cfg, "search reads its permutation from --perm-file",
                "target", "d", "n")
        u = perm_to_diag(Permutation.load(cfg.perm_file))
        target = cfg.perm_file
    else:
        target = cfg.target or "ut"
        u = LADDERS[target][0](cfg.d or 4, cfg.n)
    route = ROUTES["search"](u)
    chain = route.obj
    params = diag_profile(u)
    # depth 0 is an answer here: the verdict is the conditions and one run
    rep = validate_ideal_chain(u, chain, params)
    ran, _, _ = checked_run(route, route.draw(random.Random(DEFAULT_SEED)))
    ok = rep.ok and ran
    report = {
        "command": "search", "target": target, "n": u.n,
        "stride": params.a, "radius": params.r,
        "depth": chain.depth - 1, "depth_cap": params.max_depth_cap(),
        "rc_sequence": rep.rc_sequence, "residual_radius": rep.r_prime,
        "factors": _factors(chain), "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_decompose(cfg: argparse.Namespace):
    ladder = cfg.target in LADDERS
    if ladder:
        _refuse(cfg, f"decompose {cfg.target} has no unit grid", "dp")
        route = ROUTES[cfg.target](cfg.d, cfg.l, cfg.n)
    else:  # padded fan-out pair; the requested map
        route = ROUTES[cfg.target](cfg.d, cfg.l, cfg.dp, cfg.n)
    chain = route.obj
    ok, led, _ = checked_run(route, route.draw(random.Random(cfg.seed)))
    report = {"command": "decompose", "target": cfg.target, "n": chain.n,
              "d": cfg.d, "depth_l": cfg.l}
    if ladder:
        # the run checks the slots; the product checks the factors
        ok = route.structure() and ok
        report["factors"] = _factors(chain, led)
    else:
        report.update({
            "dp": cfg.dp or cfg.d,
            "doubling_steps": _signed(chain.n, chain.r_steps),
            "fanout_steps": _signed(chain.n, chain.l_steps),
            "rotations": led.rotation_count,
            "mask_ones": sum(chain.mask),
        })
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


def _perm(cfg: argparse.Namespace) -> Permutation:
    """The permutation of --perm-file, or a random one of --n slots."""
    if cfg.perm_file:
        return Permutation.load(cfg.perm_file)
    return Permutation.random(cfg.n, random.Random(cfg.seed))


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
    route = ROUTES["network"](_perm(cfg), cfg.reduce, cfg.collapse)
    net = route.obj
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

    ok, led, out = checked_run(route, route.draw(random.Random(cfg.seed + 1)))
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
    route = ROUTES["benes"](_perm(cfg), cfg.depth, cfg.budget,
                            not cfg.no_collapse, not cfg.no_restrict)
    bc = route.obj
    ok, led, _ = checked_run(route, route.draw(random.Random(cfg.seed + 1)))
    ok = route.structure() and ok
    by_tag = led.rotations_by_tag()
    report = {
        "command": "benes", "n": bc.n, "seed": cfg.seed, "depth": bc.depth,
        "rotation_counts": [by_tag[f"{bc.TAG}.f{i}"]
                            for i in range(bc.depth)],
        "total_rotations": led.rotation_count,
        "keys": _signed(bc.n, led.key_set()),
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
