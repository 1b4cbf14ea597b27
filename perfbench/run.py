#!/usr/bin/env python3
"""permdec benchmark: wall clock and modeled HE cost of the decomposition
routes, checked against oracles.

    python3 perfbench/run.py --workload net-2e14 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads: net-2e14, benes-2e12, ladders-mix (see workloads.py and
DESIGN.md); `all` runs each in its own process and prints one row per
workload. One workload runs in this process on one thread. Set-up (import,
input generation, a tiny warm-up instance) is timed SETUP_REPEATS times
before the instances and as many times after them, so that it samples the
machine at both ends of the run, and the median is reported. Instances run
back to back until --seconds have passed, and at least `he_sample` of them.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced run, whose
spans are written to perfbench/out/. Exit status 2 means permdec could not be
set up (no sources beside the benchmark).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from routes import HE_KEYS, RouteRunner, he_totals
from tracer import Tracer
from workloads import WARMUPS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("slots", "ledger", "diag", "chain", "search", "structured", "hmm",
           "network", "benes", "costmodel", "verify", "bench", "cli")
SETUP_REPEATS = 4
E2E_UNITS = {
    "setup_s": "s", "instance_s_p50": "s", "instances_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
    **{f"he_{k}": "count" for k in HE_KEYS},
}


class SetupError(Exception):
    """permdec cannot be imported from the sources beside the benchmark."""


def import_permdec() -> dict:
    """A fresh import of every permdec module from ../src."""
    if not (SRC / "permdec" / "network.py").is_file():
        raise SetupError(f"no permdec sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "permdec" or m.startswith("permdec.")]:
        del sys.modules[name]
    mods = {}
    for short in MODULES:
        mod = importlib.import_module(f"permdec.{short}")
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"permdec.{short} imported from {mod.__file__}")
        mods[short] = mod
    return mods


def set_up(workload, warmup, seed: int):
    """Import, generate the first he_sample inputs, run one tiny instance."""
    mods = import_permdec()
    pd = SimpleNamespace(**mods)
    inputs = [workload.make_input(pd, seed, i)
              for i in range(workload.he_sample)]
    with RouteRunner(pd, warmup.deadline_s) as rt:
        warmup.run_instance(pd, warmup.make_input(pd, seed, 0), rt)
    return mods, pd, inputs


def run_instances(workload, pd, inputs, seed, rt, seconds, min_count):
    """Instances back to back until `seconds` passed and at least
    `min_count` ran. Returns instance wall times and cost blocks."""
    times, blocks = [], []
    start = perf_counter()
    while len(times) < min_count or perf_counter() - start < seconds:
        i = len(times)
        inp = inputs[i] if i < len(inputs) else \
            workload.make_input(pd, seed, i)
        gc.collect()
        rt.begin_instance()
        span = rt.tracer.span("instance") if rt.tracer else nullcontext()
        t0 = perf_counter()
        with span:
            workload.run_instance(pd, inp, rt)
        times.append(perf_counter() - t0)
        blocks.append(rt.blocks)
    return times, blocks


def timed_set_ups(workload, warmup, seed: int, setups: list):
    """SETUP_REPEATS timed set-ups; returns the last one's modules, namespace
    and inputs."""
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        kept = set_up(workload, warmup, seed)
        setups.append(perf_counter() - t0)
    return kept


def measure(workload, warmup, seed: int, seconds: float, trace: bool,
            out_dir: Path = OUT) -> dict:
    setups: list[float] = []
    mods, pd, inputs = timed_set_ups(workload, warmup, seed, setups)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "setup_s": setups}

    with RouteRunner(pd, workload.deadline_s) as rt:
        if not trace:
            times, blocks = run_instances(workload, pd, inputs, seed, rt,
                                          seconds, workload.he_sample)
        else:
            # the same first instance untraced, then traced: the difference
            # is the tracing overhead
            gc.collect()
            t0 = perf_counter()
            workload.run_instance(pd, inputs[0], rt)
            plain = perf_counter() - t0
            tracer = Tracer()
            tracer.install(mods)
            rt.tracer = tracer
            try:
                times, blocks = run_instances(workload, pd, inputs, seed, rt,
                                              seconds, 1)
            finally:
                tracer.uninstall()
                rt.tracer = None
            tracer.write(out_dir / f"{stem}.spans.jsonl")
    timed_set_ups(workload, warmup, seed, setups)  # timed only, not kept
    detail.update(instance_s=times, slowest_ok_route_s=rt.slowest_ok,
                  deadline_s=workload.deadline_s, failures=dict(rt.failures),
                  failed_routes=rt.failed_routes, incorrect=rt.incorrect)

    if trace:
        values = tracer.per_layer_metrics(len(times), times[0] - plain)
        units = {name: _layer_unit(name) for name in values}
    else:
        k = workload.he_sample
        det = json.dumps([{"instance": i, "routes": b}
                          for i, b in enumerate(blocks[:k])], sort_keys=True)
        (out_dir / f"{stem}.det.json").write_text(det + "\n")
        detail["det_sha256"] = hashlib.sha256(det.encode()).hexdigest()
        he = he_totals(b for inst in blocks[:k] for b in inst)
        values = {
            "setup_s": statistics.median(setups),
            "instance_s_p50": statistics.median(times),
            "instances_per_s": len(times) / sum(times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (rt.attempted - rt.failed) / rt.attempted,
            **{f"he_{key}": he[key] / k for key in HE_KEYS},
        }
        units = E2E_UNITS
    result = {
        "correct": not rt.incorrect,
        "attempted": rt.attempted,
        "failed": rt.failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }
    detail["result"] = result
    (out_dir / f"{stem}-trace{int(trace)}.json").write_text(
        json.dumps(detail, sort_keys=True, indent=1) + "\n")
    return detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


# -- reporting -------------------------------------------------------------


def table(details: list[dict]) -> str:
    """One row per workload with every end-to-end metric, or one row per
    per-layer metric for traced runs."""
    lines = []
    if "he_rotations" in details[0]["result"]["metrics"]:
        cols = ["setup_s", "instance_s_p50", "samples", "instances_per_s",
                "peak_rss_mb", "failed_frac", "ok_frac",
                *[f"he_{k}" for k in HE_KEYS]]
        units = {**E2E_UNITS, "samples": "count", "failed_frac": "frac"}
        head = ["workload"] + [f"{c}[{units[c]}]" for c in cols]
        rows = [head]
        for d in details:
            res = d["result"]
            vals = {k: m["value"] for k, m in res["metrics"].items()}
            vals["samples"] = len(d["instance_s"])
            vals["failed_frac"] = res["failed"] / res["attempted"]
            rows.append([d["workload"]] + [_fmt(vals[c]) for c in cols])
        widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths))
                  for r in rows]
    else:
        for d in details:
            for name, m in d["result"]["metrics"].items():
                lines.append(f"{d['workload']:<12} {name:<40} "
                             f"{_fmt(m['value']):>14} {m['unit']}")
    for d in details:
        res = d["result"]
        fails = " ".join(f"{k}={v}" for k, v in sorted(d["failures"].items()))
        lines.append(f"{d['workload']}: correct={res['correct']} "
                     f"routes={res['attempted']} failed={res['failed']}"
                     + (f" ({fails})" if fails else "")
                     + (f" det_sha256={d['det_sha256'][:16]}"
                        if "det_sha256" in d else ""))
    return "\n".join(lines)


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def run_all(args) -> int:
    details = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        stem = f"{name}-seed{args.seed}-trace{args.trace}.json"
        details.append(json.loads((OUT / stem).read_text()))
    print(table(details))
    print(json.dumps({d["workload"]: d["result"] for d in details}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        detail = measure(WORKLOADS[args.workload](), WARMUPS[args.workload](),
                         args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(table([detail]))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
