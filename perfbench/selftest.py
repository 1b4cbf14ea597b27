#!/usr/bin/env python3
"""Self-test of the benchmark's own code at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is produced with its unit,
that the deterministic cost block and the he_* figures repeat byte for byte
for one seed, that a route which raises, times out or lacks its input is
counted and not fatal, that self time is span minus child spans, that the
tracer wraps functions where callers bound them and restores them, and that
the benchmark exits non-zero without a result when permdec is missing.
Prints one line per check; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import run
from routes import RouteRunner
from tracer import Tracer
from workloads import BenesWorkload, LaddersWorkload, NetWorkload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT = run.OUT / "selftest"
TINY = {
    "net": NetWorkload(1 << 6),
    "benes": BenesWorkload(1 << 5),
    # d = 8 reaches the tau search, which does not finish at that size
    "ladders": LaddersWorkload((4, 8), 1 << 8, deadline_s=0.3),
}


class SelfTestError(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def _measure(wl, seed: int, trace: bool) -> dict:
    return run.measure(wl, wl, seed, 0.05, trace, OUT)


def check_metric_names() -> None:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for key, wl in TINY.items():
        for trace, spec in ((False, e2e), (True, layer)):
            res = _measure(wl, 3, trace)["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == spec, f"{key} trace={trace}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(got) ^ set(spec))}")
            expect(res["correct"], f"{key} trace={trace}: wrong output")
            expect(all(isinstance(m["value"], (int, float))
                       for m in res["metrics"].values()),
                   f"{key}: non-numeric metric")


def check_det_block_repeats() -> None:
    for key, wl in TINY.items():
        blobs, he = [], []
        for _ in range(2):
            res = _measure(wl, 5, False)
            blobs.append((OUT / f"{wl.name}-seed5.det.json").read_bytes())
            he.append({k: m["value"] for k, m in res["result"]["metrics"].items()
                       if k.startswith("he_")})
        expect(blobs[0] == blobs[1], f"{key}: deterministic block differs")
        expect(he[0] == he[1], f"{key}: he_* differ between runs")


def check_known_failures_counted() -> None:
    detail = _measure(TINY["ladders"], 7, False)
    res = detail["result"]
    expect(detail["failures"].get("RouteTimeout", 0) >= 1,
           f"tau search at d=8 not counted as a timeout: {detail['failures']}")
    expect(res["failed"] == sum(detail["failures"].values()),
           "failure types do not add up")
    ok = res["metrics"]["ok_frac"]["value"]
    expect(abs(ok - (1 - res["failed"] / res["attempted"])) < 1e-12,
           "ok_frac is not 1 - failed / attempted")


def check_failing_routes_not_fatal() -> None:
    pd = SimpleNamespace(**run.import_permdec())

    def spin():
        while True:
            pass

    with RouteRunner(pd, 0.2) as rt:
        rt.begin_instance()
        first = rt.route("raises", lambda: 1 // 0)
        rt.route("needs-first", lambda: (None, {}), first)
        t0 = time.perf_counter()
        rt.route("times-out", spin)
        waited = time.perf_counter() - t0
        rt.route("fine", lambda: (1, {"rotations": 2}))
    expect(rt.attempted == 4 and rt.failed == 3, "failures miscounted")
    expect(dict(rt.failures) == {"ZeroDivisionError": 1,
                                 "DependencyFailed": 1, "RouteTimeout": 1},
           f"failure types: {dict(rt.failures)}")
    expect(0.2 <= waited < 2.0, f"deadline not enforced: {waited:.2f} s")
    expect([b["route"] for b in rt.blocks]
           == ["raises", "needs-first", "times-out", "fine"],
           "route blocks out of order")


def check_self_time() -> None:
    tr = Tracer()
    # root [0, 10] with children [1, 4] and [5, 6]; grandchild [2, 3]
    tr.names = ["a", "b", "c", "b"]
    tr.starts = [0.0, 1.0, 2.0, 5.0]
    tr.ends = [10.0, 4.0, 3.0, 6.0]
    tr.parents = [-1, 0, 1, 0]
    own = tr.self_times()
    expect(own == {"a": 6.0, "b": 3.0, "c": 1.0}, f"self times: {own}")


def check_wrapping() -> None:
    mods = run.import_permdec()
    orig = mods["network"].evaluate_network
    expect(mods["costmodel"].evaluate_network is orig, "precondition")
    tr = Tracer()
    tr.install(mods)
    try:
        wrapped = mods["network"].evaluate_network
        expect(wrapped is not orig, "network.evaluate_network not wrapped")
        expect(mods["costmodel"].evaluate_network is wrapped,
               "costmodel's binding of evaluate_network not wrapped")
        expect(mods["benes"].plan_bsgs is mods["diag"].plan_bsgs,
               "benes' binding of plan_bsgs not wrapped")
        p = mods["slots"].Permutation([1, 2, 3, 0])
        net = mods["network"].build_network(p)
        mods["costmodel"].chain_cost(net)
    finally:
        tr.uninstall()
    expect(mods["network"].evaluate_network is orig
           and mods["costmodel"].evaluate_network is orig,
           "uninstall did not restore the originals")
    calls = set(tr.names)
    for name in ("network.build_network", "costmodel.chain_cost",
                 "network.evaluate_network", "network.rotation_profile",
                 "slots.rotate", "slots.cmult"):
        expect(name in calls, f"no span for {name}")
    expect(not tr.stack, "spans left open")


def check_missing_sources_fail() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "net-2e14",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "benchmark succeeded without permdec")
    expect("correct" not in proc.stdout, "printed a result without permdec")


CHECKS = [check_self_time, check_failing_routes_not_fatal, check_wrapping,
          check_metric_names, check_det_block_repeats,
          check_known_failures_counted, check_missing_sources_fail]


def main() -> int:
    for check in CHECKS:
        try:
            check()
        except SelfTestError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
