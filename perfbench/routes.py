"""Running routes: a per-route deadline, failure accounting, cost blocks.

A route is one evaluation of one input along one decomposition route. The
runner gives each route a deadline (SIGALRM, so everything stays in one
thread), runs it in a copy of the current context so a CostLedger left open
by an interrupted route cannot leak, and turns any exception into a counted
failure whose type is recorded. Time spent failing stays in the instance
time: a route that times out costs its whole deadline.

Each finished route leaves a deterministic modeled-cost block built from
`CostReport.to_json` and `CostLedger.cmults_by_level`; the he_* figures are
sums over these blocks.
"""

from __future__ import annotations

import contextvars
import signal
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

HE_KEYS = ("rotations", "keys", "depth", "masks", "scalar_mults")


class RouteTimeout(BaseException):
    """A route ran past its deadline. Not an Exception, so no handler in the
    program under test can swallow it."""


class BudgetMismatch(Exception):
    """Executed rotations disagree with the closed-form budget."""


def _on_alarm(signum, frame):
    raise RouteTimeout()


def cost_block(led, report=None, depth: int | None = None) -> dict:
    """Modeled cost of one route. `report` is the route's CostReport when
    chain_cost prices it; otherwise rotations, keys and depth come from the
    evaluation's ledger and output vector."""
    executed: Counter = Counter(ev.level for ev in led.rotations)
    block = {
        "masks": led.cmult_count,
        "masks_by_level": {str(lv): c for lv, c in
                           sorted(led.cmults_by_level().items())},
        "executed_rotations_by_level": {str(lv): c for lv, c in
                                        sorted(executed.items())},
    }
    if report is not None:
        block.update(rotations=sum(report.per_level.values()),
                     keys=len(report.key_set), depth=report.depth,
                     scalar_mults=report.total, report=report.to_json())
    else:
        block.update(rotations=led.rotation_count, keys=len(led.key_set()),
                     depth=depth, scalar_mults=None, report=None)
    return block


def he_totals(blocks) -> dict:
    """he_* sums over finished routes' cost blocks (failed routes add
    nothing; scalar mults only where chain_cost priced the route)."""
    out = dict.fromkeys(HE_KEYS, 0)
    for block in blocks:
        for key in HE_KEYS:
            if block.get(key) is not None:
                out[key] += block[key]
    return out


class RouteRunner:
    """Runs the routes of successive instances and keeps their accounts."""

    def __init__(self, pd, deadline_s: float, tracer=None):
        self.pd = pd
        self.deadline_s = deadline_s
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # error type -> count
        self.failed_routes: dict[str, str] = {}  # route -> last error type
        self.incorrect: list[str] = []
        self.slowest_ok = 0.0  # longest route or stage that finished
        self.blocks: list[dict] = []  # current instance, in route order
        self._previous = None

    def __enter__(self) -> "RouteRunner":
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin_instance(self) -> None:
        self.blocks = []

    # -- helpers for route bodies --------------------------------------------

    def oracle(self):
        """Span around a reference computation; permdec calls inside it are
        not traced as program time."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("oracle", opaque=True)

    def check(self, route: str, ok: bool) -> None:
        if not ok:
            self.incorrect.append(route)

    def count(self, key: str, k) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += k

    def evaluate(self, route: str, obj, evaluate, vals, want,
                 price: bool = True) -> dict:
        """Evaluate `obj` on `vals`, check the output against `want`, price
        it with chain_cost when `price`, and return the cost block."""
        pd = self.pd
        with pd.ledger.CostLedger() as led:
            out = evaluate(obj, pd.slots.SlotVector.from_list(vals))
        with self.oracle():
            self.check(route, out.to_list() == want)
        report = pd.costmodel.chain_cost(obj) if price else None
        return cost_block(led, report, out.depth_used)

    # -- running --------------------------------------------------------------

    def stage(self, name: str, fn):
        """A step shared by several routes (a build, a reference). It is not
        a route; when it fails the routes that need it fail instead."""
        return self._run(name, fn, counted=False)

    def route(self, name: str, fn, *needs):
        """Run fn() -> (value, cost block) as a route; returns the value, or
        None when the route failed or a route it needs had failed."""
        self.attempted += 1
        if any(x is None for x in needs):
            self._fail(name, "DependencyFailed")
            return None
        return self._run(name, fn, counted=True)

    def _run(self, name: str, fn, counted: bool):
        tracer = self.tracer
        depth = len(tracer.stack) if tracer is not None else 0
        ctx = contextvars.copy_context()
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                result = ctx.run(fn)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RouteTimeout:
            self._fail(name, "RouteTimeout", counted)
            return None
        except Exception as exc:  # any failure of the program is counted
            self._fail(name, type(exc).__name__, counted)
            return None
        finally:
            if tracer is not None:
                tracer.reset_stack(depth)
        self.slowest_ok = max(self.slowest_ok, perf_counter() - t0)
        if not counted:
            return result
        value, block = result
        self.blocks.append({"route": name, **block})
        return value

    def _fail(self, name: str, kind: str, counted: bool = True) -> None:
        if counted:
            self.failed += 1
            self.failures[kind] += 1
            self.blocks.append({"route": name, "failed": kind})
        self.failed_routes[name] = kind
