"""In-memory span tracer that wraps permdec from the outside.

`Tracer.install(modules)` replaces every public module-level function of
each permdec module, plus the SlotVector / Permutation / DecompositionChain
methods named in METHODS, with a wrapper that records a span (name, start,
end, parent). Callers bind functions by name (`from .network import
evaluate_network`), so a wrapper is also installed under every module global
that holds the original object. `uninstall()` puts the originals back.

Spans live in four parallel lists and are written out only when the run
ends. A span's self time is its duration minus the durations of its direct
children; `per_layer_metrics` turns spans and counts into the benchmark's
`<module>.<function>.<stat>` figures.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# class attributes wrapped besides the module-level functions: span name ->
# (module, class, method)
METHODS = {
    "slots.rotate": ("slots", "SlotVector", "rotate"),
    "slots.cmult": ("slots", "SlotVector", "cmult"),
    "slots.add": ("slots", "SlotVector", "add"),
    "slots.rescale": ("slots", "SlotVector", "rescale"),
    "slots.mult": ("slots", "SlotVector", "mult"),
    "slots.compose": ("slots", "Permutation", "compose"),
    "chain.evaluate": ("chain", "DecompositionChain", "evaluate"),
    "chain.product": ("chain", "DecompositionChain", "product"),
}
SLOT_OPS = ("rotate", "cmult", "add", "rescale", "mult")
# spans a chain_cost call runs to replay the structure on a zero vector
REPLAY_SPANS = ("network.evaluate_network", "benes.evaluate_benes",
                "chain.evaluate")
# aggregate metric -> span names whose self time it sums
GROUPS = {
    "structured.decompose": ("structured.decompose_ut",
                             "structured.decompose_sigma",
                             "structured.decompose_tau",
                             "structured.decompose_gamma_xi_pad"),
    "structured.build": ("structured.build_ut", "structured.build_sigma",
                         "structured.build_tau", "structured.build_gamma_xi"),
}
SELF_S = (
    [f"network.{f}" for f in ("build_network", "reduce_masks",
                              "collapse_levels", "evaluate_network",
                              "rotation_profile")]
    + [f"slots.{op}" for op in SLOT_OPS] + ["slots.compose",
                                            "costmodel.chain_cost",
                                            "diag.plan_bsgs"]
    + [f"diag.{f}" for f in ("apply_hlt_bsgs", "apply_hlt_direct", "matmul",
                             "perm_to_diag", "to_permutation")]
    + [f"benes.{f}" for f in ("benes_decompose", "collapse_benes",
                              "restrict_keys", "evaluate_benes")]
    + ["chain.evaluate", "chain.product", "structured.decompose",
       "structured.build", "search.max_ideal_depth",
       "search.validate_ideal_chain", "hmm.hmm_multiply", "oracle"]
    # where those leave most of their time: the depth-1 enumeration (the
    # search's timeouts), hmm's pipeline and replication, block permutations
    # and the raw tuple rotation
    + ["search.enumerate_depth1", "hmm.hmm_evaluate", "hmm.srep_replicate",
       "structured.block_local_perm", "slots.rotate_tuple"])
# modules whose spans are also summed as `<module>.all.self_s`, so time in
# functions no other metric names still shows
MODULE_TOTALS = ("slots", "ledger", "diag", "chain", "search", "structured",
                 "hmm", "network", "benes", "costmodel")
CALLS = ([f"slots.{op}" for op in SLOT_OPS]
         + ["diag.plan_bsgs", "search.enumerate_depth1"])


def _plan_bsgs_hook(signature):
    """Before-hook for plan_bsgs: records the call's arguments (offsets as a
    sorted tuple) and how many n1 candidates it sweeps, and passes the offsets on materialized so an
    iterator is not consumed twice."""

    def before(tracer: "Tracer", args, kwargs):
        bound = signature.bind(*args, **kwargs)
        offsets = bound.arguments["offsets"] = tuple(bound.arguments["offsets"])
        ts = tuple(sorted(set(offsets)))
        rest = tuple(v for k, v in bound.arguments.items() if k != "offsets")
        tracer.plan_keys.add((ts, rest))
        fixed = any(bound.arguments.get(k) is not None
                    for k in ("n1", "d1", "d2"))
        dmax = max((abs(t) for t in ts), default=0)
        tracer.counts["diag.plan_bsgs.n1_swept"] += 1 if fixed else dmax
        return bound.args, bound.kwargs

    return before


def _network_counts(tracer: "Tracer", net) -> None:
    tracer.counts["network.nodes"] += len(net.nodes)
    tracer.counts["network.edges"] += len(net.edges)
    tracer.counts["network.groups"] += len(net.group_spans)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.plan_keys: set[tuple] = set()  # distinct plan_bsgs arguments
        self.opaque = 0  # > 0 inside an opaque span: nested calls untraced
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(-1.0)
        self.stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        if sid in self.stack:
            del self.stack[self.stack.index(sid):]

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        """A span around the benchmark's own code; an opaque one hides the
        permdec calls it makes (reference checks are not program time)."""
        if self.opaque:
            yield
            return
        sid = self._open(name)
        self.opaque += opaque
        try:
            yield
        finally:
            self.opaque -= opaque
            self._close(sid)

    def reset_stack(self, depth: int) -> None:
        """Drop spans an interrupted route left open above `depth`."""
        for sid in self.stack[depth:]:
            if self.ends[sid] < 0:
                self.ends[sid] = perf_counter()
        del self.stack[depth:]
        self.opaque = 0

    def _wrapper(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.opaque:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(tracer, out)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap permdec: `modules` maps short module names to module objects."""
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                before = _plan_bsgs_hook(inspect.signature(obj)) \
                    if name == "diag.plan_bsgs" else None
                after = _network_counts if name == "network.build_network" \
                    else None
                replaced[id(obj)] = (obj, self._wrapper(name, obj, before,
                                                        after))
        # rebind every module global that holds a wrapped original
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for name, (short, cls_name, meth) in METHODS.items():
            cls = getattr(modules[short], cls_name)
            orig = cls.__dict__[meth]
            before = None
            if short == "slots" and meth in SLOT_OPS:
                before = _count_elems
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrapper(name, orig, before))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def durations(self) -> list[float]:
        return [max(e, s) - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> dict[str, float]:
        dur = self.durations()
        own = list(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        out: Counter = Counter()
        for sid, name in enumerate(self.names):
            out[name] += own[sid]
        return dict(out)

    def per_layer_metrics(self, instances: int, overhead_s: float) -> dict:
        """Every per-layer figure, per traced instance (ratios as they are)."""
        own = self.self_times()
        calls = Counter(self.names)
        dur = self.durations()
        names, parents = self.names, self.parents
        # slot ops run under chain_cost belong to the cost model's replay
        in_cost = [False] * len(names)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                in_cost[sid] = in_cost[parent] or \
                    names[parent] == "costmodel.chain_cost"
        slot_ops = {f"slots.{op}" for op in SLOT_OPS}
        ops = [sid for sid, nm in enumerate(names) if nm in slot_ops]
        replay_ops = sum(1 for sid in ops if in_cost[sid])
        cost_s = sum(dur[sid] for sid, nm in enumerate(names)
                     if nm == "costmodel.chain_cost")
        replay_s = sum(dur[sid] for sid, nm in enumerate(names)
                       if nm in REPLAY_SPANS and parents[sid] >= 0
                       and names[parents[sid]] == "costmodel.chain_cost")
        per = 1.0 / max(instances, 1)
        m: dict[str, float] = {}
        for name in SELF_S:
            spans = GROUPS.get(name, (name,))
            m[f"{name}.self_s"] = sum(own.get(s, 0.0) for s in spans) * per
        for mod in MODULE_TOTALS:
            m[f"{mod}.all.self_s"] = sum(
                v for k, v in own.items() if k.startswith(mod + ".")) * per
        for name in CALLS:
            m[f"{name}.calls"] = calls[name] * per
        for key in ("network.nodes", "network.edges", "network.groups",
                    "slots.elems", "diag.plan_bsgs.n1_swept",
                    "hmm.rotations_over_budget"):
            m[key] = self.counts[key] * per
        m["slots.replay_ops_share"] = replay_ops / len(ops) if ops else 0.0
        m["costmodel.replay_s"] = replay_s * per
        m["costmodel.replay_share"] = replay_s / cost_s if cost_s else 0.0
        plan_calls = calls["diag.plan_bsgs"]
        m["diag.plan_bsgs.distinct_ratio"] = (
            len(self.plan_keys) / plan_calls if plan_calls else 0.0)
        m["trace.overhead_s"] = overhead_s
        return m

    def write(self, path) -> None:
        """One JSON line per span: [id, name, start, end, parent], then a
        final line with the counts."""
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([sid, name, self.starts[sid],
                                     self.ends[sid], self.parents[sid]]))
                fh.write("\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}))
            fh.write("\n")


def _count_elems(tracer: Tracer, args, kwargs):
    tracer.counts["slots.elems"] += len(args[0].slots)
    return args, kwargs
