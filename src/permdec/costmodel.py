"""Scalar-multiplication pricing for key-switched rotations.

A rotation on a ciphertext holding w moduli runs three submodules: Decompose
(basis split of the key-switched component, with NTT round trips), MultSum
(inner products against the two key halves) and ModDown (dropping the special
modulus P of alpha primes). A level drop is a fourth submodule, Rescale. The
fused form replaces the rotation's closing ModDown with a single switch that
drops P and the top prime together, so a rotate-and-drop node pays the
rotation at its incoming width and gets the level drop almost for free. The
un-fused baseline rotates the incoming ciphertext as is and rescales
separately, which is what the fused form is measured against.

Masks (plaintext multiplications) are priced at 2*N*(level+1) each, an
elementwise product over both ciphertext components; rotation-only totals are
kept in the separate breakdown entries so the extension is visible.

Every route is priced from one trace: `_replay` evaluates the structure once
on a slot-free vector (SlotVector.slot_free) under its own CostLedger, which
takes every op of that scope (an outer ledger sees none of the replay). The
slot-free run records the ops of a run on real slots and does no slot
arithmetic. That op stream alone supplies the rotation counts, the per-level
counts, the key set, the mask levels and the rescales. There are two kinds of
structure. A network's rotations are grouped by the schedule level named in
their tags and get the fused form there, so its rescales are not charged
apart. Every factor chain, Beneš baselines and key-restricted ones included,
is a DecompositionChain and runs through its own `evaluate`; its rotations
are grouped by operand level, which puts those of chain position j (counting
from the input) on level start - j, each priced at that width, and each
recorded rescale is charged for the drop from its operand level. Plan-side predictions (BsgsPlan.rotation_count, the BenesChain
counts, hmm_rotation_budget) stay independent of this and are checked
against it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from .chain import DecompositionChain
from .ledger import CostLedger
from .network import MultiGroupNetwork, evaluate_network, rotation_profile
from .slots import DEFAULT_LEVEL, DepthExhaustedError, SlotVector


def _ceil_div(x: int, a: int) -> int:
    return -(-x // a)


@dataclass(frozen=True)
class CostParams:
    """Ring degree N, modulus chain sizes, and the operand level."""

    N: int = 1 << 15
    L: int = 18  # moduli in Q
    alpha: int = 3  # moduli in P
    level: int = DEFAULT_LEVEL

    def __post_init__(self):
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0 <= self.level <= self.L - 1:
            raise ValueError("level out of range")

    @property
    def log_n(self) -> int:
        return self.N.bit_length() - 1

    @property
    def beta(self) -> int:
        return _ceil_div(self.level + 1, self.alpha)

    def at(self, level: int) -> "CostParams":
        return replace(self, level=level)


def _rot_parts(width: int, cp: CostParams) -> tuple[int, int, int]:
    """Decompose/MultSum/ModDown for one rotation over `width` moduli."""
    N, lg, a = cp.N, cp.log_n, cp.alpha
    b = _ceil_div(width, a)
    dec = N * lg * width + b * N * (a + width * (lg + a))
    ms = 2 * N * b * (width + a)
    md = 2 * N * (width * (a + lg + 1) + a * (lg + 1))
    return dec, ms, md


def _fused_moddown(cp: CostParams) -> int:
    # drops P and the top prime in one switch, landing on cp.level
    N, lg, a = cp.N, cp.log_n, cp.alpha
    return 2 * N * (cp.level * ((a + 1) + lg + 1) + (a + 1) * (lg + 1))


SUBMODULES = ("rescale", "decompose", "multsum", "moddown",
              "rotation_separate", "rotation_merged", "mask")


def submodule_cost(kind: str, cp: CostParams) -> int:
    """Scalar multiplications of one submodule at cp.level.

    rescale prices the drop from level+1 to level. decompose/multsum/moddown
    price a rotation of a level-cp.level ciphertext (width level+1).
    rotation_separate is rescale plus a rotation at the incoming width
    (level+2); rotation_merged fuses the drop into the rotation's ModDown.
    """
    N, lg, l = cp.N, cp.log_n, cp.level
    if kind == "rescale":
        return 2 * N * ((l + 1) + (l + 2) * (lg + 1))
    if kind in ("decompose", "multsum", "moddown"):
        dec, ms, md = _rot_parts(l + 1, cp)
        return {"decompose": dec, "multsum": ms, "moddown": md}[kind]
    if kind == "rotation_separate":
        return submodule_cost("rescale", cp) + sum(_rot_parts(l + 2, cp))
    if kind == "rotation_merged":
        dec, ms, _ = _rot_parts(l + 2, cp)
        return dec + ms + _fused_moddown(cp)
    if kind == "mask":
        return 2 * N * (l + 1)
    raise ValueError(f"unknown submodule kind: {kind}")


@dataclass
class CostReport:
    n: int
    depth: int
    per_level: dict[int, int]
    key_set: set[int]
    breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.breakdown.values())

    @property
    def rotation_total(self) -> int:
        return self.total - self.breakdown.get("mask", 0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "depth": self.depth,
            "per_level": {str(k): v for k, v in sorted(self.per_level.items())},
            "key_set": sorted(self.key_set),
            "breakdown": dict(sorted(self.breakdown.items())),
            "total": self.total,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        levels = sorted(self.per_level)
        w.writerow(["n", "depth", "keys"]
                   + [f"rot_l{lv}" for lv in levels] + ["total"])
        w.writerow([self.n, self.depth, len(self.key_set)]
                   + [self.per_level[lv] for lv in levels] + [self.total])
        return buf.getvalue()

    def save(self, path, fmt: str = "json") -> None:
        with open(path, "w") as fh:
            if fmt == "json":
                json.dump(self.to_json(), fh, sort_keys=True)
                fh.write("\n")
            else:
                fh.write(self.to_csv())


def _empty_breakdown() -> dict[str, int]:
    return dict.fromkeys(("rescale", "decompose", "multsum", "moddown",
                          "mask"), 0)


def _mask_charge(led: CostLedger, cp0: CostParams) -> int:
    out = 0
    for level, count in led.cmults_by_level().items():
        out += count * submodule_cost("mask", cp0.at(level))
    return out


def _replay(source, level: int = DEFAULT_LEVEL) -> CostLedger:
    """The op stream of one run of a network or chain on a slot-free vector
    at `level`: the ops a real run records, without the slot arithmetic."""
    v = SlotVector.slot_free(source.n, level)
    with CostLedger() as led:
        if isinstance(source, MultiGroupNetwork):
            evaluate_network(source, v)
        else:
            source.evaluate(v)
    return led


def _network_cost(net: MultiGroupNetwork, cp0: CostParams) -> CostReport:
    led = _replay(net, cp0.level)
    prof = rotation_profile(net, led)
    breakdown = _empty_breakdown()
    for lv, count in prof.per_level.items():
        l = cp0.level - lv
        if l < 0:
            raise DepthExhaustedError(f"network level {lv} underflows "
                                      f"the modulus chain at {cp0.level}")
        cp = cp0.at(l)
        dec, ms, _ = _rot_parts(l + 2, cp)
        breakdown["decompose"] += count * dec
        breakdown["multsum"] += count * ms
        breakdown["moddown"] += count * _fused_moddown(cp)
    breakdown["mask"] = _mask_charge(led, cp0)
    depth = max(prof.per_level, default=0)
    return CostReport(net.n, depth, prof.per_level, prof.key_set, breakdown)


def _chain_cost(ch: DecompositionChain, cp0: CostParams) -> CostReport:
    depth = ch.depth
    if depth > cp0.level:
        raise DepthExhaustedError(f"factor {depth - 1 - cp0.level} underflows "
                                  f"the modulus chain at {cp0.level}")
    led = _replay(ch, cp0.level)
    # factor position (input side first) = cp0.level - operand level
    per_level = dict.fromkeys(range(1, depth + 1), 0)
    for op in led.rotations:
        per_level[cp0.level - op.level + 1] += 1
    breakdown = _empty_breakdown()
    for pos in range(depth):
        l = cp0.level - pos
        count = per_level[pos + 1]
        dec, ms, md = _rot_parts(l + 1, cp0.at(l))
        breakdown["decompose"] += count * dec
        breakdown["multsum"] += count * ms
        breakdown["moddown"] += count * md
    for op in led.of_kind("rescale"):
        breakdown["rescale"] += submodule_cost("rescale", cp0.at(op.level - 1))
    breakdown["mask"] = _mask_charge(led, cp0)
    return CostReport(ch.n, depth, per_level, led.key_set(), breakdown)


def chain_cost(source, cp0: CostParams | None = None) -> CostReport:
    """Price a network or factor chain starting from level cp0.level.

    Network rotations get the fused rotate-and-drop form on the schedule
    level = cp0.level - network_level; chain rotations are priced at their
    operand width, plus each recorded rescale at the level it drops from.
    """
    if cp0 is None:
        cp0 = CostParams()
    if isinstance(source, MultiGroupNetwork):
        return _network_cost(source, cp0)
    if isinstance(source, DecompositionChain):
        return _chain_cost(source, cp0)
    raise TypeError(f"cannot cost a {type(source).__name__}")
