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

Every route is priced from one trace and by one loop. `replay` evaluates the
structure once, by its own `.evaluate(v)` (a network's runs evaluate_network),
on SlotVector.zeros, the vector with no support, under its own CostLedger,
which takes every op of that scope (an outer ledger sees none of
the replay). That run records the ops of a run on real slots and, as its
vectors stay empty, does no slot arithmetic. `chain_cost` then puts each
rotation at a position p, 1 for the input side, and charges it at width
start - p + 2 (start = cp0.level). For a factor chain, a padded chain or
anything else with `.n` and `.evaluate(v)`, p = start - operand level + 1, so
the rotations of chain factor j (counting from the input) sit on position j;
they take the plain ModDown, and every recorded rescale is charged for the
drop from its operand level. A network's rotations sit on the schedule level
their tags name (network.rotation_profile) and take the fused ModDown onto
level start - p, so its rescales are not charged apart. Networks keep the tag
schedule because the simulator rescales only at non-bottom rotation nodes: a
value that reaches a rotation through standby columns or the collapsed top
has dropped fewer levels than the schedule counts (12 of the 69 rotations of
the raw benchmark network at n = 2^14, seed 1, instance 0, run one or more
levels higher), and pricing those by operand level would change the network
reports. Masks are charged at their recorded level in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .ledger import CostLedger
# unused here, but the benchmark's check_wrapping needs the binding
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "depth": self.depth,
            "per_level": {str(k): v for k, v in sorted(self.per_level.items())},
            "key_set": sorted(self.key_set),
            "breakdown": dict(sorted(self.breakdown.items())),
            "total": self.total,
        }


def replay(source, level: int = DEFAULT_LEVEL
           ) -> tuple[CostLedger, SlotVector]:
    """One run of a network or chain on the zero vector at `level`: the
    ledger of the ops a real run records, and the output vector."""
    v = SlotVector.zeros(source.n, level)
    with CostLedger() as led:
        out = source.evaluate(v)
    return led, out


def chain_cost(source, cp0: CostParams | None = None) -> CostReport:
    """Price anything with .n and .evaluate(v), a network included, starting
    from level cp0.level.

    A rotation at position p is priced at width cp0.level - p + 2. Network
    rotations take the fused ModDown onto level cp0.level - p, and the
    network's rescales are not charged apart; every other structure's
    rotations take the plain ModDown, plus each recorded rescale at the
    level it drops from. Masks are charged at their recorded level. depth is
    a network's deepest schedule level, and otherwise the levels the output
    consumed (the factor count of a DecompositionChain). A structure deeper
    than cp0.level raises DepthExhaustedError.
    """
    if cp0 is None:
        cp0 = CostParams()
    if not (hasattr(source, "n")
            and callable(getattr(source, "evaluate", None))):
        raise TypeError(f"cannot cost a {type(source).__name__}")
    network = isinstance(source, MultiGroupNetwork)
    led, out = replay(source, cp0.level)
    if network:
        per_level = rotation_profile(source, led)
        depth = max(per_level, default=0)
    else:
        depth = out.depth_used
        per_level = dict.fromkeys(range(1, depth + 1), 0)
        for op in led.rotations:
            p = cp0.level - op.level + 1
            per_level[p] = per_level.get(p, 0) + 1
    breakdown = dict.fromkeys(("rescale", "decompose", "multsum", "moddown",
                               "mask"), 0)
    for p, count in per_level.items():
        l = cp0.level - p
        dec, ms, md = _rot_parts(l + 2, cp0)
        if network:
            if l < 0:
                raise DepthExhaustedError(f"network level {p} underflows "
                                          f"the modulus chain at {cp0.level}")
            md = _fused_moddown(cp0.at(l))
        breakdown["decompose"] += count * dec
        breakdown["multsum"] += count * ms
        breakdown["moddown"] += count * md
    for op in led.ops:
        if op.kind == "cmult":
            breakdown["mask"] += submodule_cost("mask", cp0.at(op.level))
        elif op.kind == "rescale" and not network:
            breakdown["rescale"] += submodule_cost("rescale",
                                                   cp0.at(op.level - 1))
    return CostReport(source.n, depth, per_level, led.key_set(), breakdown)
