"""Operation counting for simulated ciphertext evaluation.

The ledger is one op stream: every rotation, plaintext-mask multiplication,
ciphertext multiplication and rescale performed on a SlotVector is appended,
in execution order, as one Op to the innermost active CostLedger. Counts, key
sets and per-level tallies are views of that stream, and the cost model
prices every route, rescales included, from it alone.

Ledgers nest: `with CostLedger() as lg:` captures everything evaluated inside,
including helper routines that know nothing about the caller. An inner ledger
takes the ops of its scope; its parent sees none of them.
"""

from __future__ import annotations

import contextvars
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One recorded operation.

    kind is "rotate", "cmult", "mult" or "rescale". level is the operand's
    modulus level: a rescale records the level it drops from, a mult the
    lower of its two operand levels. It is not a network's schedule level: a
    network rotation carries that in its tag (net.g{group}.l{level},
    net.collapse.top or net.collapse.bot), which network.rotation_profile
    reads. step is the rotation step reduced mod n (never 0), and 0 for
    every other kind.
    """

    kind: str
    level: int
    tag: str = ""
    step: int = 0


@dataclass
class CostLedger:
    ops: list[Op] = field(default_factory=list)
    _token: contextvars.Token | None = None

    # -- views of the stream -------------------------------------------------

    def of_kind(self, kind: str) -> list[Op]:
        return [op for op in self.ops if op.kind == kind]

    @property
    def rotations(self) -> list[Op]:
        return self.of_kind("rotate")

    @property
    def rotation_count(self) -> int:
        return len(self.rotations)

    @property
    def cmult_count(self) -> int:
        return len(self.of_kind("cmult"))

    def key_set(self) -> set[int]:
        """Distinct rotation steps used; the evaluation-key budget."""
        return {op.step for op in self.rotations}

    def rotations_by_tag(self) -> Counter:
        return Counter(op.tag for op in self.rotations)

    def cmults_by_level(self) -> Counter:
        return Counter(op.level for op in self.of_kind("cmult"))

    # -- scoping -------------------------------------------------------------

    def __enter__(self) -> "CostLedger":
        self._token = _active.set(self)
        return self

    def __exit__(self, *exc) -> None:
        assert self._token is not None
        _active.reset(self._token)
        self._token = None


_active: contextvars.ContextVar[CostLedger | None] = contextvars.ContextVar(
    "permdec_cost_ledger", default=None
)


def record(kind: str, level: int, tag: str = "", step: int = 0) -> None:
    """Append one op to the innermost active ledger, if there is one."""
    lg = _active.get()
    if lg is not None:
        lg.ops.append(Op(kind, level, tag, step))
