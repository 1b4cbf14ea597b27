"""Operation counting for simulated ciphertext evaluation.

Every rotation, scalar multiplication, ciphertext multiplication and rescale
performed on a SlotVector is recorded in the innermost active CostLedger.
Ledgers nest: `with CostLedger() as lg:` captures everything evaluated inside,
including helper routines that know nothing about the caller.
"""

from __future__ import annotations

import contextvars
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RotEvent:
    """One executed rotation. step is reduced mod n and never 0.

    level is the operand's modulus level at execution time (-1 when the
    operation happened outside a level-carrying context). It is not a
    network's schedule level: a network rotation carries that in its tag
    (net.g{group}.l{level}, net.collapse.top or net.collapse.bot), which
    network.rotation_profile reads.
    """

    step: int
    tag: str = ""
    level: int = -1


@dataclass(frozen=True)
class CmultEvent:
    """One plaintext-mask multiplication."""

    tag: str = ""
    level: int = -1


@dataclass
class CostLedger:
    rotations: list[RotEvent] = field(default_factory=list)
    cmults: list[CmultEvent] = field(default_factory=list)
    mults: list[str] = field(default_factory=list)
    rescales: list[str] = field(default_factory=list)
    _token: contextvars.Token | None = None

    # -- recording -----------------------------------------------------------

    def add_rotation(self, step: int, tag: str = "", level: int = -1) -> None:
        self.rotations.append(RotEvent(step, tag, level))

    def add_cmult(self, tag: str = "", level: int = -1) -> None:
        self.cmults.append(CmultEvent(tag, level))

    def add_mult(self, tag: str = "") -> None:
        self.mults.append(tag)

    def add_rescale(self, tag: str = "") -> None:
        self.rescales.append(tag)

    # -- queries -------------------------------------------------------------

    @property
    def rotation_count(self) -> int:
        return len(self.rotations)

    @property
    def cmult_count(self) -> int:
        return len(self.cmults)

    @property
    def mult_count(self) -> int:
        return len(self.mults)

    @property
    def rescale_count(self) -> int:
        return len(self.rescales)

    def rotation_steps(self) -> Counter:
        """Multiset of executed steps (mod n, nonzero)."""
        return Counter(ev.step for ev in self.rotations)

    def key_set(self) -> set[int]:
        """Distinct rotation steps used; the evaluation-key budget."""
        return {ev.step for ev in self.rotations}

    def rotations_by_tag(self) -> Counter:
        return Counter(ev.tag for ev in self.rotations)

    def cmults_by_level(self) -> Counter:
        return Counter(ev.level for ev in self.cmults)

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


def record_rotation(step: int, tag: str = "", level: int = -1) -> None:
    lg = _active.get()
    if lg is not None:
        lg.add_rotation(step, tag, level)


def record_cmult(tag: str = "", level: int = -1) -> None:
    lg = _active.get()
    if lg is not None:
        lg.add_cmult(tag, level)


def record_mult(tag: str = "") -> None:
    lg = _active.get()
    if lg is not None:
        lg.add_mult(tag)


def record_rescale(tag: str = "") -> None:
    lg = _active.get()
    if lg is not None:
        lg.add_rescale(tag)
