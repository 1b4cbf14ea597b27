"""Ordered factor chains: U = factors[0] * factors[1] * ... * factors[-1].

Every factor chain in the package is a DecompositionChain: the searched and
structured ladders, and the Beneš baseline (benes.BenesChain, a subclass that
adds its routing data). Factors are stored in product order (leftmost first),
so evaluation applies them right to left. Each factor costs one HLT (one
rescale) under its BSGS plan; a chain given no plans plans every factor with
diag.plan_bsgs on its signed diagonals, the one planner for ladder, searched
and Beneš chains alike. A chain given no masks makes each factor's masks
once, when it is made (diag.hlt_masks, under each giant step's shift, with
the positions of every factor drawn from one tuple(range(n))): every factor
of a package chain is 0/1, so each diagonal is a slots.PositionMask. Every
evaluation, the cost model's replay included, and every copy made with
dataclasses.replace (restrict_keys) reads those same mask objects. With
`key_paths` set, apply_hlt_bsgs runs every window rotation as the chain of
key rotations listed for its step. `evaluate` is the one chain evaluator;
the cost model prices a chain from the ledger of its run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .diag import (BsgsPlan, DiagMatrix, Mask, apply_hlt_bsgs, hlt_masks,
                   matmul, plan_bsgs)
from .slots import SlotVector


@dataclass
class DecompositionChain:
    n: int
    factors: list[DiagMatrix]
    plans: list[BsgsPlan] = field(default_factory=list)
    key_paths: dict[int, tuple[int, ...]] | None = None
    # factor i's masks, diagonal -> hlt_masks(factors[i], plans[i])
    masks: list[dict[int, Mask]] = field(default_factory=list, repr=False)

    TAG: ClassVar[str] = "chain"  # factor i's ops are tagged f"{TAG}.f{i}"

    def __post_init__(self):
        if not self.plans:
            self.plans = [plan_bsgs(f.signed_diag_set(), self.n)
                          for f in self.factors]
        if len(self.plans) != len(self.factors):
            raise ValueError(f"{len(self.plans)} plans for "
                             f"{len(self.factors)} factors")
        for i, f in enumerate(self.factors):
            if f.n != self.n:
                raise ValueError(f"factor {i} has n={f.n}, chain has "
                                 f"n={self.n}")
        if not self.masks:
            slot = tuple(range(self.n))
            self.masks = [hlt_masks(f, plan, slot)
                          for f, plan in zip(self.factors, self.plans)]
        if len(self.masks) != len(self.factors):
            raise ValueError(f"{len(self.masks)} mask sets for "
                             f"{len(self.factors)} factors")

    @property
    def depth(self) -> int:
        return len(self.factors)

    def product(self) -> DiagMatrix:
        out = DiagMatrix.identity(self.n)
        for f in self.factors:
            out = matmul(out, f)
        return out

    def evaluate(self, v: SlotVector) -> SlotVector:
        if v.n != self.n:
            raise ValueError(f"slot length mismatch: {v.n} != {self.n}")
        for i in range(self.depth - 1, -1, -1):
            v = apply_hlt_bsgs(self.factors[i], self.plans[i], v,
                               f"{self.TAG}.f{i}", self.key_paths,
                               self.masks[i])
        return v

    def diag_counts(self) -> list[int]:
        return [len(f.diags) for f in self.factors]
