"""Ordered factor chains: U = factors[0] * factors[1] * ... * factors[-1].

Every factor chain in the package is a DecompositionChain: the searched and
structured ladders, and the Beneš baseline (benes.BenesChain, a subclass that
adds its routing data). Factors are stored in product order (leftmost first),
so evaluation applies them right to left. Each factor costs one HLT (one
rescale); a factor may carry a BSGS plan, otherwise it is evaluated diagonal
by diagonal. With `key_paths` set, every window rotation of a planned factor
runs as the chain of key rotations listed for its step. `evaluate` is the one
chain evaluator; the cost model prices a chain from the ledger of its run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .diag import BsgsPlan, DiagMatrix, apply_hlt_bsgs, apply_hlt_direct, matmul
from .slots import SlotVector


@dataclass
class DecompositionChain:
    n: int
    factors: list[DiagMatrix]
    plans: list[BsgsPlan | None] = field(default_factory=list)
    key_paths: dict[int, tuple[int, ...]] | None = None

    TAG: ClassVar[str] = "chain"  # factor i's ops are tagged f"{TAG}.f{i}"

    def __post_init__(self):
        if not self.plans:
            self.plans = [None] * len(self.factors)
        if len(self.plans) != len(self.factors):
            raise ValueError(f"{len(self.plans)} plans for "
                             f"{len(self.factors)} factors")
        for i, f in enumerate(self.factors):
            if f.n != self.n:
                raise ValueError(f"factor {i} has n={f.n}, chain has "
                                 f"n={self.n}")
        if self.key_paths is not None and None in self.plans:
            raise ValueError("key paths need a BSGS plan for every factor")

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
        rot = None
        if self.key_paths is not None:
            paths, n = self.key_paths, self.n

            def rot(vec, step, t):
                for k in paths[step % n]:
                    vec = vec.rotate(k, t)
                return vec

        for i in range(self.depth - 1, -1, -1):
            f, plan, ftag = self.factors[i], self.plans[i], f"{self.TAG}.f{i}"
            if plan is None:
                v = apply_hlt_direct(f, v, ftag)
            else:
                v = apply_hlt_bsgs(f, plan, v, ftag, rot=rot)
        return v

    def diag_counts(self) -> list[int]:
        return [len(f.diags) for f in self.factors]
