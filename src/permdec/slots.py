"""Exact plaintext stand-in for a batch-encoded ciphertext.

A SlotVector carries n integer slots plus a level counter that mimics the
modulus chain of a leveled scheme: fresh vectors start at DEFAULT_LEVEL,
every rescale burns one level, and running out raises. Slot arithmetic is
exact (Python ints), so any two evaluation strategies for the same linear
map can be compared for bit equality.

A 0/1 mask may be given to cmult as a PositionMask, the positions of its
ones, instead of an n-long list. A PositionMask checks and normalises its
positions once, when it is made, and keeps them immutably, so a mask made
once may be applied any number of times at no further check: a network's
edge masks and a chain's factor masks (diag.hlt_masks) are each made once
with the structure and applied by every run, the cost model's replay
included. Positions drawn from one tuple(range(n)) share its int objects,
so a mask costs one pointer per position. The product
then holds only its support: a map from position to value, zero everywhere
else. rotate re-keys the map, rescale keeps it, cmult selects from it (a
PositionMask) or scales it (an n-long mask), and SlotVector.sum adds any
number of vectors in one pass, merging their maps or adding them into a copy
of a dense operand (add is its two-operand case); mult reads the dense
value. A vector whose support passes MAX_SPARSE_SHARE of its n slots is
stored dense, so repeated doublings cannot grow a map towards n entries,
which would take more memory than the n-long tuple. Reads (.slots with its
length, indexing and iteration, to_list, ==, hash) give the dense value, and
the ledger records the same ops as for the dense 0/1 list.

SlotVector.zeros is the vector with no support. rotate, rescale, cmult and
add keep it empty, so they do no slot arithmetic on it, and each records the
same op as on any other vector: a run of an evaluator on it records exactly
the ops of a run on real slots. The cost model prices every route from such
a run.

Rotation is a left cyclic shift: rotate(v, k)[i] = v[(i + k) mod n].

rotate, cmult, mult and rescale each append one op (kind, operand level, tag,
step) to the innermost active CostLedger, the one op stream every cost figure
is read from. add and sum are exact but not recorded.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ledger import record

# 18 moduli -> top level 17, matching the cost model's default chain.
DEFAULT_LEVEL = 17

# a vector whose support passes this share of its n slots is stored dense.
# A map entry takes ~36 bytes plus its key against 8 per tuple slot, and
# without a limit doubling steps (hmm replication) grow maps to all n slots.
# Of the shares 1/2 .. 1/32 tried, 1/4 evaluated 2^14-slot networks
# fastest, at the lowest peak memory.
MAX_SPARSE_SHARE = 1 / 4


class DepthExhaustedError(ValueError):
    """Raised when a rescale is requested at level 0, or a structure is
    priced deeper than its modulus chain."""


class _Sparse:
    """The slots of a vector that is zero off its support, held as a map
    from position (0..n-1) to value. It reads like the dense tuple."""

    __slots__ = ("n", "vals")

    def __init__(self, n: int, vals: dict[int, int]):
        self.n = n
        self.vals = vals

    def dense(self) -> tuple[int, ...]:
        out = [0] * self.n
        for p, x in self.vals.items():
            out[p] = x
        return tuple(out)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.dense())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.dense()[i]
        if not -self.n <= i < self.n:
            raise IndexError("slot index out of range")
        return self.vals.get(i % self.n, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Sparse)):
            return self.dense() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dense())

    def __repr__(self) -> str:
        return repr(self.dense())


def _from_map(n: int, vals: dict[int, int]) -> "_Sparse | tuple[int, ...]":
    """Slots holding vals on their positions and zero elsewhere, dense once
    the support passes MAX_SPARSE_SHARE of n."""
    sparse = _Sparse(n, vals)
    return sparse.dense() if len(vals) > MAX_SPARSE_SHARE * n else sparse


class PositionMask:
    """A 0/1 plaintext mask of n slots, given by the positions of its ones.

    The mask checks its positions once, when it is made: they index like a
    list's, so one outside -n..n-1 raises IndexError there. It keeps them as
    a tuple in 0..n-1, in the order given (a repeat names the same slot), so
    changing the collection it was made from changes nothing, and cmult
    selects by them without checking again.
    """

    __slots__ = ("n", "positions")

    def __init__(self, n: int, positions: Iterable[int]):
        ps = tuple(positions)
        if ps:
            lo, hi = min(ps), max(ps)
            if not -n <= lo <= hi < n:
                raise IndexError("mask position out of range")
            if lo < 0:
                ps = tuple(p % n for p in ps)
        self.n = n
        self.positions = ps

    def __len__(self) -> int:
        return self.n


def _check_length(got: int, n: int) -> None:
    if got != n:
        raise ValueError(f"slot length mismatch: {got} != {n}")


def rotate_tuple(slots: Sequence[int], k: int) -> tuple[int, ...]:
    """Left cyclic shift by k, no cost recorded. Works for any sequence."""
    n = len(slots)
    k %= n
    return tuple(slots[k:]) + tuple(slots[:k])


Slots = tuple[int, ...] | _Sparse


@dataclass(frozen=True)
class SlotVector:
    slots: Slots
    level: int = DEFAULT_LEVEL
    depth_used: int = 0

    def __post_init__(self):
        if type(self.slots) not in (tuple, _Sparse):
            object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def n(self) -> int:
        return len(self.slots)

    @classmethod
    def from_list(cls, vals: Iterable[int], level: int = DEFAULT_LEVEL) -> "SlotVector":
        return cls(tuple(vals), level)

    @classmethod
    def zeros(cls, n: int, level: int = DEFAULT_LEVEL) -> "SlotVector":
        """All zeros: the vector with no support."""
        return cls(_Sparse(n, {}), level)

    def zeros_like(self) -> "SlotVector":
        """All zeros at this vector's level and depth."""
        return SlotVector(_Sparse(self.n, {}), self.level, self.depth_used)

    def _dense(self) -> Sequence[int]:
        s = self.slots
        return s.dense() if type(s) is _Sparse else s

    def _map(self, op, values: Sequence[int]) -> tuple[int, ...]:
        """op slot by slot with values."""
        return tuple(map(op, self._dense(), values))

    def _select(self, positions: tuple[int, ...]) -> Slots:
        """The slots at positions (checked, in 0..n-1), zero elsewhere."""
        src = self.slots
        if type(src) is _Sparse:
            vals = src.vals
            return _Sparse(self.n, {p: vals[p] for p in positions
                                    if p in vals} if vals else {})
        return _from_map(self.n, {p: src[p] for p in positions})

    # -- homomorphic ops (all exact, all recorded) ---------------------------

    def rotate(self, k: int, tag: str = "") -> "SlotVector":
        n = self.n
        k %= n
        if k == 0:
            return self
        record("rotate", self.level, tag, k)
        src = self.slots
        if type(src) is _Sparse:
            out = _Sparse(n, {(p - k) % n: x for p, x in src.vals.items()})
        else:
            out = rotate_tuple(src, k)
        return SlotVector(out, self.level, self.depth_used)

    def cmult(self, mask: Sequence[int] | PositionMask,
              tag: str = "") -> "SlotVector":
        """Multiply by a plaintext vector. No automatic rescale."""
        _check_length(len(mask), self.n)
        src = self.slots
        if type(mask) is PositionMask:
            out = self._select(mask.positions)
        elif type(src) is _Sparse:
            out = _Sparse(self.n,
                          {p: x * mask[p] for p, x in src.vals.items()})
        else:
            out = self._map(operator.mul, mask)
        record("cmult", self.level, tag)
        return SlotVector(out, self.level, self.depth_used)

    def mult(self, other: "SlotVector", tag: str = "") -> "SlotVector":
        """Ciphertext-ciphertext product. No automatic rescale."""
        _check_length(other.n, self.n)
        level = min(self.level, other.level)
        record("mult", level, tag)
        return SlotVector(self._map(operator.mul, other._dense()), level,
                          max(self.depth_used, other.depth_used))

    def add(self, other: "SlotVector") -> "SlotVector":
        return SlotVector.sum((self, other))

    @staticmethod
    def sum(parts: Sequence["SlotVector"]) -> "SlotVector":
        """The sum of one or more vectors in one pass, at their lowest level
        and deepest depth; one vector is returned as it is. Sparse operands
        merge their maps, adding where supports meet; with a dense operand
        the maps are added into a copy of it."""
        first = parts[0]
        if len(parts) == 1:
            return first
        n = first.n
        maps, dense = [], []
        for v in parts:
            _check_length(v.n, n)
            s = v.slots
            if type(s) is _Sparse:
                maps.append(s.vals)
            else:
                dense.append(s)
        if dense:
            acc = dense[0]
            for d in dense[1:]:
                acc = tuple(map(operator.add, acc, d))
            if maps:
                acc = list(acc)
                for vals in maps:
                    for p, x in vals.items():
                        acc[p] += x
            out = tuple(acc)
        else:
            vals = dict(maps[0])
            for m in maps[1:]:
                common = vals.keys() & m.keys()
                if common:
                    both = {p: vals[p] + m[p] for p in common}
                    vals.update(m)
                    vals.update(both)
                else:
                    vals.update(m)
            out = _from_map(n, vals)
        return SlotVector(out, min(v.level for v in parts),
                          max(v.depth_used for v in parts))

    def __add__(self, other: "SlotVector") -> "SlotVector":
        return self.add(other)

    def rescale(self, tag: str = "") -> "SlotVector":
        if self.level <= 0:
            raise DepthExhaustedError("no moduli left to rescale into")
        record("rescale", self.level, tag)
        return SlotVector(self.slots, self.level - 1, self.depth_used + 1)

    def to_list(self) -> list[int]:
        return list(self.slots)


class Permutation:
    """A permutation of n slots, stored as targets[i] = destination of entry i.

    The constructor is the only check: every target an int (not a float or
    a bool, which compare equal to ints) and each of 0..n-1 present once.
    compose and inverse build their results unchecked, as the composition
    and the inverse of permutations are permutations.
    """

    __slots__ = ("targets", "n")

    def __init__(self, targets: Sequence[int]):
        self.targets = tuple(targets)
        self.n = len(self.targets)
        odd = set(map(type, self.targets)) - {int}
        if odd:
            raise ValueError(f"not a permutation of {self.n} slots: targets "
                             f"must be integers, not "
                             f"{', '.join(sorted(t.__name__ for t in odd))}")
        if sorted(self.targets) != list(range(self.n)):
            raise ValueError(f"not a permutation of {self.n} slots: every "
                             f"target in 0..{self.n - 1} must appear once")

    @classmethod
    def _unchecked(cls, targets: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p.targets = targets
        p.n = len(targets)
        return p

    def apply(self, vals: Sequence[int]) -> list[int]:
        """Plain (free) application: out[targets[i]] = vals[i]."""
        _check_length(len(vals), self.n)
        out = [0] * self.n
        for i, t in enumerate(self.targets):
            out[t] = vals[i]
        return out

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, t in enumerate(self.targets):
            inv[t] = i
        return Permutation._unchecked(tuple(inv))

    def compose(self, first: "Permutation") -> "Permutation":
        """self after first: (self . first)(v) = self(first(v))."""
        _check_length(first.n, self.n)
        return Permutation._unchecked(
            tuple(map(self.targets.__getitem__, first.targets)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.targets == other.targets

    def __hash__(self) -> int:
        return hash(self.targets)

    def __repr__(self) -> str:
        return f"Permutation({list(self.targets)})"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def rotation(cls, n: int, k: int) -> "Permutation":
        """The permutation matching rotate(v, k): entry i goes to (i - k) mod n."""
        k %= n
        return cls([(i - k) % n for i in range(n)])

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        targets = list(range(n))
        rng.shuffle(targets)
        return cls(targets)

    # -- file I/O ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "targets": list(self.targets)}

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        if not isinstance(obj, dict) or "targets" not in obj:
            raise ValueError("not a permutation file: expected an object "
                             "with 'n' and 'targets'")
        n, targets = obj.get("n"), obj["targets"]
        # exact types: a float or bool n compares equal to an int
        if type(targets) is not list:
            raise ValueError(f"not a permutation file: 'targets' must be a "
                             f"list, not {type(targets).__name__}")
        if type(n) is not int:
            raise ValueError(f"not a permutation file: 'n' must be an "
                             f"integer, not {type(n).__name__}")
        p = cls(targets)
        if p.n != n:
            raise ValueError(f"permutation file says n={n} but lists {p.n} "
                             f"targets")
        return p

    @classmethod
    def load(cls, path) -> "Permutation":
        with open(path) as fh:
            return cls.from_json(json.load(fh))
