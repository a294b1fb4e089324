"""Blade combinatorics on bit masks.

A basis k-form e^{i1} ^ ... ^ e^{ik} with strictly increasing 1-based
indices is stored as an integer mask (bit i-1 set for index i). All the
sign bookkeeping for wedges and slot insertions lives here, so every
higher module agrees on conventions:

  insert_first: fill the first argument slot, sign (-1)^(bits below i)
  insert_last:  fill the last argument slot, (-1)^(deg-1) * insert_first
"""

from __future__ import annotations

from functools import lru_cache

# masks whose index tuple and label are kept; printing a form asks for
# both once per term, and each result is an immutable value
_LABELS = 1 << 12


def mask_of_indices(indices) -> int:
    mask = 0
    prev = 0
    for i in indices:
        i = int(i)
        if i <= prev:
            raise ValueError("blade indices must be strictly increasing and >= 1")
        mask |= 1 << (i - 1)
        prev = i
    return mask


@lru_cache(maxsize=_LABELS)
def indices_of_mask(mask: int):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_degree(mask: int) -> int:
    return mask.bit_count()


def insert_first_mask(i: int, mask: int):
    """Contract e_i into the first slot: returns (sign, reduced mask)."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return 0, 0
    below = (mask & (bit - 1)).bit_count()
    return (-1) ** below, mask & ~bit


def insert_last_mask(mask: int, i: int):
    """Contract e_i into the last slot: returns (sign, reduced mask)."""
    s, m = insert_first_mask(i, mask)
    if s == 0:
        return 0, 0
    if (mask.bit_count() - 1) % 2:
        s = -s
    return s, m


def wedge_masks(a: int, b: int):
    """Concatenate blades: returns (sign, union mask), sign 0 on overlap."""
    if a & b:
        return 0, 0
    inversions = 0
    bb = b
    i = 0
    while bb:
        if bb & 1:
            inversions += (a >> (i + 1)).bit_count()
        bb >>= 1
        i += 1
    return (-1) ** inversions, a | b


def masks_of_degree(dim: int, k: int):
    return [m for m in range(1 << dim) if m.bit_count() == k]


def submasks_of_degree(mask: int, k: int):
    """The masks of degree k inside mask, ascending: masks_of_degree
    restricted to mask, found by stepping through mask's submasks."""
    out = []
    sub = 0
    while True:
        if sub.bit_count() == k:
            out.append(sub)
        sub = (sub - mask) & mask
        if not sub:
            return out


class Blade:
    """A basis form on R^dim: strictly increasing 1-based indices."""

    __slots__ = ("dim", "mask")

    def __init__(self, dim: int, indices=()):
        self.dim = dim
        if isinstance(indices, int):
            mask = indices
        else:
            mask = mask_of_indices(indices)
        if mask >> dim:
            raise ValueError("blade index exceeds dimension")
        self.mask = mask

    def __eq__(self, other):
        return (isinstance(other, Blade) and self.dim == other.dim
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.dim, self.mask))

    def __str__(self):
        return blade_str(self.mask)

    __repr__ = __str__


@lru_cache(maxsize=_LABELS)
def blade_str(mask: int, letter: str = "e") -> str:
    if not mask:
        return "1"
    return "^".join(f"{letter}{i}" for i in indices_of_mask(mask))
