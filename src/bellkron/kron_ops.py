"""Kronecker products, commutation/shuffle permutation operators, and the
symmetrizer, all under one composite-index convention.

Index convention
----------------
The flat index of a Kronecker chain A_1 (x) A_2 (x) ... (x) A_m is the
mixed-radix number whose FIRST factor digit is the most significant, i.e.
numpy C order: for row vectors x (dim m) and y (dim n), (x (x) y)[i*n + j]
= x[i] * y[j].  For m equal factors of dimension d, composite_digits(d, m)
is the table of every flat index's digits and composite_flat its inverse;
index labels, digit-multiset orbit codes and flat indices are all read from
that one table.  Every permutation operator below is an index map under this
convention; dense permutation matrices are only materialized for tests and
small debugging sizes.

A PermOperator stores the gather map of a permutation matrix P:
(P v)[i] = v[perm[i]], so P A gathers rows and A P scatters columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

DEFAULT_SIZE_CAP = 10_000_000
DEFAULT_DENSE_CAP = 4096
DEFAULT_ARITY_CAP = 10


class SizeCapError(Exception):
    """A requested matrix or operator would exceed the configured size cap."""


def check_size(rows: int, cols: int, size_cap: int = DEFAULT_SIZE_CAP,
               what: str = "matrix") -> None:
    if rows * cols > size_cap:
        raise SizeCapError(
            f"{what} of shape {rows} x {cols} ({rows * cols} entries) exceeds "
            f"the size cap of {size_cap}"
        )


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def kron(a, b, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Kronecker product of two dense matrices, size-cap checked."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    check_size(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1], size_cap)
    return np.kron(a, b)


def kron_chain(mats, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty Kronecker chain")
    out = _as_matrix(mats[0])
    for m in mats[1:]:
        out = kron(out, m, size_cap=size_cap)
    return out


def kron_chain_apply(left, mats, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """left @ kron_chain(mats) without forming the chain (de Boor's rule).

    Under the C-order convention the columns of ``left`` are the composite
    row index (i_1, ..., i_m) of the chain.  Each step moves the leading
    remaining digit i_t to the end and contracts it against mats[t], so after
    m steps the digits are (j_1, ..., j_m) in order.  The size cap applies to
    every intermediate, the last of which is the result.
    """
    left = _as_matrix(left)
    mats = [_as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("empty Kronecker chain")
    chain_rows = prod(m.shape[0] for m in mats)
    if left.shape[1] != chain_rows:
        raise ValueError(f"left has {left.shape[1]} columns, chain has {chain_rows} rows")
    rows = left.shape[0]
    out = left
    for m in mats:
        r, c = m.shape
        rest = out.shape[1] // r
        check_size(rows, rest * c, size_cap, what="contraction intermediate")
        out = (out.reshape(rows, r, rest).transpose(0, 2, 1) @ m).reshape(rows, rest * c)
    return out


def kron_power(a, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """k-fold Kronecker power; k = 0 is the 1x1 matrix [1]."""
    if k < 0:
        raise ValueError(f"negative Kronecker power {k}")
    if k == 0:
        return np.ones((1, 1))
    a = _as_matrix(a)
    check_size(a.shape[0] ** k, a.shape[1] ** k, size_cap)
    out = a
    for _ in range(k - 1):
        out = np.kron(out, a)
    return out


@dataclass(frozen=True, eq=False)
class PermOperator:
    """Permutation of a composite index space, stored as a gather map."""

    size: int
    perm: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.intp)
        if p.shape != (self.size,):
            raise ValueError(f"perm shape {p.shape} != ({self.size},)")
        seen = np.zeros(self.size, dtype=bool)
        seen[p] = True
        if not seen.all():
            raise ValueError("perm is not a bijection")
        object.__setattr__(self, "perm", p)

    def compose(self, other: "PermOperator") -> "PermOperator":
        """Operator for (self matrix) @ (other matrix)."""
        if self.size != other.size:
            raise ValueError(f"size mismatch {self.size} != {other.size}")
        return PermOperator(self.size, other.perm[self.perm])

    def inverse(self) -> "PermOperator":
        inv = np.empty(self.size, dtype=np.intp)
        inv[self.perm] = np.arange(self.size)
        return PermOperator(self.size, inv)

    def is_identity(self) -> bool:
        return bool(np.all(self.perm == np.arange(self.size)))


def identity_perm(size: int) -> PermOperator:
    return PermOperator(size, np.arange(size))


@dataclass(frozen=True)
class Symmetrizer:
    """Averaging operator over all arity! factor orderings of a Kronecker
    power of base_dim-vectors; fixes every m-fold power of a single vector."""

    base_dim: int
    arity: int

    def __post_init__(self):
        if self.base_dim < 1 or self.arity < 1:
            raise ValueError("base_dim and arity must be positive")

    @property
    def size(self) -> int:
        return self.base_dim ** self.arity


def commutation_matrix(m: int, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> PermOperator:
    """The operator K with K (x (x) y) = y (x) x for x in R^m, y in R^n."""
    if m < 1 or n < 1:
        raise ValueError("factor dimensions must be positive")
    check_size(m * n, 1, size_cap)
    i_y, i_x = np.unravel_index(np.arange(m * n), (n, m))
    return PermOperator(m * n, np.ravel_multi_index((i_x, i_y), (m, n)))


def shuffle_operator(sigma, dims, size_cap: int = DEFAULT_SIZE_CAP) -> PermOperator:
    """Factor-reordering operator for an m-fold Kronecker chain.

    ``sigma`` is a permutation of range(m) and ``dims[t]`` the dimension of
    chain factor t.  Applied to v_0 (x) ... (x) v_{m-1}, the operator moves
    the factor at position t to position sigma[t].  For m = 2 and sigma the
    transposition this is exactly commutation_matrix(dims[0], dims[1]).
    """
    dims = [int(d) for d in dims]
    m = len(dims)
    if sorted(sigma) != list(range(m)):
        raise ValueError(f"sigma {tuple(sigma)} is not a permutation of range({m})")
    if any(d < 1 for d in dims):
        raise ValueError("factor dimensions must be positive")
    total = 1
    for d in dims:
        total *= d
    check_size(total, 1, size_cap)

    sigma = list(sigma)
    sigma_inv = [0] * m
    for s, t in enumerate(sigma):
        sigma_inv[t] = s
    # Output digit t has the radix of the factor that lands there.
    out_radices = tuple(dims[sigma_inv[t]] for t in range(m))
    digits = np.unravel_index(np.arange(total), out_radices)
    source = tuple(digits[sigma[s]] for s in range(m))
    return PermOperator(total, np.ravel_multi_index(source, tuple(dims)))


def apply_perm_left(p: PermOperator, a) -> np.ndarray:
    """Row reindexing: dense(p) @ a."""
    a = _as_matrix(a)
    if a.shape[0] != p.size:
        raise ValueError(f"operator size {p.size} != row count {a.shape[0]}")
    return a[p.perm, :]


def apply_perm_right(a, p: PermOperator) -> np.ndarray:
    """Column reindexing: a @ dense(p)."""
    a = _as_matrix(a)
    if a.shape[1] != p.size:
        raise ValueError(f"operator size {p.size} != column count {a.shape[1]}")
    return a[:, p.inverse().perm]


def apply_perm_vector(p: PermOperator, v) -> np.ndarray:
    """dense(p) @ v for a 1-D vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.size,):
        raise ValueError(f"operator size {p.size} != vector length {v.shape}")
    return v[p.perm]


def composite_digits(dim: int, order: int) -> np.ndarray:
    """C-order digit table of the composite index space of ``order`` factors
    of dimension ``dim``: row c holds the 0-based digits (i_1, ..., i_order)
    of flat index c, i_1 most significant, in the smallest unsigned dtype
    that holds dim - 1."""
    digits = np.empty((dim ** order, order), dtype=np.min_scalar_type(dim - 1))
    for t in range(order):
        digits[:, t].reshape(dim ** t, dim, -1)[...] = np.arange(dim)[:, None]
    return digits


def composite_flat(digits, dim: int) -> np.ndarray:
    """Inverse of composite_digits: the flat index of each digit row (last axis)."""
    digits = np.asarray(digits)
    flat = np.zeros(digits.shape[:-1], dtype=np.int64)
    for t in range(digits.shape[-1]):
        flat = flat * dim + digits[..., t]
    return flat


def _orbit_groups(base_dim: int, arity: int) -> np.ndarray:
    """Group id per composite index; two indices share a group iff their
    digit multisets coincide.  The orbit code of an index is the flat index
    of its sorted digits; group ids number the codes in increasing order."""
    codes = composite_flat(np.sort(composite_digits(base_dim, arity), axis=1), base_dim)
    _, inverse = np.unique(codes, return_inverse=True)
    return inverse


def symmetrize_rows(s: Symmetrizer, v, arity_cap: int = DEFAULT_ARITY_CAP,
                    size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Average a row vector, or every row of a matrix, over all arity!
    digit-permutations of its last-axis index: v @ dense(S).

    Permutations with the same digit rearrangement are deduplicated, so the
    cost is O(size * arity log arity), not arity!.  One bincount over
    row-offset group ids sums every (row, orbit) pair in index order.
    """
    if s.arity > arity_cap:
        raise ValueError(f"arity {s.arity} exceeds the symmetrizer budget {arity_cap}")
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != s.size:
        raise ValueError(f"shape {v.shape} does not end in base_dim^arity = {s.size}")
    rows = v.reshape(-1, s.size)
    check_size(rows.shape[0], s.size, size_cap)
    groups = _orbit_groups(s.base_dim, s.arity)
    counts = np.bincount(groups)
    ids = groups + counts.size * np.arange(rows.shape[0])[:, None]
    sums = np.bincount(ids.ravel(), weights=rows.ravel()).reshape(-1, counts.size)
    # np.take keeps C order; (sums / counts)[:, groups] would be column-major,
    # and later BLAS products on it round differently.
    return np.take(sums / counts, groups, axis=1).reshape(v.shape)


def dense_materialize(op, dense_cap: int = DEFAULT_DENSE_CAP, exact: bool = False) -> np.ndarray:
    """Explicit matrix of a PermOperator or Symmetrizer.

    Permutation operators give a 0/1 float matrix.  Symmetrizers give entries
    stab(a)/arity! = 1/|orbit(a)| on each digit orbit; with ``exact=True``
    the entries are Fractions in an object array so idempotence and symmetry
    can be checked without rounding.
    """
    if isinstance(op, PermOperator):
        if op.size > dense_cap:
            raise SizeCapError(f"operator size {op.size} exceeds the dense cap {dense_cap}")
        out = np.zeros((op.size, op.size))
        out[np.arange(op.size), op.perm] = 1.0
        return out
    if isinstance(op, Symmetrizer):
        size = op.size
        if size > dense_cap:
            raise SizeCapError(f"symmetrizer size {size} exceeds the dense cap {dense_cap}")
        groups = _orbit_groups(op.base_dim, op.arity)
        counts = np.bincount(groups)
        if exact:
            entry = np.array([Fraction(1, int(c)) for c in counts], dtype=object)
            zero = Fraction(0)
        else:
            entry, zero = 1.0 / counts, 0.0
        return np.where(groups[:, None] == groups[None, :], entry[groups][:, None], zero)
    raise TypeError(f"cannot materialize {type(op).__name__}")
