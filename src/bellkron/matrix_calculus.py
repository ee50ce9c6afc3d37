"""Jet construction: exact derivative matrices for polynomial maps and the
scalar exponential, finite-difference jets for black boxes, and the
derivative of a Kronecker chain.

Exact jets come from formal monomial differentiation.  Finite differences
use central stencils with a fixed step per differentiation level: a small
step for first order, a coarser one for higher orders where cancellation
dominates truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell_poly import Jet
from .kron_ops import (
    DEFAULT_SIZE_CAP,
    check_size,
    kron_chain,
    shuffle_operator,
    apply_perm_right,
)

DEFAULT_FD_STEP_FIRST = 1e-5
DEFAULT_FD_STEP_HIGHER = 1e-2


class PolyFn:
    """A polynomial map R^{n_x} -> R^{n_y} stored as monomials per output.

    ``components[i]`` is a tuple of (exponents, coeff) pairs with exponent
    vectors of length n_x; duplicate exponent vectors are merged and zero
    coefficients dropped at construction.
    """

    def __init__(self, n_x: int, n_y: int, components):
        if n_x < 1 or n_y < 1:
            raise ValueError("n_x and n_y must be positive")
        components = list(components)
        if len(components) != n_y:
            raise ValueError(f"got {len(components)} components, expected n_y = {n_y}")
        canon = []
        for rows in components:
            acc: dict[tuple[int, ...], float] = {}
            for coeff, exps in rows:
                exps = tuple(int(e) for e in exps)
                if len(exps) != n_x:
                    raise ValueError(f"exponent vector {exps} has length != n_x = {n_x}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                acc[exps] = acc.get(exps, 0.0) + float(coeff)
            canon.append(tuple(sorted((e, c) for e, c in acc.items() if c != 0.0)))
        self.n_x = n_x
        self.n_y = n_y
        self.components = tuple(canon)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.n_x,):
            raise ValueError(f"point length {x.shape} != n_x = {self.n_x}")
        out = np.zeros(self.n_y)
        for i, rows in enumerate(self.components):
            for exps, coeff in rows:
                term = coeff
                for xv, e in zip(x, exps):
                    if e:
                        term *= xv ** e
                out[i] = out[i] + term
        return out

    def differentiate(self, var: int) -> "PolyFn":
        """Formal partial derivative with respect to variable index ``var``."""
        if not 0 <= var < self.n_x:
            raise ValueError(f"variable index {var} out of range")
        new = []
        for rows in self.components:
            drows = []
            for exps, coeff in rows:
                if exps[var]:
                    lowered = exps[:var] + (exps[var] - 1,) + exps[var + 1:]
                    drows.append((coeff * exps[var], lowered))
            new.append(drows)
        return PolyFn(self.n_x, self.n_y, new)

    def to_json_dict(self) -> dict:
        return {
            "n_x": self.n_x,
            "n_y": self.n_y,
            "components": [
                [{"coeff": coeff, "exponents": list(exps)} for exps, coeff in rows]
                for rows in self.components
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PolyFn":
        """Parse the JSON schema, rejecting what the constructor would coerce:
        non-integer or boolean n_x, n_y and exponents, and coefficients that
        are booleans, strings or not finite."""
        try:
            n_x, n_y = obj["n_x"], obj["n_y"]
            components = [
                [(mono["coeff"], mono["exponents"]) for mono in rows]
                for rows in obj["components"]
            ]
            for v in [n_x, n_y] + [e for rows in components for _, exps in rows for e in exps]:
                if type(v) is not int:
                    raise ValueError(f"n_x, n_y and exponents must be integers, got {v!r}")
            for rows in components:
                for coeff, _ in rows:
                    if type(coeff) not in (int, float) or not math.isfinite(coeff):
                        raise ValueError(f"coefficient {coeff!r} is not a finite number")
            return cls(n_x, n_y, components)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial spec: {exc}") from exc


def identity_poly(n: int) -> PolyFn:
    return PolyFn(n, n, [[(1.0, tuple(1 if j == i else 0 for j in range(n)))]
                         for i in range(n)])


@dataclass(frozen=True)
class BlackBoxFn:
    """A deterministic vector function for finite differencing."""

    n_x: int
    n_y: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float).reshape(-1)
        if out.shape != (self.n_y,):
            raise ValueError(f"function returned length {out.shape}, expected {self.n_y}")
        return out


def poly_jet(p: PolyFn, x, max_order: int, size_cap: int = DEFAULT_SIZE_CAP) -> Jet:
    """Exact jet of a polynomial map at x for orders 1..max_order.

    The order-l matrix entry at row i, column (i_1, ..., i_l) is the mixed
    partial of component i with respect to x_{i_1}, ..., x_{i_l}.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    check_size(p.n_y, p.n_x ** max_order, size_cap)
    x = np.asarray(x, dtype=float).reshape(-1)
    matrices = []
    level = [p]  # polynomials for every differentiation prefix, prefix-major
    for l in range(1, max_order + 1):
        level = [q.differentiate(v) for q in level for v in range(p.n_x)]
        mat = np.empty((p.n_y, p.n_x ** l))
        for col, q in enumerate(level):
            mat[:, col] = q.evaluate(x)
        matrices.append(mat)
    return Jet(p.n_x, p.n_y, p.evaluate(x), tuple(matrices))


def exp_scalar_jet(y: float, max_order: int) -> Jet:
    """Jet of exp at the scalar point y: the value and every derivative are e^y."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    try:
        e = math.exp(y)
    except OverflowError:
        raise ValueError(f"exp({y!r}) overflows a float") from None
    return Jet(1, 1, np.array([e]), tuple(np.array([[e]]) for _ in range(max_order)))


def finite_diff_jet(f: BlackBoxFn, x, max_order: int,
                    step_first: float = DEFAULT_FD_STEP_FIRST,
                    step_higher: float = DEFAULT_FD_STEP_HIGHER) -> Jet:
    """Central-difference jet of a black-box function.

    Each order-l entry is a tensor-product central stencil with a fixed step
    per level (``step_first`` at order 1, ``step_higher`` above), giving
    O(step^2) truncation per differentiation level.  Accuracy degrades
    quickly past order 4, which is rejected.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("finite differences support orders 1..4")
    if step_first <= 0 or step_higher <= 0:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (f.n_x,):
        raise ValueError(f"point length {x.shape} != n_x = {f.n_x}")

    def eval_grid(step: float):
        cache: dict[tuple[int, ...], np.ndarray] = {}

        def at(offset: np.ndarray) -> np.ndarray:
            key = tuple(int(o) for o in offset)
            if key not in cache:
                val = f(x + step * offset)
                if not np.all(np.isfinite(val)):
                    raise ValueError(f"non-finite function value at offset {key}")
                cache[key] = val
            return cache[key]

        return at

    value = f(x)
    if not np.all(np.isfinite(value)):
        raise ValueError("non-finite function value at the base point")

    matrices = []
    for l in range(1, max_order + 1):
        step = step_first if l == 1 else step_higher
        at = eval_grid(step)
        mat = np.empty((f.n_y, f.n_x ** l))
        for col, dirs in enumerate(itertools.product(range(f.n_x), repeat=l)):
            acc = np.zeros(f.n_y)
            for signs in itertools.product((-1, 1), repeat=l):
                offset = np.zeros(f.n_x)
                parity = 1
                for s, d in zip(signs, dirs):
                    offset[d] += s
                    parity *= s
                acc += parity * at(offset)
            mat[:, col] = acc / (2.0 * step) ** l
        matrices.append(mat)
    return Jet(f.n_x, f.n_y, value, tuple(matrices))


def kron_chain_derivative(factors, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Derivative of A_1 (x) ... (x) A_n from per-factor (value, derivative)
    pairs, where the derivative of the r_i x s_i factor A_i has shape
    (r_i, s_i * n_x).

    Each factor is differentiated in place and the derivative digit of the
    column index is then shuffled to the last position, so the result has
    shape (prod r_i, prod s_i * n_x) with the x digit least significant.
    """
    factors = [(np.asarray(a, dtype=float), np.asarray(da, dtype=float))
               for a, da in factors]
    if not factors:
        raise ValueError("empty factor list")
    n_x = None
    for a, da in factors:
        if a.ndim != 2 or da.ndim != 2 or da.shape[0] != a.shape[0]:
            raise ValueError("each factor needs a matrix and a conforming derivative")
        if da.shape[1] % a.shape[1]:
            raise ValueError(
                f"derivative width {da.shape[1]} is not a multiple of {a.shape[1]}")
        this_nx = da.shape[1] // a.shape[1]
        if n_x is None:
            n_x = this_nx
        elif n_x != this_nx:
            raise ValueError(f"inconsistent derivative dimension: {n_x} vs {this_nx}")

    n = len(factors)
    cols = [a.shape[1] for a, _ in factors]
    rows_total = math.prod(a.shape[0] for a, _ in factors)
    cols_total = math.prod(cols) * n_x
    check_size(rows_total, cols_total, size_cap)

    total = np.zeros((rows_total, cols_total))
    for idx in range(n):
        mats = [factors[t][1] if t == idx else factors[t][0] for t in range(n)]
        naive = kron_chain(mats, size_cap=size_cap)
        if idx == n - 1:
            total += naive
            continue
        # naive columns carry the x digit right after factor idx; move it last
        naive_radices = cols[: idx + 1] + [n_x] + cols[idx + 1:]
        sigma = list(range(idx + 1)) + [n] + list(range(idx + 1, n))
        move = shuffle_operator(sigma, naive_radices, size_cap=size_cap)
        total += apply_perm_right(naive, move.inverse())
    return total
