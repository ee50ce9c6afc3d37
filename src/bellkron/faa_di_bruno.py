"""Composition of jets: n-th order total derivatives of f(g(x)).

The total derivative matrix is sum_k f_{g^k} B_{n,k} over the inner jet;
it is one valid representation of the derivative array.  Symmetrizing its
columns yields the unique representative that equals the actual array of
mixed partials, while leaving every differential value unchanged.

B_{n,k} (n_y^k x n_x^n) is never formed: each of its Kronecker-chain terms
is applied to the n_f-row block f_{g^k} one factor at a time, so the
largest operand is about n_f * max(n_x, n_y)^n entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bell_poly import Jet, bell_univariate
from .kron_ops import (
    DEFAULT_ARITY_CAP,
    DEFAULT_SIZE_CAP,
    SizeCapError,
    Symmetrizer,
    kron_chain_apply,
    symmetrize_rows,
)
from .matrix_calculus import BlackBoxFn
from .partitions import bell_coefficient, enumerate_bell_indices


@dataclass(frozen=True, eq=False)
class CompositeDerivative:
    """One order-n derivative matrix of a composite, shape (n_f, n_x**n)."""

    order: int
    n_f: int
    n_x: int
    matrix: np.ndarray
    symmetrized: bool

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        expected = (self.n_f, self.n_x ** self.order)
        if m.shape != expected:
            raise ValueError(f"matrix shape {m.shape}, expected {expected}")
        object.__setattr__(self, "matrix", m)


def faa_univariate(n: int, f_derivs, g_derivs) -> float:
    """Scalar composite derivative d^n f(g(x))/dx^n from derivative values.

    f_derivs[k-1] is the order-k derivative of f at g(x), g_derivs likewise
    at x.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(f_derivs) < n or len(g_derivs) < n:
        raise ValueError(f"need {n} derivative values for f and g")
    return sum(float(f_derivs[k - 1]) * bell_univariate(n, k, g_derivs)
               for k in range(1, n + 1))


def faa_total_derivative(n: int, f_jet: Jet, g_jet: Jet,
                         size_cap: int = DEFAULT_SIZE_CAP) -> CompositeDerivative:
    """Order-n total derivative matrix sum_k f_{g^k} B_{n,k}, unsymmetrized.

    Each Bell index j of (n, k) contributes alpha_j f_{g^k} (g_{x^l_1} (x)
    ... (x) g_{x^l_k}), contracted factor by factor by kron_chain_apply.  The
    size cap bounds every contraction intermediate, the result included; a
    SizeCapError names the Bell index whose contraction tripped it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f_jet.n_x != g_jet.n_y:
        raise ValueError(
            f"inner/outer dimension mismatch: f consumes {f_jet.n_x}, "
            f"g produces {g_jet.n_y}")
    if f_jet.max_order < n or g_jet.max_order < n:
        raise ValueError(f"both jets must supply orders up to {n}")
    total = 0.0
    for k in range(1, n + 1):
        for idx in enumerate_bell_indices(n, k):
            factors = [g_jet.matrix(l) for l in idx.factor_orders]
            try:
                term = kron_chain_apply(f_jet.matrix(k), factors, size_cap=size_cap)
            except SizeCapError as exc:
                raise SizeCapError(
                    f"faa_total_derivative, Bell index j={idx.j}: {exc}") from exc
            total = total + float(bell_coefficient(idx)) * term
    return CompositeDerivative(n, f_jet.n_y, g_jet.n_x, total, symmetrized=False)


def faa_symmetrized(n: int, f_jet: Jet, g_jet: Jet,
                    size_cap: int = DEFAULT_SIZE_CAP,
                    arity_cap: int = DEFAULT_ARITY_CAP) -> CompositeDerivative:
    """The symmetrized total derivative: the true matrix of mixed partials."""
    raw = faa_total_derivative(n, f_jet, g_jet, size_cap=size_cap)
    sym = symmetrize_rows(Symmetrizer(g_jet.n_x, n), raw.matrix,
                          arity_cap=arity_cap, size_cap=size_cap)
    return CompositeDerivative(n, raw.n_f, raw.n_x, sym, symmetrized=True)


def apply_differential(d: CompositeDerivative, dx,
                       size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """The order-n differential d.matrix @ dx^{(x)n}; identical for raw and
    symmetrized representations built from the same jets."""
    dx = np.asarray(dx, dtype=float).reshape(-1)
    if dx.shape != (d.n_x,):
        raise ValueError(f"dx length {dx.shape} != n_x = {d.n_x}")
    dx_col = dx.reshape(-1, 1)
    return kron_chain_apply(d.matrix, [dx_col] * d.order, size_cap=size_cap).reshape(-1)


def ray_derivative(composite: BlackBoxFn, x, dx, n: int, step: float = 1e-2) -> np.ndarray:
    """n-th derivative at t = 0 of t -> composite(x + t dx) by a 1-D central
    difference over n + 1 equispaced samples, Richardson-extrapolated.

    The central difference D(h) has an error series in even powers of h, so
    (4 D(step/2) - D(step)) / 3 cancels the step^2 term: truncation is
    O(step^4)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(x, dtype=float).reshape(-1)
    dx = np.asarray(dx, dtype=float).reshape(-1)

    def central(h: float) -> np.ndarray:
        acc = np.zeros(composite.n_y)
        for i in range(n + 1):
            t = (n / 2.0 - i) * h
            val = composite(x + t * dx)
            if not np.all(np.isfinite(val)):
                raise ValueError(f"non-finite composite value at t = {t}")
            acc += (-1.0) ** i * comb(n, i) * val
        return acc / h ** n

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def directional_taylor_check(composite: BlackBoxFn, x, dx, n: int,
                             f_jet: Jet, g_jet: Jet, step: float = 1e-2,
                             size_cap: int = DEFAULT_SIZE_CAP) -> float:
    """End-to-end oracle residual: the order-n differential along dx versus
    the n-th 1-D finite-difference derivative of the ray t -> composite(x+t dx).

    Truncation is O(step^4); with O(1) data and n <= 3 the residual sits well
    under 1e-4 relative.
    """
    d = faa_total_derivative(n, f_jet, g_jet, size_cap=size_cap)
    predicted = apply_differential(d, dx, size_cap=size_cap)
    observed = ray_derivative(composite, x, dx, n, step=step)
    return float(np.max(np.abs(predicted - observed)))
