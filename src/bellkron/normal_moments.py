"""Closed-form moment vectors of the multivariate normal distribution.

The order-n raw moment vector is

    m_n = sum_{j=0}^{floor(n/2)} n! / ((n-2j)! j! 2^j)
          (mu')^{(x)(n-2j)} (x) (vec(Sigma)')^{(x)j},

a row of length dim**n under the same composite-index convention as every
Kronecker chain in this package.  vec(Sigma)' is the row-major flattening,
e.g. (s11, s12, s12, s22) for dim 2 (row- and column-major coincide for
symmetric Sigma, but the convention is pinned anyway).  Entries of the raw
vector that share a scalar moment need not agree; averaging over each digit
orbit (the symmetrizer action) yields the vector whose every entry is the
scalar moment E[prod X_i^{e_i}] of its composite index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial

import numpy as np

from .faa_di_bruno import faa_total_derivative
from .kron_ops import (
    DEFAULT_ARITY_CAP,
    DEFAULT_SIZE_CAP,
    Symmetrizer,
    check_size,
    composite_flat,
    kron,
    kron_power,
    symmetrize_rows,
)
from .matrix_calculus import PolyFn, exp_scalar_jet, poly_jet

PSD_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Mean vector and covariance matrix; validates symmetry and PSD-ness."""

    dim: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if mean.shape != (self.dim,):
            raise ValueError(f"mean length {mean.shape} != dim = {self.dim}")
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"cov shape {cov.shape} != ({self.dim}, {self.dim})")
        if not np.array_equal(cov, cov.T):
            raise ValueError("covariance must be exactly symmetric as stored")
        if np.linalg.eigvalsh(cov).min() < -PSD_TOLERANCE:
            raise ValueError("covariance is not positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Row vector of E[(X')^{(x)n}] entries, raw or symmetrized."""

    order: int
    dim: int
    data: np.ndarray
    symmetrized: bool

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.shape != (self.dim ** self.order,):
            raise ValueError(
                f"length {data.shape} != dim**order = {self.dim ** self.order}")
        object.__setattr__(self, "data", data)


def mgf(spec: GaussianSpec, t) -> float:
    """Moment generating function exp(t'mu + t'Sigma t / 2)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (spec.dim,):
        raise ValueError(f"t length {t.shape} != dim = {spec.dim}")
    return exp(float(t @ spec.mean) + 0.5 * float(t @ spec.cov @ t))


def _vec_cov_row(spec: GaussianSpec) -> np.ndarray:
    return spec.cov.reshape(1, -1)


def raw_moment_vector(spec: GaussianSpec, n: int,
                      size_cap: int = DEFAULT_SIZE_CAP) -> MomentVector:
    """The closed-form order-n moment row, unsymmetrized."""
    if n < 1:
        raise ValueError("order must be >= 1")
    check_size(1, spec.dim ** n, size_cap)
    mu_row = spec.mean.reshape(1, -1)
    vec_row = _vec_cov_row(spec)
    total = np.zeros((1, spec.dim ** n))
    for j in range(n // 2 + 1):
        coeff = factorial(n) / (factorial(n - 2 * j) * factorial(j) * 2 ** j)
        term = kron(kron_power(mu_row, n - 2 * j, size_cap=size_cap),
                    kron_power(vec_row, j, size_cap=size_cap), size_cap=size_cap)
        total += coeff * term
    return MomentVector(n, spec.dim, total.reshape(-1), symmetrized=False)


def central_even_moment(spec: GaussianSpec, n: int,
                        size_cap: int = DEFAULT_SIZE_CAP) -> MomentVector:
    """For mu = 0 and even n, m_n = n! / ((n/2)! 2^{n/2}) vec(Sigma)'^{(x)n/2}."""
    if np.any(spec.mean != 0.0):
        raise ValueError("central moments require a zero mean")
    if n < 2 or n % 2:
        raise ValueError(f"order must be a positive even integer, got {n}")
    check_size(1, spec.dim ** n, size_cap)
    half = n // 2
    coeff = factorial(n) / (factorial(half) * 2 ** half)
    data = coeff * kron_power(_vec_cov_row(spec), half, size_cap=size_cap)
    return MomentVector(n, spec.dim, data.reshape(-1), symmetrized=False)


def symmetrized_moment_vector(spec: GaussianSpec, n: int,
                              size_cap: int = DEFAULT_SIZE_CAP,
                              arity_cap: int = DEFAULT_ARITY_CAP) -> MomentVector:
    """Moment row averaged over digit orbits; entry (i_1..i_n) is the scalar
    moment E[X_{i_1} ... X_{i_n}]."""
    raw = raw_moment_vector(spec, n, size_cap=size_cap)
    data = symmetrize_rows(Symmetrizer(spec.dim, n), raw.data,
                           arity_cap=arity_cap, size_cap=size_cap)
    return MomentVector(n, spec.dim, data, symmetrized=True)


def mgf_exponent_poly(spec: GaussianSpec) -> PolyFn:
    """The inner map t -> t'mu + t'Sigma t / 2 as an exact polynomial."""
    monos = []
    for i in range(spec.dim):
        if spec.mean[i]:
            exps = tuple(1 if j == i else 0 for j in range(spec.dim))
            monos.append((spec.mean[i], exps))
    for i in range(spec.dim):
        for j in range(spec.dim):
            if spec.cov[i, j]:
                exps = tuple((a == i) + (a == j) for a in range(spec.dim))
                monos.append((0.5 * spec.cov[i, j], exps))
    return PolyFn(spec.dim, 1, [monos])


def moment_via_faa(spec: GaussianSpec, n: int,
                   size_cap: int = DEFAULT_SIZE_CAP) -> MomentVector:
    """Order-n moments through the composite-derivative pipeline: exp composed
    with the quadratic MGF exponent, differentiated at t = 0.

    Equals raw_moment_vector up to representation, and exactly after
    symmetrization.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    g_jet = poly_jet(mgf_exponent_poly(spec), np.zeros(spec.dim), n, size_cap=size_cap)
    f_jet = exp_scalar_jet(float(g_jet.value[0]), n)
    d = faa_total_derivative(n, f_jet, g_jet, size_cap=size_cap)
    return MomentVector(n, spec.dim, d.matrix.reshape(-1), symmetrized=False)


def scalar_moment(spec: GaussianSpec, exponents,
                  size_cap: int = DEFAULT_SIZE_CAP,
                  arity_cap: int = DEFAULT_ARITY_CAP) -> float:
    """E[prod X_i^{e_i}], read from the symmetrized vector at any composite
    index whose digit multiset matches the exponents."""
    exponents = [int(e) for e in exponents]
    if len(exponents) != spec.dim or any(e < 0 for e in exponents):
        raise ValueError(f"exponents must be {spec.dim} nonnegative integers")
    n = sum(exponents)
    if n == 0:
        return 1.0
    sym = symmetrized_moment_vector(spec, n, size_cap=size_cap, arity_cap=arity_cap)
    digits = np.repeat(np.arange(spec.dim), exponents)
    return float(sym.data[composite_flat(digits, spec.dim)])
