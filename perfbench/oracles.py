"""Correctness gate: judge each CLI response against oracles that do not
share the Bell/Kronecker code.

- Moment tables: the closed-form raw moment evaluated entry by entry
  through digit indexing (no Kronecker products) and averaged over each
  digit orbit gives every scalar moment; sampled orbits of that table are
  checked against ``isserlis_moment`` on each response.
- ``--scalar`` values: ``isserlis_moment``.
- Symmetrized moment vectors and exp derivatives: every entry against the
  table.  Raw vectors: every entry against the closed form, orbit means
  against the table, and the contraction with a seeded ``dx^{(x)n}`` against
  the univariate Isserlis moment of ``dx'X``.
- poly-after-poly composites: mixed partials of the exact ``compose_poly``
  expansion, differentiated monomial by monomial here.
- exp after the MGF exponent at 0: the table, and the differential against
  the univariate Isserlis moment of ``dx'X``.
- ``bell``: the coefficient sum against ``count_set_partitions``.
- ``verify``: the report's own ``passed`` flag.

``judge`` returns None for a correct response, otherwise the reason.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from math import factorial

import numpy as np

from bellkron.matrix_calculus import PolyFn
from bellkron.normal_moments import GaussianSpec
from bellkron.partitions import count_set_partitions
from bellkron.verification import compose_poly, isserlis_moment

# Relative tolerances.  A value perturbed by 1e-6 relative exceeds each of
# them by two orders of magnitude or more.
ORACLE_RTOL = 1e-9
ENTRY_RTOL = 1e-11
# Orbits of each moment table checked against isserlis_moment.
ISSERLIS_SAMPLES = 6


class Reject(Exception):
    """A response failed a check; the message says which."""


def judge(request, code, text: str) -> str | None:
    if code != request.expected_code:
        return f"exit code {code!r}, expected {request.expected_code}"
    try:
        _CHECKS[request.check["kind"]](request.check, text)
    except Reject as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable response: {type(exc).__name__}: {exc}"
    return None


def _close(ours, truth, scale, rtol: float, what: str) -> None:
    gap = float(np.max(np.abs(np.asarray(ours, dtype=float) - np.asarray(truth, dtype=float))))
    if not gap <= rtol * (1.0 + float(scale)):
        raise Reject(f"{what}: gap {gap!r} over tolerance {rtol} * (1 + {float(scale)!r})")


# ---------------------------------------------------------------------------
# index helpers (composite index = mixed radix, first digit most significant)


def _digits(dim: int, order: int) -> np.ndarray:
    """(dim**order, order) digit rows in C order."""
    return np.indices((dim,) * order).reshape(order, -1).T


def _orbits(dim: int, order: int):
    """Orbit id per composite index and one exponent vector per orbit."""
    digits = _digits(dim, order)
    counts = np.stack([(digits == v).sum(axis=1) for v in range(dim)], axis=1)
    code = counts @ (order + 1) ** np.arange(dim)
    _, first, groups = np.unique(code, return_index=True, return_inverse=True)
    return groups.reshape(-1), counts[first]


def _labels(dim: int, order: int) -> list[str]:
    return [",".join(map(str, t)) for t in
            itertools.product(range(1, dim + 1), repeat=order)]


def _spec(mean, cov) -> GaussianSpec:
    return GaussianSpec(len(mean), mean, cov)


def _moment_table(mean, cov, order: int):
    """(orbit id per composite index, scalar moment per orbit).  A few
    orbits, always including the extreme ones, are checked against
    isserlis_moment."""
    groups, exps = _orbits(len(mean), order)
    closed, _ = _raw_closed_form(mean, cov, order)
    table = np.bincount(groups, weights=closed) / np.bincount(groups)
    rng = np.random.default_rng(groups.size)
    picks = {0, len(exps) - 1, *rng.integers(0, len(exps), size=ISSERLIS_SAMPLES)}
    spec = _spec(mean, cov)
    for o in sorted(picks):
        truth = isserlis_moment(spec, exps[o])
        _close(table[o], truth, abs(truth), ORACLE_RTOL,
               f"closed-form moment {exps[o].tolist()} vs Isserlis")
    return groups, table


def _univariate_moment(mean, cov, dx, order: int) -> float:
    """E[(dx'X)^n] for X ~ N(mean, cov)."""
    line = GaussianSpec(1, [float(dx @ mean)], [[float(dx @ cov @ dx)]])
    return isserlis_moment(line, [order])


def _contract(vec: np.ndarray, dx: np.ndarray, order: int) -> float:
    """vec @ dx^{(x)n} by successive contraction of the last digit."""
    out = vec
    for _ in range(order):
        out = out.reshape(-1, dx.size) @ dx
    return float(out.reshape(-1)[0])


def _raw_closed_form(mean, cov, order: int):
    """Every raw moment entry sum_j c_j prod mu[i_1..i_{n-2j}] prod
    Sigma[pairs of the remaining digits], and the same sum in absolute
    values as its rounding scale."""
    digits = _digits(len(mean), order)
    total = np.zeros(digits.shape[0])
    scale = np.zeros(digits.shape[0])
    for j in range(order // 2 + 1):
        singles = order - 2 * j
        term = np.full(digits.shape[0],
                       factorial(order) / (factorial(singles) * factorial(j) * 2 ** j))
        for t in range(singles):
            term = term * mean[digits[:, t]]
        for s in range(j):
            term = term * cov[digits[:, singles + 2 * s], digits[:, singles + 2 * s + 1]]
        total += term
        scale += np.abs(term)
    return total, scale


# ---------------------------------------------------------------------------
# moments


def _parse_moment_text(text: str, fmt: str, dim: int, order: int | None):
    """Values from a moments report in any format; labels are checked."""
    if fmt == "json":
        report = json.loads(text)
        if order is None:
            return [report["value"]], report
        return report["moment"], report
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["index", "value"]:
            raise Reject(f"csv header {rows[0]}")
        labels = [r[0] for r in rows[1:]]
        values = [float(r[1]) for r in rows[1:]]
    else:
        lines = text.splitlines()
        if order is None:
            return [float(lines[0].rsplit(": ", 1)[1])], None
        if not lines[0].startswith(f"moment vector: dim={dim} order={order} "):
            raise Reject(f"pretty header {lines[0]!r}")
        labels, values = [], []
        for line in lines[1:]:
            label, value = line.strip().split("] ")
            labels.append(label.lstrip("["))
            values.append(float(value))
    if order is not None and labels != _labels(dim, order):
        raise Reject("composite-index labels out of order")
    return values, None


def _check_scalar(chk: dict, text: str) -> None:
    exps = chk["exponents"]
    (value,), report = _parse_moment_text(text, chk["format"], len(exps), None)
    if report is not None and (report["exponents"] != exps or report["dim"] != len(exps)):
        raise Reject("scalar report header does not echo the request")
    truth = isserlis_moment(_spec(chk["mean"], chk["cov"]), exps)
    _close(value, truth, abs(truth), ORACLE_RTOL, f"scalar moment {exps}")


def _check_vector(chk: dict, text: str) -> None:
    mean, cov, order = chk["mean"], chk["cov"], chk["order"]
    dim = len(mean)
    values, report = _parse_moment_text(text, chk["format"], dim, order)
    if report is not None and (report["dim"], report["order"], report["symmetrized"]) \
            != (dim, order, chk["symmetrized"]):
        raise Reject("moment report header does not echo the request")
    values = np.asarray(values, dtype=float)
    if values.shape != (dim ** order,):
        raise Reject(f"{values.size} moment entries, expected {dim ** order}")
    groups, truth = _moment_table(mean, cov, order)
    scale = float(np.max(np.abs(truth)))
    if chk["symmetrized"]:
        _close(values, truth[groups], scale, ORACLE_RTOL, "symmetrized entries")
        return
    means = np.bincount(groups, weights=values) / np.bincount(groups)
    _close(means, truth, scale, ORACLE_RTOL, "raw orbit means")
    closed, abs_closed = _raw_closed_form(mean, cov, order)
    gap = np.abs(values - closed)
    if not np.all(gap <= ENTRY_RTOL * (abs_closed + 1e-3 * float(np.max(abs_closed)))):
        raise Reject(f"raw entry off the closed form by {float(np.max(gap))!r}")
    dx = chk["dx"]
    contracted = _contract(values, dx, order)
    truth_1d = _univariate_moment(mean, cov, dx, order)
    _close(contracted, truth_1d, _contract(np.abs(values), np.abs(dx), order),
           ORACLE_RTOL, "raw vector contracted with dx vs univariate Isserlis")


# ---------------------------------------------------------------------------
# compose


def _parse_compose(chk: dict, text: str, n_f: int, n_x: int):
    report = json.loads(text)
    order = chk["order"]
    header = (report["n_f"], report["n_x"], report["order"], report["symmetrized"])
    if header != (n_f, n_x, order, chk["symmetrized"]):
        raise Reject(f"compose report header {header} does not echo the request")
    matrix = np.asarray(report["matrix"], dtype=float)
    if matrix.shape != (n_f, n_x ** order):
        raise Reject(f"matrix shape {matrix.shape}")
    return matrix, np.asarray(report["differential"], dtype=float)


def _mixed_partials(poly: PolyFn, x: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """(n_y, orbits) partial derivatives d^alpha poly at x, alpha = exps[o],
    by termwise differentiation of the monomials."""
    out = np.zeros((poly.n_y, len(exps)))
    for i, rows in enumerate(poly.components):
        if not rows:
            continue
        mono = np.array([e for e, _ in rows])                # (M, n_x)
        coeff = np.array([c for _, c in rows])
        top = int(max(mono.max(), exps.max())) + 1
        # falling[e, a] = e! / (e - a)!, zero where a > e kills the monomial
        falling = np.array([[factorial(e) / factorial(e - a) if a <= e else 0.0
                             for a in range(top)] for e in range(top)])
        factor = np.prod(falling[mono[None, :, :], exps[:, None, :]], axis=2)
        lowered = np.maximum(mono[None, :, :] - exps[:, None, :], 0)
        out[i] = (factor * np.prod(x ** lowered, axis=2)) @ coeff
    return out


def _directional(partials: np.ndarray, exps: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """sum over multisets alpha of n!/alpha! d^alpha h dx^alpha."""
    order = int(exps[0].sum())
    weights = np.array([factorial(order) / np.prod([factorial(int(a)) for a in e])
                        * np.prod(dx ** e) for e in exps])
    return partials @ weights


def _check_poly(chk: dict, text: str) -> None:
    f = PolyFn.from_json_dict(chk["f"])
    g = PolyFn.from_json_dict(chk["g"])
    order, x, dx = chk["order"], chk["at"], chk["dx"]
    matrix, diff = _parse_compose(chk, text, f.n_y, g.n_x)
    groups, exps = _orbits(g.n_x, order)
    truth = _mixed_partials(compose_poly(f, g), x, exps)
    scale = float(np.max(np.abs(truth)))
    if chk["symmetrized"]:
        _close(matrix, truth[:, groups], scale, ORACLE_RTOL,
               "symmetrized composite vs compose_poly partials")
    else:
        counts = np.bincount(groups)
        means = np.stack([np.bincount(groups, weights=row) / counts for row in matrix])
        _close(means, truth, scale, ORACLE_RTOL, "composite orbit means vs compose_poly")
    _close(diff, _directional(truth, exps, dx),
           float(np.max(np.abs(_directional(np.abs(truth), exps, np.abs(dx))))),
           ORACLE_RTOL, "differential vs compose_poly directional derivative")


def _check_exp(chk: dict, text: str) -> None:
    mean, cov, order, dx = chk["mean"], chk["cov"], chk["order"], chk["dx"]
    dim = len(mean)
    matrix, diff = _parse_compose(chk, text, 1, dim)
    groups, truth = _moment_table(mean, cov, order)
    scale = float(np.max(np.abs(truth)))
    if chk["symmetrized"]:
        _close(matrix[0], truth[groups], scale, ORACLE_RTOL, "exp derivative entries")
    else:
        means = np.bincount(groups, weights=matrix[0]) / np.bincount(groups)
        _close(means, truth, scale, ORACLE_RTOL, "exp derivative orbit means")
    _close(diff, [_univariate_moment(mean, cov, dx, order)],
           _contract(np.abs(matrix[0]), np.abs(dx), order), ORACLE_RTOL,
           "exp differential vs univariate Isserlis")


# ---------------------------------------------------------------------------
# bell and verify


@functools.lru_cache(maxsize=None)
def _set_partitions(n: int, k: int) -> int:
    return count_set_partitions(n, k)


def _check_bell(chk: dict, text: str) -> None:
    n, k = chk["n"], chk["k"]
    report = json.loads(text)
    if (report["n"], report["k"], report["zero"]) != (n, k, False):
        raise Reject("bell report header does not echo the request")
    total = 0
    for term in report["terms"]:
        j = term["j"]
        if len(j) != n - k + 1 or sum(j) != k or \
                sum(l * v for l, v in enumerate(j, start=1)) != n:
            raise Reject(f"invalid Bell index {j}")
        orders = [l for l, v in enumerate(j, start=1) for _ in range(v)]
        if term["factor_orders"] != orders:
            raise Reject(f"factor orders {term['factor_orders']} do not match {j}")
        if not isinstance(term["coefficient"], int):
            raise Reject(f"non-integer coefficient {term['coefficient']!r}")
        total += term["coefficient"]
    expected = _set_partitions(n, k)
    if total != expected:
        raise Reject(f"coefficient sum {total} != S({n},{k}) = {expected}")


def _check_verify(chk: dict, text: str) -> None:
    report = json.loads(text)
    if report["seed"] != chk["seed"] or report["suite"] != chk["suite"]:
        raise Reject("verify report header does not echo the request")
    if report["passed"] is not True or not all(c["passed"] for c in report["checks"]):
        raise Reject("verify report flags a failed check")


_CHECKS = {
    "scalar": _check_scalar,
    "vector": _check_vector,
    "poly": _check_poly,
    "exp": _check_exp,
    "bell": _check_bell,
    "verify": _check_verify,
}
