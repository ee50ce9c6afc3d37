"""Command-line front door: moment vectors, composite derivatives, Bell
decompositions, and the verification suites.

Exit codes: 0 success; 1 verification suite failure; 2 invalid input
(including a zero Bell polynomial for k > n); 3 size-cap exceeded;
4 dimension mismatch between f and g in `compose`.

Each command returns one Report whose JSON payload holds every number any
format prints; csv and pretty are renderings of it, run only when asked for.
Composite-index labels such as "1,2,2" are 1-based rows of
kron_ops.composite_digits.  Floats print in Python's shortest round-trip
repr, so emitted numbers re-parse to identical values, and identical inputs
and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .bell_poly import Jet, bell_multivariate, recurrence_check, sandwich_value
from .faa_di_bruno import (
    apply_differential,
    directional_taylor_check,
    faa_symmetrized,
    faa_total_derivative,
)
from .kron_ops import (
    DEFAULT_ARITY_CAP,
    DEFAULT_DENSE_CAP,
    DEFAULT_SIZE_CAP,
    SizeCapError,
    Symmetrizer,
    commutation_matrix,
    composite_digits,
    dense_materialize,
    kron,
    kron_power,
    symmetrize_rows,
)
from .matrix_calculus import (
    DEFAULT_FD_STEP_FIRST,
    DEFAULT_FD_STEP_HIGHER,
    BlackBoxFn,
    PolyFn,
    exp_scalar_jet,
    poly_jet,
)
from .normal_moments import (
    GaussianSpec,
    moment_via_faa,
    raw_moment_vector,
    scalar_moment,
    symmetrized_moment_vector,
)
from .partitions import bell_coefficient, enumerate_bell_indices
from .verification import compose_poly, isserlis_moment

SIZE_CAP_ENV = "BELLKRON_SIZE_CAP"


@dataclass(frozen=True)
class RunConfig:
    """Resource caps, finite-difference steps, and the output format."""

    size_cap: int = DEFAULT_SIZE_CAP
    dense_cap: int = DEFAULT_DENSE_CAP
    sym_arity_cap: int = DEFAULT_ARITY_CAP
    fd_step_first: float = DEFAULT_FD_STEP_FIRST
    fd_step_higher: float = DEFAULT_FD_STEP_HIGHER
    output_format: str = "json"

    def __post_init__(self):
        kinds = {"int": int, "float": (int, float), "str": str}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kinds[f.type]) \
                    or (f.type == "float" and not math.isfinite(value)):
                raise ValueError(f"config field {f.name} must be {f.type}, got {value!r}")
        if min(self.size_cap, self.dense_cap, self.sym_arity_cap) < 1:
            raise ValueError("all caps must be positive")
        if self.fd_step_first <= 0 or self.fd_step_higher <= 0:
            raise ValueError("finite-difference steps must be positive")
        if self.output_format not in ("json", "csv", "pretty"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("--config must hold a JSON object")
        unknown = set(data) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = replace(cfg, **data)
    if os.environ.get(SIZE_CAP_ENV):
        cfg = replace(cfg, size_cap=int(os.environ[SIZE_CAP_ENV]))
    if getattr(args, "size_cap", None) is not None:
        cfg = replace(cfg, size_cap=args.size_cap)
    if getattr(args, "format", None):
        cfg = replace(cfg, output_format=args.format)
    return cfg


class DimensionMismatchError(ValueError):
    """f and g of a composite do not conform (exit code 4)."""


class Report(NamedTuple):
    """A command's JSON payload, its csv and pretty renderers, and exit code."""

    payload: dict
    csv_rows: Callable[[dict], list]
    pretty_lines: Callable[[dict], list]
    code: int = 0


def _require_finite(value, field: str = "") -> None:
    """Raise ValueError naming the first report field that holds NaN or an
    infinity; JSON has no such numbers and csv/pretty must not print them."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if not isinstance(item, float) or not math.isfinite(item):
                _require_finite(item, f"{field}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"report field {field} is not finite ({value!r})")


def _emit(report: Report, cfg: RunConfig, out) -> None:
    _require_finite(report.payload)
    if cfg.output_format == "json":
        print(json.dumps(report.payload, indent=2), file=out)
    elif cfg.output_format == "csv":
        csv.writer(out).writerows(report.csv_rows(report.payload))
    else:
        print(*report.pretty_lines(report.payload), sep="\n", file=out)


def _json_arg(text: str):
    """Parse an argument that is inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith(("[", "{")):
        return json.loads(stripped)
    with open(text) as fh:
        return json.load(fh)


def _finite(value, what: str):
    """Nested JSON lists of numbers as floats, rejecting booleans, strings,
    NaN and infinities instead of coercing them."""
    if isinstance(value, list):
        return [_finite(v, what) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must hold numbers only, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} holds the non-finite value {value!r}")
    return float(value)


def _number_arg(text: str, what: str) -> np.ndarray:
    """A numeric JSON argument (inline or a file) as a float array."""
    return np.asarray(_finite(_json_arg(text), what), dtype=float)


def _labels(digit_rows) -> list[str]:
    """1-based composite-index labels of 0-based digit rows, e.g. "1,2,2"."""
    return [",".join(str(d + 1) for d in row) for row in np.asarray(digit_rows).tolist()]


def _reprs(values) -> str:
    return " ".join(repr(v) for v in values)


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args, cfg: RunConfig) -> Report:
    mean = _number_arg(args.mean, "--mean")
    cov = _number_arg(args.cov, "--cov")
    if cov.ndim != 2:
        raise ValueError("--cov must be a 2-D JSON array")
    spec = GaussianSpec(len(mean.reshape(-1)), mean, cov)

    if args.scalar:
        exponents = [int(v) for v in args.scalar.split(",")]
        if args.order is not None and args.order != sum(exponents):
            raise ValueError(f"--order {args.order} disagrees with the exponent "
                             f"sum {sum(exponents)} of --scalar")
        value = scalar_moment(spec, exponents, size_cap=cfg.size_cap,
                              arity_cap=cfg.sym_arity_cap)
        payload = {
            "dim": spec.dim,
            "order": sum(exponents),
            "symmetrized": True,
            "exponents": exponents,
            "value": value,
        }
        return Report(payload, _scalar_csv, _scalar_pretty)
    order = 1 if args.order is None else args.order
    if args.symmetrize:
        mv = symmetrized_moment_vector(spec, order, size_cap=cfg.size_cap,
                                       arity_cap=cfg.sym_arity_cap)
    else:
        mv = raw_moment_vector(spec, order, size_cap=cfg.size_cap)
    payload = {
        "dim": mv.dim,
        "order": mv.order,
        "symmetrized": mv.symmetrized,
        "moment": mv.data.tolist(),
    }
    return Report(payload, _moment_csv, _moment_pretty)


def _scalar_csv(r: dict) -> list:
    label = _labels([np.repeat(np.arange(r["dim"]), r["exponents"])])[0]
    return [["index", "value"], [label, repr(r["value"])]]


def _scalar_pretty(r: dict) -> list:
    return [f"scalar moment E[prod X_i^e_i] for exponents {r['exponents']}: {r['value']!r}"]


def _moment_csv(r: dict) -> list:
    labels = _labels(composite_digits(r["dim"], r["order"]))
    return [["index", "value"]] + [[c, repr(v)] for c, v in zip(labels, r["moment"])]


def _moment_pretty(r: dict) -> list:
    labels = _labels(composite_digits(r["dim"], r["order"]))
    head = f"moment vector: dim={r['dim']} order={r['order']} symmetrized={r['symmetrized']}"
    return [head] + [f"  [{c}] {v!r}" for c, v in zip(labels, r["moment"])]


# ---------------------------------------------------------------------------
# compose


def _load_poly(path: str) -> PolyFn:
    return PolyFn.from_json_dict(_json_arg(path))


def cmd_compose(args, cfg: RunConfig) -> Report:
    g = _load_poly(args.g)
    at = _number_arg(args.at, "--at").reshape(-1)
    if at.shape != (g.n_x,):
        raise ValueError(f"--at has length {at.shape[0]}, expected {g.n_x}")
    n = args.order

    g_jet = poly_jet(g, at, n, size_cap=cfg.size_cap)
    if args.f == "exp":
        if g.n_y != 1:
            raise DimensionMismatchError(
                f"exp composes with scalar g only, g produces {g.n_y}")
        f_jet = exp_scalar_jet(float(g_jet.value[0]), n)
    else:
        f = _load_poly(args.f)
        if f.n_x != g.n_y:
            raise DimensionMismatchError(
                f"f consumes {f.n_x} inputs but g produces {g.n_y}")
        f_jet = poly_jet(f, g_jet.value, n, size_cap=cfg.size_cap)

    if args.symmetrize:
        d = faa_symmetrized(n, f_jet, g_jet, size_cap=cfg.size_cap,
                            arity_cap=cfg.sym_arity_cap)
    else:
        d = faa_total_derivative(n, f_jet, g_jet, size_cap=cfg.size_cap)

    payload = {
        "n_f": d.n_f,
        "n_x": d.n_x,
        "order": d.order,
        "symmetrized": d.symmetrized,
        "shape": list(d.matrix.shape),
        "matrix": d.matrix.tolist(),
    }
    if args.dx:
        dx = _number_arg(args.dx, "--dx").reshape(-1)
        payload["differential"] = apply_differential(d, dx, size_cap=cfg.size_cap).tolist()
    return Report(payload, _compose_csv, _compose_pretty)


def _compose_csv(r: dict) -> list:
    labels = _labels(composite_digits(r["n_x"], r["order"]))
    rows = [["component", "index", "value"]]
    for i, row in enumerate(r["matrix"], 1):
        rows.extend([str(i), c, repr(v)] for c, v in zip(labels, row))
    if "differential" in r:
        rows.append(["differential", "", _reprs(r["differential"])])
    return rows


def _compose_pretty(r: dict) -> list:
    rows, cols = r["shape"]
    lines = [f"composite derivative: order={r['order']} shape={rows}x{cols} "
             f"symmetrized={r['symmetrized']}"]
    lines += [f"  row {i}: " + _reprs(row) for i, row in enumerate(r["matrix"], 1)]
    if "differential" in r:
        lines.append("differential: " + _reprs(r["differential"]))
    return lines


# ---------------------------------------------------------------------------
# bell


def cmd_bell(args, cfg: RunConfig) -> Report:
    n, k = args.n, args.k
    terms = []
    for idx in enumerate_bell_indices(n, k):
        coeff = bell_coefficient(idx)
        terms.append({
            "j": list(idx.j),
            "coefficient": int(coeff) if coeff.denominator == 1 else str(coeff),
            "factor_orders": list(idx.factor_orders),
        })
    zero = k > n  # enumerate_bell_indices returned no terms; exit 2
    payload = {"n": n, "k": k, "zero": zero, "terms": terms}
    if args.g and not zero:
        g = _load_poly(args.g)
        if args.at is None:
            raise ValueError("--g requires --at")
        at = _number_arg(args.at, "--at").reshape(-1)
        jet = poly_jet(g, at, n - k + 1, size_cap=cfg.size_cap)
        mat = bell_multivariate(n, k, jet, size_cap=cfg.size_cap)
        payload["shape"] = list(mat.shape)
        payload["matrix"] = mat.tolist()
    return Report(payload, _bell_csv, _bell_pretty, code=2 if zero else 0)


def _bell_csv(r: dict) -> list:
    rows = [["j", "coefficient", "factor_orders"]]
    rows += [[",".join(map(str, t["j"])), str(t["coefficient"]),
              ",".join(map(str, t["factor_orders"]))] for t in r["terms"]]
    rows += [[f"matrix_row_{i}", "", _reprs(row)]
             for i, row in enumerate(r.get("matrix", ()), 1)]
    return rows


def _bell_pretty(r: dict) -> list:
    n, k = r["n"], r["k"]
    if r["zero"]:
        return [f"B_{{{n},{k}}} is the zero polynomial (k > n)"]
    lines = [f"B_{{{n},{k}}}: {len(r['terms'])} term(s)"]
    for t in r["terms"]:
        factors = " (x) ".join(f"g_x^{o}" if o > 1 else "g_x" for o in t["factor_orders"])
        lines.append(f"  {t['coefficient']} * {factors}   [j={tuple(t['j'])}]")
    if "matrix" in r:
        rows, cols = r["shape"]
        lines.append(f"evaluated matrix shape {rows}x{cols}")
        lines += ["  " + _reprs(row) for row in r["matrix"]]
    return lines


# ---------------------------------------------------------------------------
# verify suites


def _random_jet(rng, n_x: int, n_y: int, max_order: int) -> Jet:
    mats = tuple(rng.uniform(-1.0, 1.0, size=(n_y, n_x ** l))
                 for l in range(1, max_order + 1))
    return Jet(n_x, n_y, rng.uniform(-1.0, 1.0, size=n_y), mats)


def _random_poly(rng, n_x: int, n_y: int, degree: int, terms: int = 4) -> PolyFn:
    components = []
    for _ in range(n_y):
        monos = []
        for _ in range(terms):
            exps = [0] * n_x
            for _ in range(int(rng.integers(0, degree + 1))):
                exps[int(rng.integers(0, n_x))] += 1
            monos.append((float(rng.uniform(-1.0, 1.0)), tuple(exps)))
        components.append(monos)
    return PolyFn(n_x, n_y, components)


def _random_psd_spec(rng, dim: int, centered: bool = False) -> GaussianSpec:
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    cov = a @ a.T + 0.5 * np.eye(dim)
    cov = (cov + cov.T) / 2.0
    mean = np.zeros(dim) if centered else rng.uniform(-1.0, 1.0, size=dim)
    return GaussianSpec(dim, mean, cov)


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "passed": bool(residual <= tolerance),
        "residual": float(residual),
        "tolerance": float(tolerance),
    }


def _suite_recurrence(seed: int, cfg: RunConfig) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        n_x = int(rng.integers(1, 4))
        n_y = int(rng.integers(1, 4))
        g = _random_jet(rng, n_x, n_y, n + 1)
        d_vec = rng.uniform(-1.0, 1.0, size=n_y)
        x_vec = rng.uniform(-1.0, 1.0, size=n_x)
        lhs = sandwich_value(d_vec, k, bell_multivariate(n + 1, k, g, cfg.size_cap),
                             x_vec, n + 1, size_cap=cfg.size_cap)
        res = recurrence_check(n, k, g, d_vec, x_vec, size_cap=cfg.size_cap)
        worst = max(worst, res / (1.0 + abs(lhs)))
    checks.append(_check("step_recurrence_relative_residual", worst, 1e-10))

    # raw-matrix recurrence fails while the sandwiched form holds
    g = _random_jet(np.random.default_rng(seed + 1), 2, 2, 2)
    raw_lhs = bell_multivariate(3, 2, g, cfg.size_cap)
    raw_rhs = (kron(bell_multivariate(2, 1, g, cfg.size_cap), g.matrix(1))
               + 2.0 * kron(bell_multivariate(1, 1, g, cfg.size_cap), g.matrix(2)))
    raw_gap = float(np.max(np.abs(raw_lhs - raw_rhs)))
    # residual is how far the raw gap falls short of the required separation
    checks.append(_check("raw_matrix_recurrence_fails", max(0.0, 1e-6 - raw_gap), 0.0))
    rng2 = np.random.default_rng(seed + 2)
    d_vec = rng2.uniform(-1.0, 1.0, size=2)
    x_vec = rng2.uniform(-1.0, 1.0, size=2)
    lhs = sandwich_value(d_vec, 2, raw_lhs, x_vec, 3)
    rhs = sandwich_value(d_vec, 2, raw_rhs, x_vec, 3)
    checks.append(_check("sandwiched_recurrence_holds",
                         abs(lhs - rhs) / (1.0 + abs(lhs)), 1e-10))
    return checks


def _suite_symmetrizer(seed: int, cfg: RunConfig) -> list[dict]:
    checks = []
    s22 = dense_materialize(Symmetrizer(2, 2), dense_cap=cfg.dense_cap)
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    checks.append(_check("dense_S22_matches", float(np.max(np.abs(s22 - expected))), 0.0))
    half = 0.5 * (np.eye(4) + dense_materialize(commutation_matrix(2, 2)))
    checks.append(_check("S22_is_half_I_plus_K", float(np.max(np.abs(s22 - half))), 0.0))

    worst = 0.0
    for dim in (2, 3):
        for arity in (2, 3, 4):
            s = dense_materialize(Symmetrizer(dim, arity), dense_cap=cfg.dense_cap,
                                  exact=True)
            idem = 0.0 if np.array_equal(s @ s, s) else 1.0
            symm = 0.0 if np.array_equal(s, s.T) else 1.0
            worst = max(worst, idem, symm)
    checks.append(_check("S_idempotent_and_symmetric_exact", worst, 0.0))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for arity in (2, 3, 4):
        x = rng.uniform(-1.0, 1.0, size=(1, 3))
        power = kron_power(x, arity).reshape(-1)
        fixed = symmetrize_rows(Symmetrizer(3, arity), power,
                                arity_cap=cfg.sym_arity_cap)
        worst = max(worst, float(np.max(np.abs(fixed - power))))
    checks.append(_check("kron_power_fixed_point", worst, 1e-12))
    return checks


def _suite_moments(seed: int, cfg: RunConfig) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_two_path = 0.0
    worst_oracle = 0.0
    for dim in (1, 2, 3):
        for centered in (False, True):
            spec = _random_psd_spec(rng, dim, centered=centered)
            for n in range(1, 6):
                sym_raw = symmetrized_moment_vector(spec, n, size_cap=cfg.size_cap,
                                                    arity_cap=cfg.sym_arity_cap)
                via = moment_via_faa(spec, n, size_cap=cfg.size_cap)
                sym_via = symmetrize_rows(Symmetrizer(dim, n), via.data,
                                          arity_cap=cfg.sym_arity_cap)
                scale = 1.0 + float(np.max(np.abs(sym_raw.data)))
                worst_two_path = max(
                    worst_two_path,
                    float(np.max(np.abs(sym_raw.data - sym_via))) / scale)
                for digits in itertools.combinations_with_replacement(range(dim), n):
                    exponents = np.bincount(digits, minlength=dim)
                    oracle = isserlis_moment(spec, exponents)
                    ours = scalar_moment(spec, exponents, size_cap=cfg.size_cap,
                                         arity_cap=cfg.sym_arity_cap)
                    worst_oracle = max(worst_oracle,
                                       abs(ours - oracle) / (1.0 + abs(oracle)))
    checks.append(_check("two_path_symmetrized_equality", worst_two_path, 1e-10))
    checks.append(_check("isserlis_oracle_equality", worst_oracle, 1e-10))
    return checks


def _suite_compose(seed: int, cfg: RunConfig) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for case in range(8):
        n_x = int(rng.integers(1, 4))
        n_mid = int(rng.integers(1, 4))
        n_f = int(rng.integers(1, 3))
        g = _random_poly(rng, n_x, n_mid, degree=3)
        f = _random_poly(rng, n_mid, n_f, degree=3)
        x = rng.uniform(-0.5, 0.5, size=n_x)
        composed = compose_poly(f, g)
        for n in range(1, 4):
            g_jet = poly_jet(g, x, n, size_cap=cfg.size_cap)
            f_jet = poly_jet(f, g_jet.value, n, size_cap=cfg.size_cap)
            ours = faa_symmetrized(n, f_jet, g_jet, size_cap=cfg.size_cap,
                                   arity_cap=cfg.sym_arity_cap)
            truth = poly_jet(composed, x, n, size_cap=cfg.size_cap).matrix(n)
            scale = 1.0 + float(np.max(np.abs(truth)))
            worst = max(worst, float(np.max(np.abs(ours.matrix - truth))) / scale)
    checks.append(_check("composition_oracle_equality", worst, 1e-10))

    worst = 0.0
    for case in range(5):
        n_x = int(rng.integers(1, 4))
        n_mid = int(rng.integers(1, 4))
        g = _random_poly(rng, n_x, n_mid, degree=2)
        f = _random_poly(rng, n_mid, 1, degree=2)
        x = rng.uniform(-0.5, 0.5, size=n_x)
        dx = rng.uniform(-1.0, 1.0, size=n_x)
        n = int(rng.integers(1, 4))
        g_jet = poly_jet(g, x, n, size_cap=cfg.size_cap)
        f_jet = poly_jet(f, g_jet.value, n, size_cap=cfg.size_cap)
        composite = BlackBoxFn(n_x, 1, lambda p, f=f, g=g: f.evaluate(g.evaluate(p)))
        value = apply_differential(faa_total_derivative(n, f_jet, g_jet,
                                                        size_cap=cfg.size_cap), dx)
        res = directional_taylor_check(composite, x, dx, n, f_jet, g_jet,
                                       step=cfg.fd_step_higher, size_cap=cfg.size_cap)
        worst = max(worst, res / (1.0 + float(np.max(np.abs(value)))))
    checks.append(_check("directional_taylor_residual", worst, 1e-4))
    return checks


_SUITES = {
    "recurrence": _suite_recurrence,
    "symmetrizer": _suite_symmetrizer,
    "moments": _suite_moments,
    "compose": _suite_compose,
}


def cmd_verify(args, cfg: RunConfig) -> Report:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = [{"suite": name, **check} for name in names
              for check in _SUITES[name](args.seed, cfg)]
    passed = all(c["passed"] for c in checks)
    payload = {"suite": args.suite, "seed": args.seed, "passed": passed, "checks": checks}
    return Report(payload, _verify_csv, _verify_pretty, code=0 if passed else 1)


def _verify_csv(r: dict) -> list:
    return [["suite", "check", "passed", "residual", "tolerance"]] + [
        [c["suite"], c["name"], str(c["passed"]).lower(), repr(c["residual"]),
         repr(c["tolerance"])] for c in r["checks"]]


def _verify_pretty(r: dict) -> list:
    lines = [f"verify suite={r['suite']} seed={r['seed']}"]
    for c in r["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"  {status} {c['suite']}/{c['name']}: residual={c['residual']!r} "
                     f"tolerance={c['tolerance']!r}")
    lines.append("all checks passed" if r["passed"] else "FAILURES present")
    return lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkron",
        description="Higher-order composite derivatives and exact normal moments",
    )
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    parser.add_argument("--size-cap", type=int, dest="size_cap",
                        help="maximum matrix entry count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment vectors of a multivariate normal")
    p.add_argument("--mean", required=True, help="JSON array or file")
    p.add_argument("--cov", required=True, help="JSON 2-D array or file")
    p.add_argument("--order", type=int, help="vector order (default 1); with "
                   "--scalar it must equal the exponent sum")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--scalar", help="comma-separated exponents, e.g. 2,2")
    p.add_argument("--format", choices=("json", "csv", "pretty"))
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("compose", help="n-th total derivative of f after g")
    p.add_argument("--f", required=True, help="polynomial JSON file or 'exp'")
    p.add_argument("--g", required=True, help="polynomial JSON file")
    p.add_argument("--at", required=True, help="JSON array evaluation point")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--dx", help="JSON array; also emit the differential value")
    p.add_argument("--format", choices=("json", "csv", "pretty"))
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("bell", help="index/coefficient decomposition of B_{n,k}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", help="polynomial JSON file to evaluate numerically")
    p.add_argument("--at", help="JSON array evaluation point")
    p.add_argument("--format", choices=("json", "csv", "pretty"))
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("recurrence", "symmetrizer", "moments",
                                       "compose", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "pretty"))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        report = args.func(args, cfg)
        _emit(report, cfg, out)
        return report.code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
