"""Request mixes for the three workloads and their seeded input generation.

A workload is a cycle of request templates.  A template fixes the request
shape (subcommand, dimensions, order, flags); every cycle draws fresh numeric
inputs for each template from ``numpy.random.default_rng((seed, workload,
cycle))``, so the same seed always yields the same argv lists and the same
JSON input files.  Cycle -1 is the untimed set-up pass, which issues each
distinct template once.

Mix weights place p50 and p90 of the timed latencies inside one block of
similar-cost templates rather than on the edge between two cost classes (see
the layout notes on each mix).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

FORMATS = ("json", "csv", "pretty")
WORKLOAD_CODES = {"moments": 1, "compose": 2}


@dataclass
class Request:
    """One CLI invocation plus what the correctness gate needs to judge it."""

    template: str
    argv: list[str]
    check: dict = field(repr=False)
    expected_code: int = 0


@dataclass(frozen=True)
class Template:
    key: str
    kind: str
    params: tuple


def _t(kind: str, *params) -> Template:
    return Template(kind + ":" + ",".join(str(p) for p in params), kind, params)


# moments: scalar(dim, order) and vector(dim, order, symmetrize).
# Layout of the 56-request cycle by cost, in scaled ms (ranks as shares of
# the cycle): 22 scalar requests at 2-4 ms (0-0.39), the p50 block of 10
# scalar requests at 6-7 ms (0.39-0.57), 11 requests at 10-100 ms (to
# 0.77), four vectors at 200-235 ms (to 0.84), the p90 block of 8 d4n7
# symmetrized vectors at ~255 ms (0.84-0.98), and the d5n8 scalar, ~1.5 s,
# last.
MOMENTS_MIX = (
    (_t("scalar", 2, 2), 2), (_t("scalar", 2, 4), 2), (_t("scalar", 2, 6), 2),
    (_t("scalar", 2, 8), 2), (_t("scalar", 3, 3), 2), (_t("scalar", 4, 2), 2),
    (_t("scalar", 3, 5), 2), (_t("scalar", 4, 4), 2), (_t("scalar", 5, 3), 2),
    (_t("scalar", 4, 5), 2), (_t("scalar", 5, 4), 2),
    (_t("scalar", 3, 7), 5), (_t("scalar", 5, 5), 5),
    (_t("scalar", 4, 6), 2), (_t("scalar", 3, 8), 2),
    (_t("vector", 5, 5, False), 3), (_t("vector", 3, 8, False), 2),
    (_t("vector", 3, 8, True), 2),
    (_t("vector", 5, 6, True), 2), (_t("vector", 4, 7, False), 2),
    (_t("vector", 4, 7, True), 8),
    (_t("scalar", 5, 8), 1),
)

# compose: poly(n_x, n_y, n_f, order, symmetrize) poly-after-poly with --dx,
# exp(n_x, order, symmetrize) exp after the MGF exponent at 0 with --dx,
# bell(n, k), and verify(suite) on successive seeds for the recurrence and
# moments suites, which run every layer at small sizes and the verification
# oracles.  The symmetrizer suite is left out: its exact Fraction product
# takes ~2 s a request and swings by half with the machine's speed, more
# than a run can average.  The compose suite is left out because about one
# seed in two hundred fails its finite-difference check
# (directional_taylor_residual, e.g. --seed 7007), and a benchmark request
# must not fail.  Every Bell matrix stays under the default 10^7-entry cap;
# the largest is B_{7,7} at n_x = n_y = 3 (2187 x 2187).
# Layout of the 67-request cycle by cost, in scaled ms: 23 bell and n_x=2
# n=7 exp requests at 1-6 ms (0-0.34), the p50 block of 14 requests at
# 8-9 ms (0.34-0.55), 18 requests at 25-120 ms (to 0.82), two n_y=4 order-7
# poly composites at ~210 ms, the p90 block of 8 n_x=n_y=3 order-7 poly
# composites at ~240 ms (0.85-0.97), then exp at n_x=4, n=7 and n=8.
COMPOSE_MIX = (
    (_t("bell", 6, 2), 3), (_t("bell", 7, 3), 3), (_t("bell", 8, 4), 3),
    (_t("bell", 9, 3), 3), (_t("bell", 10, 2), 3), (_t("bell", 10, 4), 3),
    (_t("bell", 10, 6), 3),
    (_t("exp", 2, 7, False), 1), (_t("exp", 2, 7, True), 1),
    (_t("poly", 2, 2, 2, 7, False), 3), (_t("poly", 2, 2, 2, 7, True), 3),
    (_t("exp", 2, 8, False), 4), (_t("exp", 2, 8, True), 4),
    (_t("poly", 4, 3, 1, 5, False), 1), (_t("poly", 4, 3, 1, 5, True), 1),
    (_t("exp", 3, 7, False), 1), (_t("exp", 3, 7, True), 1),
    (_t("poly", 3, 3, 2, 6, False), 1), (_t("poly", 3, 3, 2, 6, True), 1),
    (_t("poly", 3, 2, 1, 7, False), 1), (_t("poly", 3, 2, 1, 7, True), 1),
    (_t("poly", 4, 4, 1, 5, False), 1), (_t("poly", 4, 4, 1, 5, True), 1),
    (_t("poly", 4, 2, 1, 6, False), 1), (_t("poly", 4, 2, 1, 6, True), 1),
    (_t("poly", 4, 2, 2, 6, False), 1), (_t("poly", 4, 2, 2, 6, True), 1),
    (_t("exp", 3, 8, False), 1), (_t("exp", 3, 8, True), 1),
    (_t("verify", "recurrence"), 1), (_t("verify", "moments"), 1),
    (_t("poly", 2, 4, 2, 7, False), 1), (_t("poly", 2, 4, 2, 7, True), 1),
    (_t("poly", 3, 3, 1, 7, False), 4), (_t("poly", 3, 3, 1, 7, True), 4),
    (_t("exp", 4, 7, True), 1),
    (_t("exp", 4, 8, False), 1),
)

MIXES = {"moments": MOMENTS_MIX, "compose": COMPOSE_MIX}

# Fewest timed requests per run; p90 then has at least ten samples beyond it.
MIN_TIMED_REQUESTS = 100


def templates(workload: str) -> list[Template]:
    """Distinct templates of a workload, in mix order."""
    return [tpl for tpl, _ in MIXES[workload]]


def cycle_templates(workload: str) -> list[Template]:
    """The templates of one timed cycle, repeated by weight and interleaved
    so that equal templates are spread over the cycle."""
    slots = []
    for tpl, count in MIXES[workload]:
        for r in range(count):
            slots.append(((r + 0.5) / count, tpl.key, tpl))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [tpl for _, _, tpl in slots]


def make_requests(workload: str, seed: int, cycle: int, workdir: str) -> list[Request]:
    """Requests of one cycle (cycle -1 is the set-up pass), inputs written
    as JSON files under ``workdir``."""
    rng = np.random.default_rng((seed, WORKLOAD_CODES[workload], cycle + 1))
    tpls = templates(workload) if cycle < 0 else cycle_templates(workload)
    prefix = os.path.join(workdir, f"c{cycle + 1}")
    out = []
    for pos, tpl in enumerate(tpls):
        stem = f"{prefix}_{pos}"
        if tpl.kind == "scalar":
            req = _scalar_request(rng, stem, *tpl.params, FORMATS[(pos + cycle) % 3])
        elif tpl.kind == "vector":
            req = _vector_request(rng, stem, *tpl.params, FORMATS[(pos + cycle) % 3])
        elif tpl.kind == "poly":
            req = _poly_request(rng, stem, *tpl.params)
        elif tpl.kind == "exp":
            req = _exp_request(rng, stem, *tpl.params)
        elif tpl.kind == "bell":
            req = _bell_request(*tpl.params)
        else:
            req = _verify_request(seed, cycle, *tpl.params)
        req.template = tpl.key
        out.append(req)
    return out


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _gaussian(rng, dim: int):
    mean = rng.uniform(-1.0, 1.0, size=dim)
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    cov = a @ a.T / dim + 0.5 * np.eye(dim)
    return mean, (cov + cov.T) / 2.0


def _moment_files(rng, stem: str, dim: int):
    mean, cov = _gaussian(rng, dim)
    mean_path = _write(stem + "_mean.json", mean.tolist())
    cov_path = _write(stem + "_cov.json", cov.tolist())
    return mean, cov, ["moments", "--mean", mean_path, "--cov", cov_path]


def _scalar_request(rng, stem, dim, order, fmt) -> Request:
    mean, cov, argv = _moment_files(rng, stem, dim)
    exponents = np.bincount(rng.integers(0, dim, size=order), minlength=dim).tolist()
    argv += ["--scalar", ",".join(map(str, exponents)), "--format", fmt]
    return Request("", argv, {"kind": "scalar", "mean": mean, "cov": cov,
                              "exponents": exponents, "format": fmt})


def _vector_request(rng, stem, dim, order, symmetrize, fmt) -> Request:
    mean, cov, argv = _moment_files(rng, stem, dim)
    argv += ["--order", str(order), "--format", fmt]
    if symmetrize:
        argv.append("--symmetrize")
    return Request("", argv, {"kind": "vector", "mean": mean, "cov": cov,
                              "order": order, "symmetrized": symmetrize,
                              "format": fmt, "dx": rng.uniform(-1.0, 1.0, size=dim)})


POLY_DEGREES = (3, 3, 2, 1, 0)


def _random_poly(rng, n_x: int, n_y: int) -> dict:
    """Polynomial map with monomials of degrees 3, 3, 2, 1 and 0 in every
    component, so a composite of two has degree up to 9.  Which monomials
    appear depends only on (n_x, n_y): the request shape fixes the work and
    only the coefficients are fresh."""
    layout = np.random.default_rng((n_x, n_y))
    components = []
    for _ in range(n_y):
        monos = []
        for degree in POLY_DEGREES:
            exps = np.bincount(layout.integers(0, n_x, size=degree), minlength=n_x)
            monos.append({"coeff": float(rng.uniform(-1.0, 1.0)),
                          "exponents": exps.tolist()})
        components.append(monos)
    return {"n_x": n_x, "n_y": n_y, "components": components}


def _poly_request(rng, stem, n_x, n_y, n_f, order, symmetrize) -> Request:
    g = _random_poly(rng, n_x, n_y)
    f = _random_poly(rng, n_y, n_f)
    at = rng.uniform(-0.5, 0.5, size=n_x)
    dx = rng.uniform(-1.0, 1.0, size=n_x)
    argv = ["compose", "--f", _write(stem + "_f.json", f),
            "--g", _write(stem + "_g.json", g),
            "--at", json.dumps(at.tolist()), "--order", str(order),
            "--dx", json.dumps(dx.tolist())]
    if symmetrize:
        argv.append("--symmetrize")
    return Request("", argv, {"kind": "poly", "f": f, "g": g, "at": at, "dx": dx,
                              "order": order, "symmetrized": symmetrize})


def _exp_request(rng, stem, n_x, order, symmetrize) -> Request:
    """exp after t -> t'mu + t'Sigma t / 2 at t = 0: the order-n moments."""
    mean, cov = _gaussian(rng, n_x)
    monos = [{"coeff": float(mean[i]), "exponents": [int(j == i) for j in range(n_x)]}
             for i in range(n_x)]
    for i in range(n_x):
        for j in range(n_x):
            monos.append({"coeff": 0.5 * float(cov[i, j]),
                          "exponents": [(a == i) + (a == j) for a in range(n_x)]})
    g = {"n_x": n_x, "n_y": 1, "components": [monos]}
    dx = rng.uniform(-1.0, 1.0, size=n_x)
    argv = ["compose", "--f", "exp", "--g", _write(stem + "_g.json", g),
            "--at", json.dumps([0.0] * n_x), "--order", str(order),
            "--dx", json.dumps(dx.tolist())]
    if symmetrize:
        argv.append("--symmetrize")
    return Request("", argv, {"kind": "exp", "mean": mean, "cov": cov, "dx": dx,
                              "order": order, "symmetrized": symmetrize})


def _bell_request(n, k) -> Request:
    return Request("", ["bell", "--n", str(n), "--k", str(k)],
                   {"kind": "bell", "n": n, "k": k})


def _verify_request(seed: int, cycle: int, suite: str) -> Request:
    suite_seed = seed * 1000 + cycle + 1
    return Request("", ["verify", "--suite", suite, "--seed", str(suite_seed)],
                   {"kind": "verify", "seed": suite_seed, "suite": suite})
