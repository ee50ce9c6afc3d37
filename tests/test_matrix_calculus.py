import numpy as np
import pytest

from bellkron import (
    BlackBoxFn,
    PolyFn,
    Symmetrizer,
    commutation_matrix,
    dense_materialize,
    exp_scalar_jet,
    finite_diff_jet,
    identity_poly,
    kron_chain_derivative,
    kron_power,
    poly_jet,
    ray_derivative,
    symmetrize_rows,
)
from conftest import random_poly, rel_gap


def as_blackbox(p: PolyFn) -> BlackBoxFn:
    return BlackBoxFn(p.n_x, p.n_y, p.evaluate)


# ---------------------------------------------------------------------------
# PolyFn basics


def test_polyfn_merges_duplicate_monomials():
    p = PolyFn(2, 1, [[(1.0, (1, 0)), (2.0, (1, 0)), (0.5, (0, 2))]])
    assert p.components[0] == (((0, 2), 0.5), ((1, 0), 3.0))


def test_polyfn_drops_zero_coefficients():
    p = PolyFn(1, 1, [[(1.0, (2,)), (-1.0, (2,))]])
    assert p.components[0] == ()


def test_polyfn_validates_exponents():
    with pytest.raises(ValueError):
        PolyFn(2, 1, [[(1.0, (1,))]])
    with pytest.raises(ValueError):
        PolyFn(1, 1, [[(1.0, (-1,))]])


def test_polyfn_differentiate_and_evaluate():
    # p(x) = 3 x0^2 x1; dp/dx0 = 6 x0 x1
    p = PolyFn(2, 1, [[(3.0, (2, 1))]])
    d = p.differentiate(0)
    assert d.components[0] == (((1, 1), 6.0),)
    assert d.evaluate([2.0, 5.0])[0] == 60.0


def test_polyfn_json_round_trip():
    p = PolyFn(2, 2, [[(1.5, (2, 0))], [(-1.0, (0, 1)), (2.0, (1, 1))]])
    again = PolyFn.from_json_dict(p.to_json_dict())
    assert again.components == p.components


# ---------------------------------------------------------------------------
# poly_jet


def test_identity_jet(rng):
    p = identity_poly(3)
    jet = poly_jet(p, rng.uniform(-1, 1, 3), 3)
    assert np.array_equal(jet.matrix(1), np.eye(3))
    assert not jet.matrix(2).any()
    assert not jet.matrix(3).any()


def test_quadratic_form_second_derivative_row(rng):
    # f(x) = a' (x (x) x) / 2 has the averaged second-derivative row.
    a = rng.uniform(-2, 2, 4)
    p = PolyFn(2, 1, [[(0.5 * a[0], (2, 0)), (0.5 * a[1], (1, 1)),
                       (0.5 * a[2], (1, 1)), (0.5 * a[3], (0, 2))]])
    jet = poly_jet(p, rng.uniform(-1, 1, 2), 2)
    mid = (a[1] + a[2]) / 2.0
    assert np.max(np.abs(jet.matrix(2) - np.array([[a[0], mid, mid, a[3]]]))) < 1e-14


def test_mgf_exponent_jet_at_zero():
    mu = np.array([0.7, -1.2])
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    monos = [(mu[i], tuple(1 if j == i else 0 for j in range(2))) for i in range(2)]
    monos += [(0.5 * sigma[i, j], tuple((a == i) + (a == j) for a in range(2)))
              for i in range(2) for j in range(2)]
    p = PolyFn(2, 1, [monos])
    jet = poly_jet(p, np.zeros(2), 3)
    assert np.array_equal(jet.matrix(1), mu.reshape(1, 2))
    assert np.array_equal(jet.matrix(2), sigma.reshape(1, 4))
    assert not jet.matrix(3).any()


def test_poly_jet_schwarz_symmetry(rng):
    for _ in range(5):
        p = random_poly(rng, 3, 2, degree=4)
        jet = poly_jet(p, rng.uniform(-1, 1, 3), 3)
        for order in (2, 3):
            mat = jet.matrix(order)
            sym = symmetrize_rows(Symmetrizer(3, order), mat)
            assert rel_gap(sym, mat) < 1e-12
            for row, sym_row in zip(mat, sym):
                assert np.array_equal(sym_row, symmetrize_rows(Symmetrizer(3, order), row))


# ---------------------------------------------------------------------------
# exp jet


def test_exp_jet_at_zero():
    jet = exp_scalar_jet(0.0, 4)
    assert jet.value[0] == 1.0
    assert len(jet.matrices) == 4
    assert all(m.shape == (1, 1) and m[0, 0] == 1.0 for m in jet.matrices)


def test_exp_jet_at_one():
    jet = exp_scalar_jet(1.0, 3)
    assert all(abs(m[0, 0] - np.e) < 1e-15 for m in jet.matrices)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_linear_function(rng):
    a = rng.uniform(-2, 2, (2, 3))
    f = BlackBoxFn(3, 2, lambda x: a @ x)
    jet = finite_diff_jet(f, rng.uniform(-1, 1, 3), 2)
    assert np.max(np.abs(jet.matrix(1) - a)) < 1e-9
    assert np.max(np.abs(jet.matrix(2))) < 1e-6


def test_finite_diff_matches_poly_jet(rng):
    # Degree <= 3 keeps the O(step^2) truncation term identically zero at
    # orders <= 3, so the stencils are exact up to rounding.
    for _ in range(3):
        p = random_poly(rng, 2, 2, degree=3)
        x = rng.uniform(-0.5, 0.5, 2)
        exact = poly_jet(p, x, 3)
        approx = finite_diff_jet(as_blackbox(p), x, 3)
        for order in (1, 2, 3):
            assert rel_gap(approx.matrix(order), exact.matrix(order)) < 1e-5


def test_finite_diff_degree_four_within_truncation_bound(rng):
    # With nonvanishing fourth derivatives the order-2 stencil carries its
    # step^2/6 truncation term, about 1.7e-5 per unit of fourth derivative.
    for _ in range(3):
        p = random_poly(rng, 2, 2, degree=4)
        x = rng.uniform(-0.5, 0.5, 2)
        exact = poly_jet(p, x, 3)
        approx = finite_diff_jet(as_blackbox(p), x, 3)
        for order in (1, 2, 3):
            assert rel_gap(approx.matrix(order), exact.matrix(order)) < 1e-4


def test_finite_diff_constant_function():
    f = BlackBoxFn(2, 1, lambda x: np.array([42.0]))
    jet = finite_diff_jet(f, np.zeros(2), 3)
    for order in (1, 2, 3):
        assert np.max(np.abs(jet.matrix(order))) < 1e-8


def test_finite_diff_rejects_nonfinite_and_high_order():
    bad = BlackBoxFn(1, 1, lambda x: np.array([np.inf]))
    with pytest.raises(ValueError):
        finite_diff_jet(bad, [0.0], 1)
    ok = BlackBoxFn(1, 1, lambda x: x)
    with pytest.raises(ValueError):
        finite_diff_jet(ok, [0.0], 5)


# ---------------------------------------------------------------------------
# Kronecker chain derivative


def poly_factor(rng, rows, cols, n_x):
    """A matrix of random polynomials with its value and derivative at x."""
    entries = [[random_poly(rng, n_x, 1, degree=2, terms=3) for _ in range(cols)]
               for _ in range(rows)]

    def value(x):
        return np.array([[entries[i][j].evaluate(x)[0] for j in range(cols)]
                         for i in range(rows)])

    def derivative(x):
        out = np.empty((rows, cols * n_x))
        for i in range(rows):
            for j in range(cols):
                for v in range(n_x):
                    out[i, j * n_x + v] = entries[i][j].differentiate(v).evaluate(x)[0]
        return out

    return value, derivative


def test_chain_derivative_single_factor(rng):
    value, derivative = poly_factor(rng, 2, 2, 2)
    x = rng.uniform(-0.5, 0.5, 2)
    assert np.array_equal(kron_chain_derivative([(value(x), derivative(x))]),
                          derivative(x))


def test_chain_derivative_constant_factors():
    a = np.ones((2, 2))
    da = np.zeros((2, 4))
    assert not kron_chain_derivative([(a, da), (a, da)]).any()


def test_chain_derivative_matches_finite_differences(rng):
    for factor_count in (2, 3):
        n_x = 2
        factories = [poly_factor(rng, 2, 2, n_x) for _ in range(factor_count)]
        x = rng.uniform(-0.4, 0.4, n_x)

        def chain_at(point):
            out = factories[0][0](point)
            for value, _ in factories[1:]:
                out = np.kron(out, value(point))
            return out

        got = kron_chain_derivative([(value(x), deriv(x)) for value, deriv in factories])
        h = 1e-6
        base = chain_at(x)
        fd = np.empty_like(got)
        for v in range(n_x):
            e = np.zeros(n_x)
            e[v] = h
            dmat = (chain_at(x + e) - chain_at(x - e)) / (2 * h)
            for col in range(base.shape[1]):
                fd[:, col * n_x + v] = dmat[:, col]
        assert rel_gap(got, fd) < 1e-5


def test_chain_derivative_two_factor_rule_exact(rng):
    # Equivalent closed form: F (x) dH + (dF (x) H)(I (x) K).
    n_x = 2
    (f_val, f_der), (h_val, h_der) = poly_factor(rng, 2, 3, n_x), poly_factor(rng, 3, 2, n_x)
    x = rng.uniform(-0.5, 0.5, n_x)
    F, dF, H, dH = f_val(x), f_der(x), h_val(x), h_der(x)
    got = kron_chain_derivative([(F, dF), (H, dH)])
    t, q = F.shape[1], H.shape[1]
    swap = dense_materialize(commutation_matrix(q, n_x))
    explicit = np.kron(F, dH) + np.kron(dF, H) @ np.kron(np.eye(t), swap)
    assert np.max(np.abs(got - explicit)) < 1e-12


def test_chain_derivative_rejects_mismatched_nx():
    a = np.ones((1, 2))
    with pytest.raises(ValueError):
        kron_chain_derivative([(a, np.ones((1, 4))), (a, np.ones((1, 6)))])


# ---------------------------------------------------------------------------
# directional consistency


def test_jet_differential_matches_ray_derivative(rng):
    # The order-k differential along dx equals the k-th derivative of the ray.
    for k in (1, 2, 3):
        p = random_poly(rng, 2, 2, degree=k + 1)
        x = rng.uniform(-0.5, 0.5, 2)
        dx = rng.uniform(-1, 1, 2)
        jet = poly_jet(p, x, k)
        predicted = (jet.matrix(k) @ kron_power(dx.reshape(-1, 1), k)).reshape(-1)
        observed = ray_derivative(as_blackbox(p), x, dx, k, step=1e-2)
        assert rel_gap(predicted, observed) < 1e-8
