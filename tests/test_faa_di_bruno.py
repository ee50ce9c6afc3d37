import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkron import (
    BlackBoxFn,
    GaussianSpec,
    Jet,
    PolyFn,
    apply_differential,
    bell_multivariate,
    compose_poly,
    directional_taylor_check,
    exp_scalar_jet,
    faa_symmetrized,
    faa_total_derivative,
    faa_univariate,
    identity_poly,
    kron,
    mgf_exponent_poly,
    poly_jet,
)
from conftest import random_jet, random_poly, rel_gap


def composed_blackbox(f: PolyFn, g: PolyFn) -> BlackBoxFn:
    return BlackBoxFn(g.n_x, f.n_y, lambda x: f.evaluate(g.evaluate(x)))


# ---------------------------------------------------------------------------
# univariate formula


def test_faa_univariate_order_one_is_chain_rule(rng):
    fp, gp = rng.uniform(-2, 2, 2)
    assert faa_univariate(1, [fp], [gp]) == fp * gp


def test_faa_univariate_order_two_expansion(rng):
    f1, f2 = rng.uniform(-2, 2, 2)
    g1, g2 = rng.uniform(-2, 2, 2)
    expected = f2 * g1 ** 2 + f1 * g2
    assert abs(faa_univariate(2, [f1, f2], [g1, g2]) - expected) < 1e-13


def test_faa_univariate_identity_outer_recovers_inner(rng):
    g = rng.uniform(-2, 2, 5)
    f = [1.0, 0.0, 0.0, 0.0, 0.0]
    for n in range(1, 6):
        assert abs(faa_univariate(n, f, g) - g[n - 1]) < 1e-13


def test_faa_univariate_needs_enough_derivatives():
    with pytest.raises(ValueError):
        faa_univariate(3, [1.0, 1.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# multivariate total derivative


def test_order_one_is_the_matrix_chain_rule(rng):
    g = random_jet(rng, 3, 2, 1)
    f = random_jet(rng, 2, 2, 1)
    d = faa_total_derivative(1, f, g)
    assert np.max(np.abs(d.matrix - f.matrix(1) @ g.matrix(1))) < 1e-14


def test_scalar_pipeline_reduces_to_univariate(rng):
    f_vals = rng.uniform(-1, 1, 5)
    g_vals = rng.uniform(-1, 1, 5)
    f = Jet(1, 1, [0.0], tuple(np.array([[v]]) for v in f_vals))
    g = Jet(1, 1, [0.0], tuple(np.array([[v]]) for v in g_vals))
    for n in range(1, 6):
        got = faa_total_derivative(n, f, g).matrix[0, 0]
        expected = faa_univariate(n, f_vals, g_vals)
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))


def test_centered_fourth_derivative_of_normal_mgf():
    # exp after the centered quadratic at t = 0 gives 3 vec(Sigma)'^{(x)2}.
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = GaussianSpec(2, np.zeros(2), sigma)
    g_jet = poly_jet(mgf_exponent_poly(spec), np.zeros(2), 4)
    f_jet = exp_scalar_jet(0.0, 4)
    d = faa_total_derivative(4, f_jet, g_jet)
    vec_row = sigma.reshape(1, 4)
    assert np.max(np.abs(d.matrix - 3.0 * kron(vec_row, vec_row))) < 1e-12


def test_dimension_mismatch_rejected(rng):
    f = random_jet(rng, 3, 1, 2)
    g = random_jet(rng, 2, 2, 2)
    with pytest.raises(ValueError, match="mismatch"):
        faa_total_derivative(2, f, g)


def test_shape_law(rng):
    for n in range(1, 5):
        g = random_jet(rng, 2, 3, n)
        f = random_jet(rng, 3, 2, n)
        d = faa_total_derivative(n, f, g)
        assert d.matrix.shape == (2, 2 ** n)
        assert not d.symmetrized


def test_identity_inner_function_recovers_outer_jet(rng):
    p = identity_poly(2)
    x = rng.uniform(-1, 1, 2)
    g_jet = poly_jet(p, x, 4)
    f_jet = random_jet(rng, 2, 2, 4)
    for n in range(1, 5):
        d = faa_total_derivative(n, f_jet, g_jet)
        assert np.array_equal(d.matrix, f_jet.matrix(n))


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(1, 3), n_y=st.integers(1, 3), n_f=st.integers(1, 3),
       n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_contraction_matches_materialized_bell_sum(n_x, n_y, n_f, n, seed):
    rng = np.random.default_rng(seed)
    g = random_jet(rng, n_x, n_y, n)
    f = random_jet(rng, n_y, n_f, n)
    expected = sum(f.matrix(k) @ bell_multivariate(n, k, g) for k in range(1, n + 1))
    got = faa_total_derivative(n, f, g).matrix
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


def test_order_eight_three_by_three_fits_the_default_cap(rng):
    # B_{8,8} alone would be 6561 x 6561 (43M entries, over the 10^7 cap);
    # the contraction never holds more than the 1 x 6561 result.
    monomials = [(3, 0, 0), (1, 1, 1), (0, 2, 1), (1, 0, 2), (1, 0, 0), (0, 1, 0)]
    g = PolyFn(3, 3, [[(float(rng.uniform(-1, 1)), e) for e in monomials]
                      for _ in range(3)])
    f = PolyFn(3, 1, [[(float(rng.uniform(-1, 1)), e) for e in monomials]])
    x = rng.uniform(-0.5, 0.5, 3)
    g_jet = poly_jet(g, x, 8)
    f_jet = poly_jet(f, g_jet.value, 8)
    sym = faa_symmetrized(8, f_jet, g_jet)
    truth = poly_jet(compose_poly(f, g), x, 8).matrix(8)
    assert np.max(np.abs(truth)) > 1.0
    assert rel_gap(sym.matrix, truth) < 1e-10


# ---------------------------------------------------------------------------
# symmetrized form


def test_symmetrized_fixed_point(rng):
    # An already-symmetric derivative matrix passes through unchanged.
    p = random_poly(rng, 2, 1, degree=3)
    x = rng.uniform(-0.5, 0.5, 2)
    g_jet = poly_jet(identity_poly(2), x, 3)
    f_jet = poly_jet(p, x, 3)
    raw = faa_total_derivative(3, f_jet, g_jet)
    sym = faa_symmetrized(3, f_jet, g_jet)
    assert rel_gap(sym.matrix, raw.matrix) < 1e-13
    assert sym.symmetrized


def test_symmetrized_quadratic_row(rng):
    # Row (a1, a2, a3, a4) averages to (a1, (a2+a3)/2, (a2+a3)/2, a4).
    a = rng.uniform(-2, 2, 4)
    f = PolyFn(2, 1, [[(0.5 * a[0], (2, 0)), (0.5 * (a[1] + a[2]), (1, 1)),
                       (0.5 * a[3], (0, 2))]])
    x = rng.uniform(-1, 1, 2)
    g_jet = poly_jet(identity_poly(2), x, 2)
    f_jet = poly_jet(f, x, 2)
    sym = faa_symmetrized(2, f_jet, g_jet)
    mid = (a[1] + a[2]) / 2.0
    assert np.max(np.abs(sym.matrix - np.array([[a[0], mid, mid, a[3]]]))) < 1e-13


def test_symmetrized_matches_composed_polynomial_truth(rng):
    for _ in range(6):
        n_x = int(rng.integers(1, 4))
        n_mid = int(rng.integers(1, 4))
        n_f = int(rng.integers(1, 3))
        g = random_poly(rng, n_x, n_mid, degree=3)
        f = random_poly(rng, n_mid, n_f, degree=3)
        x = rng.uniform(-0.5, 0.5, n_x)
        truth_poly = compose_poly(f, g)
        for n in range(1, 5):
            g_jet = poly_jet(g, x, n)
            f_jet = poly_jet(f, g_jet.value, n)
            sym = faa_symmetrized(n, f_jet, g_jet)
            truth = poly_jet(truth_poly, x, n).matrix(n)
            assert rel_gap(sym.matrix, truth) < 1e-10


# ---------------------------------------------------------------------------
# differentials


def test_differential_zero_direction(rng):
    g = random_jet(rng, 2, 2, 3)
    f = random_jet(rng, 2, 1, 3)
    d = faa_total_derivative(3, f, g)
    assert np.array_equal(apply_differential(d, np.zeros(2)), np.zeros(1))


def test_differential_invariant_under_symmetrization(rng):
    g = random_jet(rng, 2, 2, 3)
    f = random_jet(rng, 2, 2, 3)
    raw = faa_total_derivative(3, f, g)
    sym = faa_symmetrized(3, f, g)
    for _ in range(100):
        dx = rng.uniform(-1, 1, 2)
        a = apply_differential(raw, dx)
        b = apply_differential(sym, dx)
        assert rel_gap(a, b) < 1e-10


def test_first_differential_along_basis_reads_jacobian_column(rng):
    g = random_jet(rng, 3, 2, 1)
    f = random_jet(rng, 2, 2, 1)
    d = faa_total_derivative(1, f, g)
    jacobian = f.matrix(1) @ g.matrix(1)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.max(np.abs(apply_differential(d, e) - jacobian[:, i])) < 1e-14


def test_differential_length_mismatch():
    spec_jet = exp_scalar_jet(0.0, 2)
    d = faa_total_derivative(2, spec_jet, spec_jet)
    with pytest.raises(ValueError):
        apply_differential(d, [1.0, 2.0])


# ---------------------------------------------------------------------------
# end-to-end ray oracle


def test_directional_taylor_on_random_polynomials(rng):
    for _ in range(5):
        n_x = int(rng.integers(1, 4))
        n_mid = int(rng.integers(1, 4))
        g = random_poly(rng, n_x, n_mid, degree=3)
        f = random_poly(rng, n_mid, 1, degree=3)
        x = rng.uniform(-0.5, 0.5, n_x)
        dx = rng.uniform(-1, 1, n_x)
        n = int(rng.integers(1, 4))
        g_jet = poly_jet(g, x, n)
        f_jet = poly_jet(f, g_jet.value, n)
        value = apply_differential(faa_total_derivative(n, f_jet, g_jet), dx)
        residual = directional_taylor_check(composed_blackbox(f, g), x, dx, n,
                                            f_jet, g_jet)
        assert residual <= 1e-4 * (1.0 + float(np.max(np.abs(value))))


def test_directional_taylor_linear_composite_second_order(rng):
    a = rng.uniform(-1, 1, (2, 2))
    b = rng.uniform(-1, 1, (2, 2))
    g = PolyFn(2, 2, [[(a[i, 0], (1, 0)), (a[i, 1], (0, 1))] for i in range(2)])
    f = PolyFn(2, 2, [[(b[i, 0], (1, 0)), (b[i, 1], (0, 1))] for i in range(2)])
    x = rng.uniform(-1, 1, 2)
    dx = rng.uniform(-1, 1, 2)
    g_jet = poly_jet(g, x, 2)
    f_jet = poly_jet(f, g_jet.value, 2)
    residual = directional_taylor_check(composed_blackbox(f, g), x, dx, 2,
                                        f_jet, g_jet)
    assert residual < 1e-8


def test_directional_taylor_exp_of_quadratic(rng):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = GaussianSpec(2, np.zeros(2), sigma)
    g = mgf_exponent_poly(spec)
    x = np.zeros(2)
    dx = rng.uniform(-1, 1, 2)
    g_jet = poly_jet(g, x, 2)
    f_jet = exp_scalar_jet(float(g_jet.value[0]), 2)
    composite = BlackBoxFn(2, 1, lambda t: np.array([np.exp(g.evaluate(t)[0])]))
    residual = directional_taylor_check(composite, x, dx, 2, f_jet, g_jet)
    assert residual < 1e-5
