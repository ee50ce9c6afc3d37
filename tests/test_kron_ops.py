import itertools
from fractions import Fraction

import numpy as np
import pytest

from bellkron import (
    PermOperator,
    SizeCapError,
    Symmetrizer,
    apply_perm_left,
    apply_perm_right,
    commutation_matrix,
    dense_materialize,
    identity_perm,
    kron,
    kron_chain,
    kron_chain_apply,
    kron_power,
    shuffle_operator,
    symmetrize_rows,
)
from bellkron.kron_ops import (
    _orbit_groups,
    apply_perm_vector,
    composite_digits,
    composite_flat,
)


def inverse_of(sigma):
    inv = [0] * len(sigma)
    for s, t in enumerate(sigma):
        inv[t] = s
    return inv


# ---------------------------------------------------------------------------
# kron and kron_power


def test_kron_of_identities():
    assert np.array_equal(kron(np.eye(3), np.eye(4)), np.eye(12))


def test_kron_hand_expansion():
    assert np.array_equal(kron([[1.0, 2.0]], [[3.0, 4.0]]), [[3.0, 4.0, 6.0, 8.0]])


def test_kron_with_unit_factor():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(kron(a, [[1.0]]), a)


def test_kron_mixed_product_property(rng):
    a = rng.uniform(-1, 1, (2, 3))
    b = rng.uniform(-1, 1, (3, 2))
    c = rng.uniform(-1, 1, (3, 4))
    d = rng.uniform(-1, 1, (2, 5))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_size_cap_names_dimensions():
    with pytest.raises(SizeCapError, match="4 x 4"):
        kron(np.ones((2, 2)), np.ones((2, 2)), size_cap=8)


def test_kron_power_conventions(rng):
    v = rng.uniform(-1, 1, (3, 1))
    assert np.array_equal(kron_power(v, 0), [[1.0]])
    assert np.array_equal(kron_power(v, 1), v)
    col = np.array([[1.0], [2.0]])
    assert np.array_equal(kron_power(col, 2), [[1.0], [2.0], [2.0], [4.0]])


@pytest.mark.parametrize("shapes", [
    [(4, 5)],
    [(2, 3), (3, 1), (1, 4), (4, 2)],
    [(3, 2), (2, 2), (3, 1)],
])
def test_kron_chain_apply_matches_formed_chain(rng, shapes):
    # Unequal factor shapes, including columns and single-row blocks.
    mats = [rng.uniform(-1, 1, shape) for shape in shapes]
    rows = int(np.prod([m.shape[0] for m in mats]))
    left = rng.uniform(-1, 1, (3, rows))
    expected = left @ kron_chain(mats)
    got = kron_chain_apply(left, mats)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-13


def test_kron_chain_apply_caps_intermediates_not_the_chain():
    # The 9 x 9 chain is never formed; the 1 x 9 result fits a cap of 9.
    left = np.ones((1, 9))
    assert kron_chain_apply(left, [np.eye(3), np.eye(3)], size_cap=9).shape == (1, 9)
    with pytest.raises(SizeCapError, match="contraction intermediate of shape 2 x 9"):
        kron_chain_apply(np.ones((2, 9)), [np.eye(3), np.eye(3)], size_cap=17)


def test_kron_chain_apply_rejects_bad_shapes():
    with pytest.raises(ValueError, match="empty"):
        kron_chain_apply(np.ones((1, 1)), [])
    with pytest.raises(ValueError, match="columns"):
        kron_chain_apply(np.ones((1, 5)), [np.eye(2), np.eye(2)])


# ---------------------------------------------------------------------------
# commutation and shuffle operators


def test_commutation_degenerate_is_identity():
    for n in (1, 2, 5):
        assert commutation_matrix(1, n).is_identity()
        assert commutation_matrix(n, 1).is_identity()


def test_commutation_swaps_factors():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    swapped = apply_perm_vector(commutation_matrix(2, 2), np.kron(x, y))
    assert np.array_equal(swapped, np.kron(y, x))


def test_commutation_inverse_pairing():
    for m, n in [(2, 3), (3, 4), (1, 5), (4, 4)]:
        assert commutation_matrix(m, n).compose(commutation_matrix(n, m)).is_identity()


def test_commutation_transpose_relation():
    # The paired operators on the same index set arise transposed.
    for m in range(1, 7):
        for n in range(1, 7):
            lhs = dense_materialize(commutation_matrix(m, n)).T
            rhs = dense_materialize(commutation_matrix(n, m))
            assert np.array_equal(lhs, rhs)


def test_shuffle_identity_permutation():
    assert shuffle_operator([0, 1, 2], (2, 3, 4)).is_identity()


def test_shuffle_inverse_composition():
    sigma = [2, 0, 3, 1]
    dims = (2, 3, 2, 4)
    inv = inverse_of(sigma)
    forward = shuffle_operator(sigma, dims)
    backward = shuffle_operator(inv, [dims[inv[t]] for t in range(4)])
    assert backward.compose(forward).is_identity()


def test_shuffle_transposition_equals_commutation():
    for m in range(1, 5):
        for n in range(1, 5):
            assert np.array_equal(shuffle_operator([1, 0], (m, n)).perm,
                                  commutation_matrix(m, n).perm)


def test_shuffle_respects_composition(rng):
    for _ in range(20):
        m = int(rng.integers(2, 6))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(m))
        tau = list(rng.permutation(m))
        sigma = list(rng.permutation(m))
        tau_inv = inverse_of(tau)
        dims_after_tau = tuple(dims[tau_inv[t]] for t in range(m))
        combined = [sigma[tau[t]] for t in range(m)]
        lhs = shuffle_operator(sigma, dims_after_tau).compose(shuffle_operator(tau, dims))
        rhs = shuffle_operator(combined, dims)
        assert np.array_equal(lhs.perm, rhs.perm)


def test_shuffle_rejects_bad_permutation():
    with pytest.raises(ValueError):
        shuffle_operator([0, 0], (2, 2))


def test_chain_reconstruction_through_shuffles(rng):
    # Left and right shuffles turn a Kronecker chain into its reordering.
    for _ in range(15):
        m = int(rng.integers(2, 5))
        mats = [rng.uniform(-1, 1, (int(rng.integers(1, 4)), int(rng.integers(1, 4))))
                for _ in range(m)]
        sigma = list(rng.permutation(m))
        inv = inverse_of(sigma)
        rows = [a.shape[0] for a in mats]
        cols = [a.shape[1] for a in mats]
        left = shuffle_operator(sigma, rows)
        right = shuffle_operator(inv, [cols[inv[t]] for t in range(m)])
        shuffled = apply_perm_right(apply_perm_left(left, kron_chain(mats)), right)
        expected = kron_chain([mats[inv[t]] for t in range(m)])
        # products regroup across the chain, so allow a few ulps
        assert np.max(np.abs(shuffled - expected)) <= 1e-14 * (
            1.0 + np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# permutation application


def test_apply_identity_is_noop(rng):
    a = rng.uniform(-1, 1, (4, 4))
    assert np.array_equal(apply_perm_left(identity_perm(4), a), a)
    assert np.array_equal(apply_perm_right(a, identity_perm(4)), a)


def test_apply_round_trips_through_inverse(rng):
    a = rng.uniform(-1, 1, (6, 6))
    p = PermOperator(6, rng.permutation(6))
    assert np.array_equal(apply_perm_left(p.inverse(), apply_perm_left(p, a)), a)
    assert np.array_equal(apply_perm_right(apply_perm_right(a, p), p.inverse()), a)


def test_apply_matches_dense_multiplication(rng):
    a = rng.uniform(-1, 1, (4, 4))
    p = PermOperator(4, rng.permutation(4))
    dense = dense_materialize(p)
    assert np.array_equal(apply_perm_left(p, a), dense @ a)
    assert np.array_equal(apply_perm_right(a, p), a @ dense)


def test_perm_operator_validates_bijection():
    with pytest.raises(ValueError):
        PermOperator(3, np.array([0, 0, 2]))


# ---------------------------------------------------------------------------
# symmetrizer


def test_symmetrize_fixes_kron_powers(rng):
    for arity in (1, 2, 3, 4):
        x = rng.uniform(-1, 1, (1, 3))
        power = kron_power(x, arity).reshape(-1)
        out = symmetrize_rows(Symmetrizer(3, arity), power)
        assert np.max(np.abs(out - power)) < 1e-12


def test_symmetrize_average_example():
    row = np.array([1.0, 2.0, 5.0, 4.0])
    out = symmetrize_rows(Symmetrizer(2, 2), row)
    assert np.array_equal(out, [1.0, 3.5, 3.5, 4.0])


def test_dense_s22_matches_half_identity_plus_commutation():
    s = dense_materialize(Symmetrizer(2, 2))
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.array_equal(s, expected)
    half = 0.5 * (np.eye(4) + dense_materialize(commutation_matrix(2, 2)))
    assert np.array_equal(s, half)


def test_symmetrize_matches_dense_multiplication(rng):
    for dim, arity in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        s = Symmetrizer(dim, arity)
        v = rng.uniform(-1, 1, dim ** arity)
        direct = symmetrize_rows(s, v)
        via_dense = v @ dense_materialize(s)
        assert np.max(np.abs(direct - via_dense)) < 1e-13


def test_symmetrizer_idempotent_and_symmetric_exact():
    for dim in (2, 3):
        for arity in (2, 3, 4):
            s = dense_materialize(Symmetrizer(dim, arity), exact=True)
            assert np.array_equal(s, s.T)
            assert np.array_equal(s @ s, s)
            assert all(isinstance(v, Fraction) for v in s.ravel())


def test_symmetrize_equals_explicit_permutation_average(rng):
    # Oracle: literally average over every digit permutation.
    dim, arity = 3, 3
    v = rng.uniform(-1, 1, dim ** arity)
    total = np.zeros_like(v)
    count = 0
    for sigma in itertools.permutations(range(arity)):
        digits = np.unravel_index(np.arange(dim ** arity), (dim,) * arity)
        permuted = tuple(digits[sigma[t]] for t in range(arity))
        total += v[np.ravel_multi_index(permuted, (dim,) * arity)]
        count += 1
    got = symmetrize_rows(Symmetrizer(dim, arity), v)
    assert np.max(np.abs(got - total / count)) < 1e-13


def test_composite_digits_is_c_order_and_flat_inverts_it():
    for dim, order in [(1, 3), (2, 3), (3, 2), (10, 2), (3, 0), (300, 1)]:
        table = composite_digits(dim, order)
        assert table.tolist() == [list(t) for t in itertools.product(range(dim), repeat=order)]
        assert np.array_equal(composite_flat(table, dim), np.arange(dim ** order))


def test_orbit_groups_match_unique_sorted_digit_rows():
    # Reference: np.unique over the sorted digit rows themselves.
    for dim, arity in [(1, 4), (2, 3), (3, 4), (4, 3), (5, 2)]:
        digits = np.stack(np.unravel_index(np.arange(dim ** arity), (dim,) * arity), axis=1)
        _, expected = np.unique(np.sort(digits, axis=1), axis=0, return_inverse=True)
        assert np.array_equal(_orbit_groups(dim, arity), expected.reshape(-1))


def test_symmetrize_rows_matrix_is_rowwise_and_c_ordered(rng):
    s = Symmetrizer(3, 3)
    mat = rng.uniform(-1, 1, (4, 27))
    out = symmetrize_rows(s, mat)
    assert out.flags["C_CONTIGUOUS"]
    for row, out_row in zip(mat, out):
        assert np.array_equal(out_row, symmetrize_rows(s, row))
    with pytest.raises(ValueError):
        symmetrize_rows(s, mat[:, :9])
    with pytest.raises(ValueError):
        symmetrize_rows(s, mat.reshape(2, 2, 27))
    with pytest.raises(SizeCapError):
        symmetrize_rows(s, mat, size_cap=100)


def test_symmetrizer_budget_and_caps():
    with pytest.raises(ValueError, match="budget"):
        symmetrize_rows(Symmetrizer(2, 11), np.zeros(2 ** 11))
    with pytest.raises(SizeCapError):
        dense_materialize(PermOperator(5000, np.arange(5000)), dense_cap=4096)


def test_dense_identity_and_commutation():
    assert np.array_equal(dense_materialize(identity_perm(3)), np.eye(3))
    k = dense_materialize(commutation_matrix(2, 2))
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.array_equal(k, expected)
