import math
import re

import numpy as np
import pytest

from entroprec import core
from entroprec import (
    DegenerateSupportWarning,
    DensityMatrix,
    Observable,
    partial_trace,
    relative_entropy,
    spectral_decomposition,
    tensor_product,
    von_neumann_entropy,
)
from conftest import random_density, random_unitary

RHO0_DIAG = np.array([6, 9, 4, 6]) / 25


class TestTensorProduct:
    def test_identity(self):
        assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_ordering(self):
        # X x X maps |00> to |11>: the first factor is most significant
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        e00 = np.zeros(4)
        e00[0] = 1.0
        out = tensor_product(x, x) @ e00
        assert np.allclose(out, [0, 0, 0, 1])

    def test_rho0_factorisation(self):
        marg_a = np.diag([3 / 5, 2 / 5]).astype(complex)
        marg_b = np.diag([2 / 5, 3 / 5]).astype(complex)
        # independent Kronecker oracle: explicit index loop
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + j, 2 * k + l] = marg_a[i, k] * marg_b[j, l]
        assert np.allclose(tensor_product(marg_a, marg_b), expected)
        assert np.allclose(np.diag(expected).real, RHO0_DIAG)

    def test_matches_kron_bit_for_bit(self, rng):
        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for a, b in ((draw(2, 2), draw(3, 3)), (draw(2, 3), draw(4, 1))):
            assert np.array_equal(tensor_product(a, b), np.kron(a, b))

    def test_stacks_multiply_slice_by_slice(self, rng):
        stack = (rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))).astype(
            np.clongdouble
        )
        other = rng.standard_normal((3, 3))
        left, right = tensor_product(stack, other), tensor_product(other, stack)
        assert left.shape == right.shape == (5, 6, 6) and left.dtype == complex
        for k, m in enumerate(stack.astype(complex)):
            assert np.array_equal(left[k], np.kron(m, other))
            assert np.array_equal(right[k], np.kron(other, m))


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        joint = DensityMatrix(tensor_product(rho_a, rho_b), partition=(2, 3))
        assert np.max(np.abs(partial_trace(joint, "A").data - rho_a.data)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, "B").data - rho_b.data)) <= 1e-12

    def test_maximally_entangled(self):
        bell = DensityMatrix.pure(np.array([1, 0, 0, 1]) / np.sqrt(2), partition=(2, 2))
        assert np.allclose(partial_trace(bell, "A").data, np.eye(2) / 2)

    def test_rho0_marginals(self):
        rho0 = DensityMatrix.from_diagonal(RHO0_DIAG, partition=(2, 2))
        # index-summation oracle
        blocks = rho0.data.reshape(2, 2, 2, 2)
        by_hand = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                by_hand[i, k] = sum(blocks[i, j, k, j] for j in range(2))
        assert np.allclose(by_hand, np.diag([15 / 25, 10 / 25]))
        assert np.allclose(partial_trace(rho0, "A").data, by_hand)

    def test_requires_partition(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(ValueError, match="partition"):
            partial_trace(rho, "A")


    @pytest.mark.parametrize("keep", ["C", 2, "AB"])
    def test_rejects_unknown_factor(self, keep):
        rho = DensityMatrix.maximally_mixed(4, partition=(2, 2))
        with pytest.raises(ValueError, match="keep must be 'A' or 'B'"):
            partial_trace(rho, keep)

class TestVonNeumannEntropy:
    def test_pure_state(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert von_neumann_entropy(DensityMatrix.pure(v)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(math.log(2))

    def test_rho0(self):
        expected = -sum(p * math.log(p) for p in RHO0_DIAG)
        assert von_neumann_entropy(DensityMatrix.from_diagonal(RHO0_DIAG)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_density(4, rng)
            u = random_unitary(4, rng)
            rotated = u @ rho.data @ u.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


class TestRelativeEntropy:
    def test_self(self, rng):
        rho = random_density(3, rng)
        assert abs(relative_entropy(rho, rho)) <= 1e-12

    def test_pure_vs_mixed(self):
        assert relative_entropy(
            DensityMatrix.from_diagonal([1.0, 0.0]), DensityMatrix.maximally_mixed(2)
        ) == pytest.approx(math.log(2), abs=1e-12)

    def test_scalar_formula(self):
        nu = DensityMatrix.from_diagonal([0.5, 0.5])
        mu = DensityMatrix.from_diagonal([0.9, 0.1])
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert relative_entropy(nu, mu) == pytest.approx(expected, abs=1e-12)

    def test_support_violation(self):
        nu = DensityMatrix.maximally_mixed(2)
        mu = DensityMatrix.from_diagonal([1.0, 0.0])
        with pytest.warns(DegenerateSupportWarning):
            assert relative_entropy(nu, mu) == math.inf

    def test_klein_inequality(self, rng):
        for _ in range(25):
            nu = random_density(3, rng)
            mu = random_density(3, rng)
            s = relative_entropy(nu, mu)
            assert s >= -1e-12
            close = np.max(np.abs(nu.data - mu.data)) <= 1e-10
            assert (s <= 1e-10) == close


# Neighbours sit 0.6e-10 apart, inside CLUSTER_TOL, but the last value lies
# 1.2e-10 from the first: a cluster is anchored at its first value, so the
# spectrum splits into {0, 1} and {2} instead of chaining into one cluster.
ANCHORED_SPECTRUM = np.array([1.0, 1.0 - 0.6e-10, 1.0 - 1.2e-10])


class TestSpectralDecomposition:
    def test_reconstruction_and_order(self, rng):
        for _ in range(10):
            m = random_density(5, rng).data
            dec = spectral_decomposition(m)
            assert np.max(np.abs(dec.reconstruct() - m)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_deterministic_on_degeneracy(self):
        m = np.diag([0.5, 0.25, 0.25]).astype(complex)
        a = spectral_decomposition(m)
        b = spectral_decomposition(m)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_clusters_anchor_at_their_first_value(self):
        assert list(core._clusters(ANCHORED_SPECTRUM)) == [slice(0, 2), slice(2, 3)]
        # within {0, 1} the unit vectors are put in lexicographic order; one
        # cluster of all three would have ordered them (e_2, e_1, e_0)
        dec = spectral_decomposition(np.diag(ANCHORED_SPECTRUM).astype(complex))
        assert np.array_equal(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 0, 2]])
        obs = Observable.from_matrix(np.diag(ANCHORED_SPECTRUM))
        ranks = [round(np.trace(p).real) for p in obs.projectors]
        assert ranks == [2, 1]
        assert np.array_equal(obs.projectors[0], np.diag([1.0, 1.0, 0.0]))


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(np.ones(shape) / 2)

    @pytest.mark.parametrize(
        "vector",
        [np.zeros(4), np.array([1.0, np.nan]), np.array([np.inf, 0.0]), np.eye(2), np.zeros(0)],
        ids=["zero", "nan", "inf", "2-D", "empty"],
    )
    def test_pure_rejects_bad_vectors(self, vector):
        # refused before the normalisation, which would divide by zero or nan
        with pytest.raises(ValueError, match="^pure state must be a nonzero 1-D vector of finite entries$"):
            DensityMatrix.pure(vector)

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError, match="partition"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, partition=(3, 2))

    def test_random_states_valid(self, rng):
        for _ in range(20):
            rho = random_density(4, rng)
            assert abs(np.trace(rho.data).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho.data)[0] >= -1e-10


class TestObservable:
    def test_computational(self):
        obs = Observable.computational(3)
        assert obs.n_outcomes == 3
        assert np.allclose(obs.matrix(), np.diag([0.0, 1.0, 2.0]))

    def test_rejects_non_orthogonal(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            Observable((0.0, 1.0), (p, q))

    def test_rejects_incomplete(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="identity"):
            Observable((0.0,), (p,))

    def test_rejects_repeated_eigenvalues(self):
        obs = Observable.computational(2)
        with pytest.raises(ValueError, match="distinct"):
            Observable((1.0, 1.0), obs.projectors)

    def test_projectors_are_one_read_only_stack(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        obs = Observable((0.0, 1.0), [p, np.eye(2) - p])
        assert obs.projectors.shape == (2, 2, 2) and obs.projectors.dtype == complex
        assert not obs.projectors.flags.writeable
        assert p.flags.writeable  # the caller's matrices are copied, not frozen
        for make in (Observable.computational, lambda d: Observable.from_matrix(np.eye(d))):
            assert not make(3).projectors.flags.writeable

    P0 = np.diag([1.0, 0.0]).astype(complex)
    P1 = np.diag([0.0, 1.0]).astype(complex)
    TILTED = np.full((2, 2), 0.5, dtype=complex)

    @pytest.mark.parametrize(
        "eigenvalues, projectors, message",
        [
            ((0.0,), (P0, P1), "one projector per eigenvalue required"),
            ((1.0, 1.0), (P0, P1), "eigenvalues must be distinct"),
            ((0.0, 1.0), (P0, np.eye(3)), "projectors must share one dimension"),
            ((0.0,), (np.ones((2, 3)),), "projectors must share one dimension"),
            ((0.0, math.nan), (P0, P1), "eigenvalues must be finite"),
            ((0.0, 1.0), (P0, np.full((2, 2), math.nan)), "projectors must be finite"),
            ((0.0, 1.0), (P0, np.diag([0.0, 1.0 + 1e-6j])), "projector 1 not Hermitian"),
            ((0.0, 1.0), (P0, TILTED), "projectors 0,1 not orthogonal/idempotent"),
            ((0.0, 1.0), (2 * P0, P1), "projectors 0,0 not orthogonal/idempotent"),
            ((0.0,), (P0,), "projectors do not resolve the identity"),
        ],
    )
    def test_each_fault_keeps_its_message(self, eigenvalues, projectors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Observable(eigenvalues, projectors)

    def test_from_matrix_clusters_degenerate(self):
        m = np.diag([1.0, 1.0, 2.0]).astype(complex)
        obs = Observable.from_matrix(m)
        assert obs.n_outcomes == 2
        ranks = sorted(round(np.trace(p).real) for p in obs.projectors)
        assert ranks == [1, 2]
        assert not obs.is_rank_one

    def test_from_basis(self, rng):
        u = random_unitary(3, rng)
        obs = Observable.from_basis(u)
        assert obs.n_outcomes == 3
        assert obs.is_rank_one
        for i, p in enumerate(obs.projectors):
            assert np.max(np.abs(p - np.outer(u[:, i], u[:, i].conj()))) <= 1e-12

    def test_tensor(self):
        qubit = Observable.computational(2)
        joint = qubit.tensor(qubit)
        assert joint.n_outcomes == 4
        assert joint.dim == 4
        assert np.allclose(sum(joint.projectors), np.eye(4))

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_tensor_projectors_are_kron_bit_for_bit(self, rng, dims):
        a, b = (Observable.from_basis(random_unitary(d, rng)) for d in dims)
        joint = a.tensor(b)
        assert joint.eigenvalues == tuple(float(k) for k in range(dims[0] * dims[1]))
        for i, p in enumerate(a.projectors):
            for j, q in enumerate(b.projectors):
                assert np.array_equal(joint.projectors[i * b.n_outcomes + j], np.kron(p, q))
