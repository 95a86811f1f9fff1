import math

import numpy as np
import pytest

from sloccflow.canonical import (
    FOUR_QUBIT_FAMILY_NAMES,
    acin_form,
    antisym_canonical,
    four_qubit_family,
    four_qubit_family_parts,
    gabcd,
    gabcd_span_distance,
    schmidt,
    takagi,
)
from sloccflow.errors import (
    ConvergenceFailure,
    NotAntisymmetric,
    NotSymmetric,
    SectorMismatch,
    ShapeMismatch,
    UnknownFamily,
    ZeroState,
)
from sloccflow.momentum import mu_norm_sq, reduced_density
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    apply_local,
    bosonic,
    distinguishable,
    fermionic,
    normalize,
    random_state,
)

from conftest import haar_unitary, qubits


class TestSchmidt:
    def test_bell(self, bell):
        form = schmidt(bell)
        assert np.allclose(form.coefficients, [1 / math.sqrt(2)] * 2)

    def test_product(self):
        form = schmidt(qubits([1, 0, 0, 0], 2))
        assert np.allclose(form.coefficients, [1, 0])

    def test_rank_two_weights(self):
        form = schmidt(qubits([2, 0, 0, 1], 2))
        assert np.allclose(
            form.coefficients, [2 / math.sqrt(5), 1 / math.sqrt(5)]
        )

    def test_reconstruction(self, rng):
        N = 4
        v = random_state(distinguishable(2, N), rng)
        form = schmidt(v)
        out = apply_local(
            [LocalOperator(p, u) for p, u in enumerate(form.local_unitaries)], v
        )
        target = np.zeros(N * N, dtype=complex)
        for i, c in enumerate(form.coefficients):
            target[i * N + i] = c
        assert np.max(np.abs(out.amplitudes - target)) < 1e-10

    def test_unitary_invariance(self, rng):
        v = random_state(distinguishable(2, 3), rng)
        ops = [LocalOperator(p, haar_unitary(rng, 3)) for p in range(2)]
        a = schmidt(v).coefficients
        b = schmidt(apply_local(ops, v)).coefficients
        assert np.max(np.abs(a - b)) < 1e-10

    def test_requires_bipartite(self, w3):
        with pytest.raises(SectorMismatch):
            schmidt(w3)


class TestTakagi:
    def test_diagonal(self):
        U, a = takagi(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(a, [3, 1])
        assert np.max(np.abs(U @ np.diag([3.0, 1.0]) @ U.T - np.diag(a))) < 1e-12

    def test_offdiagonal_degenerate(self):
        M = np.array([[0, 1], [1, 0]], dtype=complex)
        U, a = takagi(M)
        assert np.allclose(a, [1, 1])
        assert np.max(np.abs(U @ M @ U.T - np.diag(a))) < 1e-10

    def test_random_property(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            if trial % 5 == 0:
                # Force a degenerate singular spectrum.
                U0 = haar_unitary(rng, n)
                M = U0 @ np.diag([1.5] * (n // 2) + [0.5] * (n - n // 2)) @ U0.T
            U, a = takagi(M)
            assert np.max(np.abs(U @ M @ U.T - np.diag(a))) < 1e-9
            assert np.all(a >= -1e-12) and np.all(np.diff(a) <= 1e-12)
            assert np.max(np.abs(U @ U.conj().T - np.eye(n))) < 1e-10

    def test_two_boson_coefficient_matrix(self, rng):
        # A two-boson state is a symmetric matrix; its congruence normal
        # form matches the reduced-density spectrum.
        N = 3
        v = random_state(bosonic(2, N), rng)
        M = v.to_tensor()
        _, a = takagi(M)
        rho_spec = np.sort(np.linalg.eigvalsh(reduced_density(v)))[::-1]
        assert np.allclose(a**2, rho_spec, atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0, 1], [0, 0]], dtype=complex))


class TestAntisymCanonical:
    def test_basic_pair(self):
        M = np.array([[0, 1], [-1, 0]], dtype=complex)
        U, a = antisym_canonical(M)
        assert np.allclose(a, [1.0])
        assert np.max(np.abs(U @ M @ U.T - M)) < 1e-10

    def test_pairs_match_singular_values(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = 0.5 * (M - M.T)
            U, a = antisym_canonical(M)
            out = U @ M @ U.T
            target = np.zeros((n, n), dtype=complex)
            for b, s in enumerate(a):
                target[2 * b, 2 * b + 1] = s
                target[2 * b + 1, 2 * b] = -s
            assert np.max(np.abs(out - target)) < 1e-9
            singular = np.linalg.svd(M, compute_uv=False)
            assert np.allclose(a, singular[::2][: len(a)], atol=1e-9)

    def test_two_fermion_state(self, rng):
        v = random_state(fermionic(2, 4), rng)
        M = v.to_tensor()
        U, a = antisym_canonical(math.sqrt(2.0) * M)
        rho_spec = np.sort(np.linalg.eigvalsh(reduced_density(v)))[::-1]
        assert np.allclose(np.repeat(a**2, 2) / 2.0, rho_spec, atol=1e-10)

    def test_rejects_symmetric(self):
        with pytest.raises(NotAntisymmetric):
            antisym_canonical(np.eye(2, dtype=complex))


class TestAcinForm:
    def test_ghz(self, ghz3):
        form = acin_form(ghz3)
        assert max(form.p, form.q, form.r) < 1e-9
        assert abs(form.s - 1 / math.sqrt(2)) < 1e-8
        assert abs(abs(form.z) - 1 / math.sqrt(2)) < 1e-8

    def test_already_normal_even_weight(self):
        v1 = qubits([1, 0, 0, 1, 0, 1, 1, 0], 3)
        form = acin_form(v1)
        assert abs(form.s) < 1e-8
        for value in (form.p, form.q, form.r, abs(form.z)):
            assert abs(value - 0.5) < 1e-8

    def test_random_states_reduced(self, rng):
        for seed in range(4):
            v = random_state(distinguishable(3, 2), rng)
            form = acin_form(v, seed=seed)
            out = apply_local(
                [LocalOperator(p, u) for p, u in enumerate(form.unitaries)], v
            )
            amps = out.amplitudes
            assert max(abs(amps[0b001]), abs(amps[0b010]), abs(amps[0b100])) < 1e-9
            assert np.max(np.abs(amps - form.amplitudes())) < 1e-8
            assert min(form.p, form.q, form.r, form.s) > -1e-10

    def test_requires_three_qubits(self, bell):
        with pytest.raises(SectorMismatch):
            acin_form(bell)

    @pytest.mark.parametrize(
        "amps",
        [
            [0, 1, 1, 0, 1, 0, 0, 0],  # W
            [0, 0, 0, 1, 0, 1, 1, 0],  # |011> + |101> + |110>
            [0, 0, 0, 0, 0, 0, 0, 1],  # |111>
            [1, 0, 0, 1, 0, 0, 0, 0],  # |0> (x) Bell
        ],
        ids=["w", "weight-two", "111", "zero-bell"],
    )
    def test_special_states_reduced(self, amps):
        v = qubits(amps, 3)
        form = acin_form(v)
        out = apply_local(
            [LocalOperator(p, u) for p, u in enumerate(form.unitaries)], v
        ).amplitudes
        assert max(abs(out[0b001]), abs(out[0b010]), abs(out[0b100])) < 1e-12
        assert np.max(np.abs(out - form.amplitudes())) < 1e-8
        assert min(form.p, form.q, form.r, form.s) >= 0.0

    def test_convergence_failure(self, rng):
        # One sweep per start cannot bring a generic state's weight-one
        # entries down to the residual target.
        v = random_state(distinguishable(3, 2), rng)
        with pytest.raises(ConvergenceFailure):
            acin_form(v, restarts=2, max_iterations=1)


class TestGabcd:
    def test_basis_vector_is_ghz4(self):
        v = gabcd(np.array([1.0, 0, 0, 0]))
        assert abs(abs(v.amplitudes[0]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(v.amplitudes[15]) - 1 / math.sqrt(2)) < 1e-12
        assert mu_norm_sq(v) < 1e-14

    def test_momentum_zero(self, rng):
        for _ in range(20):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert mu_norm_sq(gabcd(coeffs)) < 1e-12

    def test_unnormalized_input(self):
        v = gabcd(np.array([1.0, 1.0, 1.0, 1.0]))
        assert abs(v.norm - 1.0) < 1e-14
        assert mu_norm_sq(v) < 1e-14

    def test_zero_coefficients(self):
        with pytest.raises(ZeroState):
            gabcd(np.zeros(4))
        with pytest.raises(ShapeMismatch):
            gabcd(np.ones(3))

    def test_span_distance(self):
        inside = gabcd(np.array([0.3, 0.5, 0.1, 0.7]))
        assert gabcd_span_distance(inside) < 1e-12
        outside = normalize(
            PureState(inside.sector, np.eye(16)[1].astype(complex))
        )
        assert gabcd_span_distance(outside) > 0.9


class TestFourQubitFamilies:
    def test_names(self):
        assert set(FOUR_QUBIT_FAMILY_NAMES) == {
            "L_abc2", "L_a2b2", "L_ab3", "L_a4", "L_a2_0",
        }

    def test_l_abc2_layout(self):
        v, w, pattern = four_qubit_family_parts("L_abc2", (1.0, 1.0, 1.0))
        assert w[0b0110] == 1.0
        assert v[0b0000] == v[0b1111] == 1.0
        assert v[0b0101] == v[0b1010] == 1.0
        assert v[0b0011] == v[0b1100] == 0.0
        assert len(pattern) == 4 and sum(pattern) == 0

    def test_l_a2_0_layout(self):
        v, w, _ = four_qubit_family_parts("L_a2_0", (1.0,))
        assert v[0b0000] == v[0b1111] == 1.0
        assert w[0b0011] == w[0b0101] == w[0b0110] == 1.0

    def test_transverse_weights_negative(self):
        # The subgroup fixes the span component and contracts the rest.
        for name, params in [
            ("L_abc2", (1.0, 1.0, 1.0)),
            ("L_a2b2", (1.0, 1.0)),
            ("L_ab3", (1.0, 1.0)),
            ("L_a4", (1.0,)),
            ("L_a2_0", (1.0,)),
        ]:
            v, w, pattern = four_qubit_family_parts(name, params)
            for idx in range(16):
                bits = [(idx >> (3 - p)) & 1 for p in range(4)]
                weight = sum(
                    s * (1 if b == 0 else -1) for s, b in zip(pattern, bits)
                )
                if abs(v[idx]) > 0:
                    assert weight == 0
                if abs(w[idx]) > 0:
                    assert weight < 0

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            four_qubit_family("L_bogus", (1.0,))
        with pytest.raises(UnknownFamily):
            four_qubit_family("L_a4", (1.0, 2.0))
