import numpy as np
import pytest

from sloccflow.errors import NotCritical
from sloccflow.families import (
    bipartite_families,
    bipartite_rank_state,
    boson_pair_families,
    dicke_families,
    fermion_pair_families,
)
from sloccflow.momentum import momentum, mu_star_matrix
from sloccflow.morse import (
    complement_hessian_spectrum,
    hessian_fd_oracle,
    hessian_to_csv,
    morse_index,
    morse_index_fd,
    orbit_tangent_frame,
)
from sloccflow.statespace import (
    LocalOperator,
    apply_local,
    dicke,
    normalize,
)

from conftest import haar_unitary, qubits


class TestTangentFrame:
    def test_counts_fill_projective_tangent(self, w3, ghz3, bell):
        for state in (w3, ghz3, bell):
            frame = orbit_tangent_frame(state)
            orbit, complement = frame.real_counts()
            assert orbit + complement == 2 * (state.sector.dim - 1)

    @pytest.mark.parametrize("N,k", [(3, 1), (3, 2), (4, 2)])
    def test_bipartite_complement_dimension(self, N, k):
        state = bipartite_rank_state(N, k)
        frame = orbit_tangent_frame(state)
        assert frame.real_counts()[1] == 2 * (N - k) ** 2
        # Complement spanned by |m,n> for m,n beyond the occupied block.
        for col in frame.complement_complex.T:
            grid = col.reshape(N, N)
            assert np.max(np.abs(grid[:k, :])) < 1e-10
            assert np.max(np.abs(grid[:, :k])) < 1e-10

    def test_w_complement_is_third_excitation(self, w3):
        frame = orbit_tangent_frame(w3)
        C = frame.complement_complex
        assert C.shape[1] == 1
        assert abs(abs(C[7, 0]) - 1.0) < 1e-10

    def test_ghz_complement_empty(self, ghz3):
        frame = orbit_tangent_frame(ghz3)
        assert frame.complement_complex.shape[1] == 0

    def test_frames_orthonormal_and_orthogonal(self, w3):
        frame = orbit_tangent_frame(w3)
        full = np.concatenate([frame.orbit_complex, frame.complement_complex], axis=1)
        gram = full.conj().T @ full
        assert np.max(np.abs(gram - np.eye(full.shape[1]))) < 1e-10
        v = frame.base.amplitudes
        assert np.max(np.abs(v.conj() @ full)) < 1e-10


class TestMorseIndex:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_bipartite(self, N):
        for k, rec in enumerate(bipartite_families(N), start=1):
            assert rec.morse_index == 2 * (N - k) ** 2

    def test_three_qubit_values(self, w3, ghz3, sep3, b1_3):
        assert morse_index(w3) == 2
        assert morse_index(ghz3) == 0
        assert morse_index(sep3) == 8
        assert morse_index(normalize(b1_3)) == 6

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_boson_pairs(self, N):
        for k, rec in enumerate(boson_pair_families(N), start=1):
            assert rec.morse_index == (N - k) * (N - k + 1)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_fermion_pairs(self, N):
        for k, rec in enumerate(fermion_pair_families(N), start=1):
            assert rec.morse_index == (N - 2 * k) * (N - 2 * k - 1)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_dicke_second_variation_count(self, L):
        # 2(L-k-1) transverse excitation modes sit strictly above the
        # Rayleigh value; the half-filled state is minimal.
        for k, rec in enumerate(dicke_families(L)):
            expected = 0 if 2 * k == L else 2 * (L - k - 1)
            assert rec.morse_index == expected

    def test_index_zero_at_zero_level(self, ghz3, bell):
        assert morse_index(ghz3) == 0
        assert morse_index(bell) == 0

    def test_index_even(self):
        for rec in bipartite_families(4) + boson_pair_families(3) + dicke_families(5):
            assert rec.morse_index % 2 == 0

    def test_unitary_invariance(self, rng, w3):
        ops = [LocalOperator(p, haar_unitary(rng, 2)) for p in range(3)]
        assert morse_index(apply_local(ops, w3), tol=1e-8) == 2

    def test_separable_maximal(self, sep3):
        from sloccflow.critical import orbit_dimension

        dim_proj = 2 * (sep3.sector.dim - 1)
        assert morse_index(sep3) == dim_proj - orbit_dimension(sep3)

    def test_not_critical_raises(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        with pytest.raises(NotCritical):
            morse_index(v)


def _dense_complement_spectrum(state):
    """``2(eig(C^H M C) - lambda)`` with the dense momentum operator ``M``."""
    state = normalize(state)
    v = state.amplitudes
    C = orbit_tangent_frame(state).complement_complex
    M = mu_star_matrix(momentum(state), state.sector)
    lam = float(np.vdot(v, M @ v).real)
    compressed = C.conj().T @ M @ C
    return 2.0 * (np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T)) - lam)


class TestComplementSpectrum:
    def test_matrix_free_matches_dense_operator(self, w3):
        w4 = qubits([1 if bin(i).count("1") == 1 else 0 for i in range(16)], 4)
        states = (
            [w3, w4, bipartite_rank_state(4, 2)]
            + [dicke(k, 6) for k in range(4)]
            + [rec.state for rec in fermion_pair_families(4)]
        )
        assert {s.sector.kind for s in states} == {
            "distinguishable", "bosonic", "fermionic"
        }
        for state in states:
            expected = _dense_complement_spectrum(state)
            got = complement_hessian_spectrum(state)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected), initial=0.0) < 1e-12, state.sector


class TestFdOracle:
    def test_w_hessian_block(self, w3):
        frame = orbit_tangent_frame(w3)
        H = hessian_fd_oracle(w3, frame)
        assert H.shape == (2, 2)
        # Second variation 2*(q - lambda) with q = -1/2 and lambda = 1/6.
        assert np.allclose(np.diag(H), -4 / 3, atol=1e-5)
        assert abs(H[0, 1]) < 1e-5
        assert np.all(np.linalg.eigvalsh(H) < 0)

    def test_ghz_empty(self, ghz3):
        assert hessian_fd_oracle(ghz3).size == 0

    def test_separable_all_negative(self, sep3):
        H = hessian_fd_oracle(sep3)
        assert H.shape == (8, 8)
        assert np.all(np.linalg.eigvalsh(H) < -1e-6)

    def test_oracle_matches_spectral_method(self):
        states = (
            [rec.state for rec in bipartite_families(3)]
            + [rec.state for rec in boson_pair_families(3)]
            + [rec.state for rec in fermion_pair_families(4)]
            + [rec.state for rec in dicke_families(4)]
        )
        for state in states:
            assert morse_index_fd(state) == morse_index(state)

    def test_not_critical_raises(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        with pytest.raises(NotCritical):
            hessian_fd_oracle(v)

    def test_csv_dump(self, w3):
        H = hessian_fd_oracle(w3)
        text = hessian_to_csv(H)
        assert len(text.splitlines()) == 2
        assert float(text.split(",")[0]) == pytest.approx(H[0, 0])
