import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccflow import morse
from sloccflow.critical import classify

from sloccflow.errors import NotCritical
from sloccflow.families import (
    bipartite_families,
    bipartite_rank_state,
    boson_pair_families,
    dicke_families,
    fermion_pair_families,
    scan_qubit_families,
)
from sloccflow.momentum import momentum, mu_star_matrix
from sloccflow.morse import (
    _remove_ritz,
    complement_hessian_spectrum,
    hessian_fd_oracle,
    hessian_to_csv,
    index_from_spectrum,
    morse_index,
    morse_index_fd,
    orbit_tangent_frame,
)
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    apply_local,
    dicke,
    distinguishable,
    normalize,
    state_from_json,
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


def _w_state(L):
    return qubits([1 if bin(i).count("1") == 1 else 0 for i in range(2**L)], L)


def _assert_split_matches_dense(state, tol):
    expected = _dense_complement_spectrum(state)
    got = complement_hessian_spectrum(state)
    assert got.shape == expected.shape, state.sector
    assert np.max(np.abs(got - expected), initial=0.0) < tol, state.sector
    assert index_from_spectrum(got) == index_from_spectrum(expected), state.sector


def _family_records():
    return (
        bipartite_families(3)
        + bipartite_families(4)
        + boson_pair_families(3)
        + boson_pair_families(4)
        + fermion_pair_families(5)
        + fermion_pair_families(6)
        + dicke_families(5)
        + dicke_families(6)
    )


def _local_unitary_image(state, seed):
    rng = np.random.default_rng(seed)
    N = state.sector.local_dim
    parties = range(state.sector.acting)
    return apply_local([LocalOperator(p, haar_unitary(rng, N)) for p in parties], state)


def _load_generate():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestComplementSpectrum:
    """The invariant split against the dense ``C^H M C`` of the complement."""

    def test_matrix_free_matches_dense_operator(self, w3):
        states = (
            [w3, _w_state(4), bipartite_rank_state(4, 2)]
            + [dicke(k, 6) for k in range(4)]
            + [rec.state for rec in fermion_pair_families(4)]
        )
        assert {s.sector.kind for s in states} == {
            "distinguishable", "bosonic", "fermionic"
        }
        for state in states:
            _assert_split_matches_dense(state, 1e-12)

    @pytest.mark.parametrize("L", [5, 6, 7, 8, 9])
    def test_w_states(self, L):
        _assert_split_matches_dense(_w_state(L), 1e-12)

    @settings(max_examples=30, deadline=None, database=None)
    @given(L=st.integers(3, 7), seed=st.integers(0, 2**32 - 1))
    def test_local_unitary_images_of_w(self, L, seed):
        _assert_split_matches_dense(_local_unitary_image(_w_state(L), seed), 1e-12)

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_local_unitary_images_of_family_records(self, data, seed):
        record = data.draw(st.sampled_from(_family_records()), label="record")
        _assert_split_matches_dense(_local_unitary_image(record.state, seed), 1e-12)

    @pytest.mark.parametrize("parties, denominator", [(3, 6), (4, 2)])
    def test_scan_records(self, parties, denominator):
        # Scan states are critical to the self-consistency tolerance only.
        records = scan_qubit_families(parties, denominator).families
        assert records
        for rec in records:
            _assert_split_matches_dense(rec.state, 1e-7)

    def test_nonzero_level_flow_terminals_of_the_benchmark(self):
        generate = _load_generate()
        terminals = []
        for seed in (1, 3):
            for workload in ("classify-small", "identical-sectors"):
                for op in generate.generate(workload, seed):
                    # Zero-level flows end without a spectrum.
                    if op["spec"]["kind"] == "zero_level":
                        continue
                    record = classify(state_from_json(op["state"]))
                    if record.hessian_spectrum:
                        terminals.append(record.state)
        assert len(terminals) > 100
        for state in terminals:
            _assert_split_matches_dense(state, 1e-7)

    def test_not_critical_raises(self):
        # A GHZ-class state off its critical orbit: the orbit fills the
        # tangent, but the Rayleigh value misses the operator's spectrum.
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        with pytest.raises(NotCritical, match="lie up to"):
            complement_hessian_spectrum(v)

    def test_removal_counts_ritz_values_per_cluster(self):
        spectrum = np.array([-1.0, 0.0, 1e-9, 0.0 + 2e-9, 1.0, 1.0])
        rest = _remove_ritz(spectrum, np.array([1e-9, 1e-9, 1.0]), 1.0)
        assert np.array_equal(rest, [-1.0, 2e-9, 1.0])
        # More Ritz values near an eigenvalue than its multiplicity.
        with pytest.raises(NotCritical, match="outnumber"):
            _remove_ritz(spectrum, np.array([1.0, 1.0, 1.0]), 1.0)
        with pytest.raises(NotCritical, match="lie up to 5.000e-01"):
            _remove_ritz(spectrum, np.array([1.0]), 0.5)

    @pytest.mark.parametrize("N", [2, 3])
    def test_one_party_spectrum_empty(self, N):
        state = normalize(PureState(distinguishable(1, N), np.arange(1, N + 1)))
        assert complement_hessian_spectrum(state).size == 0


class TestSplitCost:
    """``classify`` reads the spectrum without the complement of the orbit."""

    def test_classify_builds_no_complete_qr(self, monkeypatch):
        modes, frames = [], []
        original, frame = np.linalg.qr, morse._tangent_frame

        def recording(a, mode="reduced"):
            modes.append(mode)
            return original(a, mode=mode)

        def counting(state, *args, **kwargs):
            frames.append(state)
            return frame(state, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        monkeypatch.setattr(morse, "_tangent_frame", counting)
        record = classify(_w_state(8))
        assert record.morse_index > 0
        assert frames and "complete" not in modes

    def test_classify_w10_peak_memory(self):
        state = _w_state(10)
        tracemalloc.start()
        try:
            record = classify(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.morse_index > 0
        # One 1003 x 1003 complex complement block alone takes 16 MB.
        assert peak < 6e6


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
