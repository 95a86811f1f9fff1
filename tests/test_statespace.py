import itertools
import json
import math

import numpy as np
import pytest

from sloccflow.errors import (
    IndexOutOfRange,
    SectorMismatch,
    ShapeMismatch,
    ZeroState,
)
from sloccflow.critical import classify, orbit_dimension
from sloccflow.flow import flow_step, gradient_norm
from sloccflow.momentum import momentum, mu_star_apply, psi, total_variance
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    _axis_matrices,
    apply_local,
    basis_state,
    bosonic,
    dicke,
    distinguishable,
    embedding_isometry,
    fermionic,
    hodge_dual,
    inner,
    normalize,
    random_state,
    state_from_json,
)

from conftest import haar_unitary, qubits, random_special_linear


def _orderings(word: tuple[int, ...]):
    """Distinct permutations of a word with repeated letters, each once."""
    if not word:
        yield ()
    for letter in sorted(set(word)):
        rest = list(word)
        rest.remove(letter)
        for tail in _orderings(tuple(rest)):
            yield (letter,) + tail


def _permutation_embedding(sector):
    """Nonzero entries of the embedding, built by permuting each basis word.

    A bosonic column spreads ``1/sqrt(#orderings)`` over the distinct
    orderings of its occupation word; a fermionic column puts
    ``sign(perm)/sqrt(L!)`` on every permutation of its subset.
    """
    L, N = sector.parties, sector.local_dim
    radix = N ** np.arange(L - 1, -1, -1)
    rows, cols, values = [], [], []
    for col, label in enumerate(sector.basis_labels()):
        if sector.kind == "bosonic":
            word = tuple(letter for letter, n in enumerate(label) for _ in range(n))
            perms = list(_orderings(word))
            entries = [(perm, 1.0 / math.sqrt(len(perms))) for perm in perms]
        else:
            coeff = 1.0 / math.sqrt(math.factorial(L))
            entries = [
                (tuple(label[p] - 1 for p in perm), _sign(perm) * coeff)
                for perm in itertools.permutations(range(L))
            ]
        for digits, value in entries:
            rows.append(int(np.dot(digits, radix)))
            cols.append(col)
            values.append(value)
    return rows, cols, np.array(values)


def _sign(perm: tuple[int, ...]) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


class TestSector:
    def test_dimensions(self):
        assert distinguishable(3, 2).dim == 8
        assert bosonic(3, 2).dim == 4
        assert bosonic(2, 4).dim == 10
        assert fermionic(2, 4).dim == 6
        assert fermionic(3, 6).dim == 20

    @pytest.mark.parametrize(
        "sector,acting,copies",
        [
            (distinguishable(1, 2), 1, 1),
            (distinguishable(4, 3), 4, 1),
            (bosonic(1, 3), 1, 1),
            (bosonic(5, 2), 1, 5),
            (fermionic(2, 4), 1, 2),
            (fermionic(4, 4), 1, 4),
            (fermionic(0, 3), 1, 0),
        ],
    )
    def test_acting_factors_and_their_copies(self, sector, acting, copies):
        assert (sector.acting, sector.copies) == (acting, copies)
        # The factors' copies cover the tensor's axes exactly once.
        assert sector.acting * sector.copies == sector.parties

    def test_fermionic_needs_enough_modes(self):
        with pytest.raises(ValueError):
            fermionic(3, 2)

    def test_basis_orderings(self):
        assert distinguishable(2, 2).basis_labels() == (
            (0, 0), (0, 1), (1, 0), (1, 1),
        )
        assert bosonic(3, 2).basis_labels() == ((3, 0), (2, 1), (1, 2), (0, 3))
        assert fermionic(2, 3).basis_labels() == ((1, 2), (1, 3), (2, 3))

    def test_label_built_isometry_matches_permutation_construction(self):
        # Every identical-particle sector with N >= 2 and N^L <= 4096; single
        # particles (a permuted identity) only up to N = 64.
        sectors = [
            make(L, N)
            for make in (bosonic, fermionic)
            for N in range(2, 65)
            for L in range(13)
            if N**L <= 4096 and (L >= 1 if make is bosonic else L <= N)
        ]
        assert bosonic(10, 2) in sectors and fermionic(4, 6) in sectors
        for sector in sectors:
            labels = list(sector.basis_labels())
            assert labels == sorted(labels, reverse=sector.kind == "bosonic")
            # The builder itself, not its cache: the largest sectors are 100+ MB.
            V = embedding_isometry.__wrapped__(sector)
            rows, cols, values = _permutation_embedding(sector)
            assert V.shape == (sector.local_dim**sector.parties, sector.dim)
            assert np.count_nonzero(V) == len(values), sector
            assert np.array_equal(V[rows, cols], values), sector

    def test_embeddings_are_isometries(self):
        for sector in (bosonic(3, 2), bosonic(2, 4), fermionic(2, 4), fermionic(3, 4)):
            V = embedding_isometry(sector)
            gram = V.conj().T @ V
            assert np.max(np.abs(gram - np.eye(sector.dim))) < 1e-14


class TestNormalize:
    def test_scaling(self):
        state = PureState(distinguishable(2, 2), np.array([2, 0, 0, 0], dtype=complex))
        assert np.allclose(normalize(state).amplitudes, [1, 0, 0, 0])

    def test_unit_sum(self):
        state = PureState(distinguishable(2, 2), np.array([1, 0, 0, 1], dtype=complex))
        out = normalize(state)
        assert abs(out.norm - 1.0) < 1e-15
        assert abs(out.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15

    def test_zero_state(self):
        state = PureState(distinguishable(2, 2), np.zeros(4, dtype=complex))
        with pytest.raises(ZeroState):
            normalize(state)


class TestInner:
    def test_self_overlap(self, rng):
        v = random_state(distinguishable(3, 2), rng)
        assert abs(inner(v, v) - 1.0) < 1e-14

    def test_orthogonal_basis(self):
        a = qubits([1, 0, 0, 0], 2)
        b = qubits([0, 0, 0, 1], 2)
        assert inner(a, b) == 0

    def test_ghz_against_000(self, ghz3, sep3):
        assert abs(inner(ghz3, sep3) - 1 / math.sqrt(2)) < 1e-14

    def test_conjugate_symmetry(self, rng):
        sector = bosonic(2, 3)
        a, b = random_state(sector, rng), random_state(sector, rng)
        assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-14

    def test_sector_mismatch(self, rng):
        with pytest.raises(SectorMismatch):
            inner(
                random_state(distinguishable(2, 2), rng),
                random_state(bosonic(2, 2), rng),
            )


class TestApplyLocal:
    def test_identity(self, rng):
        for sector in (distinguishable(3, 2), bosonic(3, 2), fermionic(2, 3)):
            v = random_state(sector, rng)
            ops = (
                [LocalOperator(0, np.eye(sector.local_dim))]
                if sector.identical
                else [
                    LocalOperator(p, np.eye(sector.local_dim))
                    for p in range(sector.parties)
                ]
            )
            out = apply_local(ops, v)
            assert np.max(np.abs(out.amplitudes - v.amplitudes)) < 1e-14

    def test_hadamard_cubed_maps_ghz_to_even_weight(self, ghz3):
        H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        out = apply_local([LocalOperator(p, H) for p in range(3)], ghz3)
        expected = np.zeros(8)
        for idx in (0b000, 0b011, 0b101, 0b110):
            expected[idx] = 0.5
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    def test_one_parameter_diagonal_action(self):
        v = qubits([0, 1, 1, 0], 2)
        alpha = 0.37
        g = np.diag([math.exp(alpha), math.exp(-alpha)])
        out = apply_local(
            [LocalOperator(0, g), LocalOperator(1, np.eye(2))],
            PureState(v.sector, v.amplitudes),
        )
        expected = np.array([0, math.exp(alpha), math.exp(-alpha), 0]) / math.sqrt(2)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    def test_unitaries_preserve_norm(self, rng):
        for sector in (distinguishable(2, 3), bosonic(3, 2), fermionic(2, 4)):
            v = random_state(sector, rng)
            count = 1 if sector.identical else sector.parties
            ops = [
                LocalOperator(p, haar_unitary(rng, sector.local_dim))
                for p in range(count)
            ]
            assert abs(apply_local(ops, v).norm - 1.0) < 1e-12

    def test_group_action_composition(self, rng):
        sector = distinguishable(2, 2)
        v = random_state(sector, rng)
        gs = [random_special_linear(rng, 2) for _ in range(2)]
        hs = [random_special_linear(rng, 2) for _ in range(2)]
        one = apply_local(
            [LocalOperator(p, h) for p, h in enumerate(hs)],
            apply_local([LocalOperator(p, g) for p, g in enumerate(gs)], v),
        )
        both = apply_local(
            [LocalOperator(p, h @ g) for p, (g, h) in enumerate(zip(gs, hs))], v
        )
        assert np.max(np.abs(one.amplitudes - both.amplitudes)) < 1e-12

    def test_shape_mismatch(self, rng):
        v = random_state(distinguishable(2, 2), rng)
        with pytest.raises(ShapeMismatch):
            apply_local([LocalOperator(0, np.eye(2))], v)
        with pytest.raises(ShapeMismatch):
            apply_local([LocalOperator(0, np.eye(3)), LocalOperator(1, np.eye(3))], v)
        for sector in (bosonic(3, 2), fermionic(2, 4)):
            v = random_state(sector, rng)
            N = sector.local_dim
            with pytest.raises(ShapeMismatch):
                apply_local([LocalOperator(0, np.eye(N)), LocalOperator(1, np.eye(N))], v)
            with pytest.raises(ShapeMismatch):
                apply_local(LocalOperator(0, np.eye(N + 1)), v)
            with pytest.raises(ShapeMismatch):
                mu_star_apply([np.eye(N), np.eye(N)], v)
            with pytest.raises(ShapeMismatch):
                mu_star_apply([np.eye(N + 1)], v)


class TestDicke:
    def test_vacuum(self):
        v = dicke(0, 3)
        assert v.amplitudes[0] == 1.0 and np.max(np.abs(v.amplitudes[1:])) == 0

    def test_single_excitation_symmetrized(self):
        v = dicke(1, 2)
        tensor = v.to_tensor().reshape(-1)
        expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert np.max(np.abs(tensor - expected)) < 1e-14

    def test_orthonormal_family(self):
        states = [dicke(k, 4) for k in range(5)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                assert abs(inner(a, b) - (1.0 if i == j else 0.0)) < 1e-14

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            dicke(4, 3)


class TestHodgeDual:
    def test_pair_complement(self):
        v = basis_state(fermionic(2, 4), (1, 2))
        d = hodge_dual(v)
        labels = d.sector.basis_labels()
        assert d.sector.parties == 2
        nonzero = {labels[i]: d.amplitudes[i] for i in range(d.sector.dim)
                   if abs(d.amplitudes[i]) > 0}
        assert nonzero == {(3, 4): 1.0 + 0.0j}

    def test_top_form_to_scalar(self):
        v = basis_state(fermionic(4, 4), (1, 2, 3, 4))
        d = hodge_dual(v)
        assert d.sector.dim == 1 and d.amplitudes[0] == 1.0

    def test_involution_up_to_sign(self, rng):
        v = random_state(fermionic(2, 4), rng)
        dd = hodge_dual(hodge_dual(v))
        overlap = abs(np.vdot(dd.amplitudes, v.amplitudes))
        assert abs(overlap - 1.0) < 1e-13

    def test_requires_fermions(self, rng):
        with pytest.raises(SectorMismatch):
            hodge_dual(random_state(bosonic(2, 3), rng))


# Every reducing path reads the all-axes gather, which a state without
# particles (the Hodge dual of a top form) does not have.
REDUCTIONS = {
    "momentum": momentum,
    "psi": psi,
    "classify": classify,
    "gradient_norm": gradient_norm,
    "flow_step": lambda state: flow_step(state, 0.1),
    "mu_star_apply": lambda state: mu_star_apply([np.eye(3)], state),
    "total_variance": total_variance,
    "orbit_dimension": orbit_dimension,
}


@pytest.mark.parametrize("entry", REDUCTIONS.values(), ids=REDUCTIONS.keys())
def test_zero_particle_state_has_no_reduction(entry):
    state = hodge_dual(basis_state(fermionic(3, 3), (1, 2, 3)))
    assert state.sector == fermionic(0, 3)
    with pytest.raises(ShapeMismatch, match="no one-particle reduction"):
        entry(state)


class TestJson:
    def test_round_trip_normalizes(self):
        doc = {
            "sector": "distinguishable",
            "parties": 2,
            "local_dim": 2,
            "amplitudes": [[2, 0], [0, 0], [0, 0], [2, 0]],
        }
        v = state_from_json(doc)
        assert abs(v.norm - 1.0) < 1e-15
        again = state_from_json(json.dumps(v.to_json()))
        assert np.max(np.abs(again.amplitudes - v.amplitudes)) < 1e-15

    def test_malformed(self):
        with pytest.raises(ShapeMismatch):
            state_from_json({"sector": "distinguishable", "parties": 2})

    @pytest.mark.parametrize("pair", ["[true, 0]", "[1, false]", "[false, true]"])
    def test_boolean_amplitude_part_is_malformed(self, pair):
        # ``complex(True, 0)`` is ``1+0j``; a JSON boolean is no amplitude part.
        header = '"sector": "distinguishable", "parties": 1, "local_dim": 2'
        doc = f'{{{header}, "amplitudes": [{pair}, [0, 1]]}}'
        with pytest.raises(ShapeMismatch, match="malformed state document"):
            state_from_json(doc)

    def test_identical_sector_round_trip(self, rng):
        v = random_state(fermionic(2, 4), rng)
        again = state_from_json(v.to_json())
        assert np.max(np.abs(again.amplitudes - v.amplitudes)) < 1e-15


class TestAxisMatrices:
    @pytest.mark.parametrize(
        "sector,count",
        [
            (distinguishable(3, 2), 1),
            (distinguishable(3, 2), 2),
            (distinguishable(3, 2), 4),
            (bosonic(3, 2), 0),
            (bosonic(3, 2), 3),
            (fermionic(2, 4), 2),
        ],
    )
    def test_rejects_a_wrong_matrix_count(self, sector, count):
        mats = [np.eye(sector.local_dim)] * count
        with pytest.raises(ShapeMismatch, match=f"need {sector.acting} matrices"):
            _axis_matrices(sector, mats)
