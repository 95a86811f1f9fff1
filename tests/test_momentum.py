import importlib
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from sloccflow import critical
from sloccflow.errors import NotInWeylChamber, NotQubitSector, ShapeMismatch
from sloccflow.momentum import (
    MARGIN_PIVOT_TOL,
    SpectrumPoint,
    _generator_columns,
    _level_certificate,
    _min_norm_point,
    _shifted_densities,
    casimir_constant,
    casimir_vee_expectation,
    gell_mann_frame,
    momentum,
    mu_norm_sq,
    mu_star_apply,
    mu_star_matrix,
    polygonal_check,
    psi,
    reduced_density,
    represented_generators,
    total_variance,
    weight_margin,
)
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    _axis_views,
    _ket_weights,
    apply_local,
    bosonic,
    distinguishable,
    embedding_isometry,
    fermionic,
    normalize,
    random_state,
)

from conftest import haar_unitary, qubits, random_special_linear

SECTORS = [
    distinguishable(3, 2),
    distinguishable(2, 3),
    bosonic(3, 2),
    bosonic(2, 4),
    fermionic(2, 4),
    fermionic(3, 5),
]


def brute_force_reduced(state, party):
    """Partial trace by explicit index summation; oracle for reduced_density."""
    sector = state.sector
    N, L = sector.local_dim, sector.parties
    tensor = state.to_tensor().reshape(-1)
    labels = list(np.ndindex(*(N,) * L))
    rho = np.zeros((N, N), dtype=complex)
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            if all(la[p] == lb[p] for p in range(L) if p != party):
                rho[la[party], lb[party]] += tensor[a] * np.conj(tensor[b])
    return rho / np.trace(rho)


class TestGellMannFrame:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_trace_orthonormal(self, N):
        frame = gell_mann_frame(N)
        assert frame.shape[0] == N * N - 1
        for i, a in enumerate(frame):
            assert np.max(np.abs(a - a.conj().T)) < 1e-14
            assert abs(np.trace(a)) < 1e-14
            for j, b in enumerate(frame):
                assert abs(np.trace(a @ b).real - (1.0 if i == j else 0.0)) < 1e-12


class TestReducedDensity:
    def test_ghz_maximally_mixed(self, ghz3):
        for p in range(3):
            assert np.max(np.abs(reduced_density(ghz3, p) - np.eye(2) / 2)) < 1e-14

    def test_product_state(self, sep3):
        assert np.max(np.abs(reduced_density(sep3, 0) - np.diag([1, 0]))) < 1e-14

    def test_w_state_against_oracle(self, w3):
        for p in range(3):
            rho = reduced_density(w3, p)
            assert np.max(np.abs(rho - np.diag([2 / 3, 1 / 3]))) < 1e-14
            assert np.max(np.abs(rho - brute_force_reduced(w3, p))) < 1e-13

    def test_random_states_against_oracle(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            p = 0 if sector.identical else int(rng.integers(sector.parties))
            rho = reduced_density(v, p)
            assert np.max(np.abs(rho - brute_force_reduced(v, p))) < 1e-12
            eigs = np.linalg.eigvalsh(rho)
            assert np.all(eigs > -1e-12) and abs(eigs.sum() - 1) < 1e-12


class TestMomentum:
    def test_ghz_zero(self, ghz3):
        point = momentum(ghz3)
        assert all(np.max(np.abs(m)) < 1e-14 for m in point.matrices)

    def test_product_state(self, sep3):
        point = momentum(sep3)
        for m in point.matrices:
            assert np.max(np.abs(m - np.diag([0.5, -0.5]))) < 1e-14

    def test_bell_zero(self, bell):
        point = momentum(bell)
        assert all(np.max(np.abs(m)) < 1e-14 for m in point.matrices)

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_zero_state_raises(self, sector):
        zero = PureState(sector, np.zeros(sector.dim))
        for f in (
            momentum, mu_norm_sq, psi, reduced_density, total_variance, casimir_vee_expectation
        ):
            with pytest.raises(ShapeMismatch):
                f(zero)

    def test_matrices_hermitian_traceless_with_density_spectra(self, rng):
        for sector in SECTORS:
            point = momentum(random_state(sector, rng))
            for m in point.matrices:
                assert np.max(np.abs(m - m.conj().T)) < 1e-12
                assert abs(np.trace(m)) < 1e-12
                eigs = np.linalg.eigvalsh(m + np.eye(sector.local_dim) / sector.local_dim)
                assert np.all(eigs > -1e-12) and np.all(eigs < 1 + 1e-12)

    def test_equivariance(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            count = 1 if sector.identical else sector.parties
            us = [haar_unitary(rng, sector.local_dim, special=True) for _ in range(count)]
            rotated = apply_local(
                [LocalOperator(p, u) for p, u in enumerate(us)], v
            )
            before = momentum(v).matrices
            after = momentum(rotated).matrices
            for m0, m1, u in zip(before, after, us):
                assert np.max(np.abs(m1 - u @ m0 @ u.conj().T)) < 1e-10


class TestMuStar:
    def test_zero_point(self, w3):
        zeros = [np.zeros((2, 2))] * 3
        assert np.max(np.abs(mu_star_apply(zeros, w3))) == 0

    @pytest.mark.parametrize("N,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_bipartite_rank_state_eigenvalue(self, N, k):
        sector = distinguishable(2, N)
        amps = np.zeros(N * N, dtype=complex)
        for i in range(k):
            amps[i * N + i] = 1.0
        v = normalize(PureState(sector, amps))
        image = mu_star_apply(momentum(v), v)
        lam = 2 * (N - k) / (N * k)
        assert np.max(np.abs(image - lam * v.amplitudes)) < 1e-13

    def test_w_eigenvalue(self, w3):
        image = mu_star_apply(momentum(w3), w3)
        assert np.max(np.abs(image - w3.amplitudes / 6)) < 1e-13

    def test_rayleigh_identity(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            image = mu_star_apply(momentum(v), v)
            lam = float(np.vdot(v.amplitudes, image).real)
            assert abs(lam - mu_norm_sq(v)) < 1e-12

    def test_dense_matrix_matches_apply(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            point = momentum(v)
            M = mu_star_matrix(point, sector)
            assert np.max(np.abs(M @ v.amplitudes - mu_star_apply(point, v))) < 1e-12

    @pytest.mark.parametrize(
        "sector", [distinguishable(3, 2), bosonic(3, 3), fermionic(2, 4)], ids=str
    )
    def test_spectrum_point_acts_as_its_diagonal_matrices(self, rng, sector):
        v = random_state(sector, rng)
        point = psi(v)
        image = mu_star_apply(point, v)
        assert np.max(np.abs(image)) > 0.1
        np.testing.assert_array_equal(image, mu_star_apply(point.as_diagonal_matrices(), v))


class TestNormAndVariance:
    def test_mu_norm_examples(self, ghz3, w3, sep3):
        assert mu_norm_sq(ghz3) < 1e-14
        assert abs(mu_norm_sq(w3) - 1 / 6) < 1e-13
        assert abs(mu_norm_sq(sep3) - 3 / 2) < 1e-13

    def test_variance_examples(self, ghz3, sep3, bell):
        assert abs(total_variance(sep3) - 3.0) < 1e-12
        assert abs(total_variance(ghz3) - 4.5) < 1e-12
        assert abs(total_variance(bell) - 3.0) < 1e-12

    def test_variance_matches_represented_frame(self, rng):
        # Independent route: expectation values of the embedded generators
        # computed as dense matrices; the columns X v follow their order.
        for sector in SECTORS:
            v = random_state(sector, rng)
            gens = represented_generators(sector)
            cols = _generator_columns(sector, v.to_tensor())
            assert cols.shape == (sector.dim, gens.shape[0] * gens.shape[1])
            var = 0.0
            for p in range(gens.shape[0]):
                for i, g in enumerate(gens[p]):
                    gv = g @ v.amplitudes
                    assert np.max(np.abs(cols[:, p * gens.shape[1] + i] - gv)) < 1e-12
                    var += float(np.vdot(gv, gv).real)
                    var -= float(np.vdot(v.amplitudes, gv).real) ** 2
            assert abs(var - total_variance(v)) < 1e-10

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_represented_generators_match_kron_products(self, sector):
        # Independent route: each generator as a Kronecker product
        # I x..x xi x..x I on the full tensor power, summed over the slots and
        # compressed by the embedding isometry for identical particles.
        L, N = sector.parties, sector.local_dim
        frame = gell_mann_frame(N)

        def in_slot(xi, k):
            return reduce(np.kron, [xi if q == k else np.eye(N) for q in range(L)])

        if sector.identical:
            V = embedding_isometry(sector)
            want = [[V.T @ sum(in_slot(xi, k) for k in range(L)) @ V for xi in frame]]
        else:
            want = [[in_slot(xi, p) for xi in frame] for p in range(L)]
        gens = represented_generators(sector)
        assert gens.shape == (sector.acting, N * N - 1, sector.dim, sector.dim)
        assert np.max(np.abs(gens - np.array(want))) < 1e-12

    def test_moments_invariant_under_scaling(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            scaled = PureState(sector, 3.0 * v.amplitudes)
            assert abs(total_variance(scaled) - total_variance(v)) < 1e-10
            assert abs(casimir_vee_expectation(scaled) - casimir_vee_expectation(v)) < 1e-10

    def test_casimir_constants(self):
        assert abs(casimir_constant(distinguishable(4, 2)) - 6.0) < 1e-14
        assert abs(casimir_constant(distinguishable(3, 2)) - 4.5) < 1e-14
        assert abs(casimir_constant(distinguishable(2, 3)) - 16 / 3) < 1e-14

    def test_constancy_over_random_states(self, rng):
        for sector in SECTORS:
            c = casimir_constant(sector)
            for _ in range(25):
                v = random_state(sector, rng)
                assert abs(total_variance(v) + mu_norm_sq(v) - c) < 1e-10

    def test_vee_examples(self, ghz3, sep3, bell):
        assert abs(casimir_vee_expectation(ghz3) - 9.0) < 1e-12
        assert abs(casimir_vee_expectation(sep3) - 12.0) < 1e-12
        assert abs(casimir_vee_expectation(bell) - 6.0) < 1e-12

    def test_vee_identity(self, rng):
        for sector in SECTORS:
            c = casimir_constant(sector)
            v = random_state(sector, rng)
            assert abs(
                casimir_vee_expectation(v) - 2 * c - 2 * mu_norm_sq(v)
            ) < 1e-10


class TestPsi:
    def test_examples(self, ghz3, w3, bell):
        assert psi(ghz3).is_zero(1e-13)
        spectra = psi(w3).spectra
        for s in spectra:
            assert np.max(np.abs(s - np.array([1 / 6, -1 / 6]))) < 1e-13
        zero_bell = qubits([1, 0, 0, 1, 0, 0, 0, 0], 3)  # |0> x Bell
        spectra = psi(zero_bell).spectra
        assert np.max(np.abs(spectra[0] - np.array([0.5, -0.5]))) < 1e-13
        assert np.max(np.abs(spectra[1])) < 1e-13
        assert np.max(np.abs(spectra[2])) < 1e-13

    def test_unitary_invariance(self, rng):
        for sector in SECTORS:
            v = random_state(sector, rng)
            count = 1 if sector.identical else sector.parties
            ops = [
                LocalOperator(p, haar_unitary(rng, sector.local_dim))
                for p in range(count)
            ]
            a, b = psi(v), psi(apply_local(ops, v))
            assert a.allclose(b, 1e-10)

    def test_weyl_chamber_validation(self):
        sector = distinguishable(3, 2)
        good = SpectrumPoint(sector, tuple(np.array([0.1, -0.1]) for _ in range(3)))
        good.validate_weyl_chamber()
        bad = SpectrumPoint(
            sector,
            (np.array([-0.1, 0.1]), np.array([0.0, 0.0]), np.array([0.0, 0.0])),
        )
        with pytest.raises(NotInWeylChamber):
            bad.validate_weyl_chamber()

    @pytest.mark.parametrize(
        "spectrum,message",
        [
            ([0.1, 0.0, -0.1], "spectrum length"),
            ([-0.1, 0.1], "weakly decreasing"),
            ([0.2, 0.1], "sum to zero"),
            ([0.7, -0.7], r"\[0, 1\]"),
        ],
    )
    def test_weyl_chamber_violation_named(self, spectrum, message):
        sector = distinguishable(3, 2)
        good = np.array([0.1, -0.1])
        bad = SpectrumPoint(sector, (good, np.array(spectrum), good))
        with pytest.raises(NotInWeylChamber, match=message):
            bad.validate_weyl_chamber()

    def test_allclose_needs_equal_spectrum_count(self):
        sector = distinguishable(3, 2)
        h = np.array([0.25, -0.25])
        full = SpectrumPoint(sector, (h, h, h))
        prefix = SpectrumPoint(sector, (h, h))
        assert full.allclose(full)
        assert not full.allclose(prefix)
        assert not prefix.allclose(full)


class TestPolygonal:
    def _point(self, lambdas):
        sector = distinguishable(len(lambdas), 2)
        return SpectrumPoint(
            sector, tuple(np.array([lam, -lam]) for lam in lambdas)
        )

    def test_symmetric_interior(self):
        ok, violated = polygonal_check(self._point([0.0, 0.0, 0.0]))
        assert ok and violated == []

    def test_violated_first_party(self):
        # minimal eigenvalues (1/2, 0, 0): party 1 exceeds the others' sum.
        ok, violated = polygonal_check(self._point([0.0, 0.5, 0.5]))
        assert not ok and violated == [0]

    def test_w_point(self):
        ok, _ = polygonal_check(self._point([1 / 6, 1 / 6, 1 / 6]))
        assert ok

    def test_requires_qubits(self):
        point = SpectrumPoint(
            distinguishable(2, 3),
            tuple(np.array([0.1, 0.0, -0.1]) for _ in range(2)),
        )
        with pytest.raises(NotQubitSector):
            polygonal_check(point)


class TestSerialization:
    def test_momentum_point_json(self, w3):
        doc = momentum(w3).to_json()
        assert doc["sector"] == "distinguishable"
        assert len(doc["matrices"]) == 3
        assert doc["matrices"][0][0][0][0] == pytest.approx(1 / 6)

    def test_spectrum_point_json(self, w3):
        doc = psi(w3).to_json()
        assert doc["spectra"][0] == pytest.approx([1 / 6, -1 / 6])


def _exact_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Gauss-Jordan elimination in exact arithmetic; None when ``A`` is singular."""
    n = len(b)
    rows = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _exact_margin(sector) -> Fraction | None:
    """Smallest nonzero ``||beta||^2`` over affinely independent weight subsets.

    Reference for ``weight_margin`` by a different route: every subset of at
    most rank + 1 shifted ket weights, in exact arithmetic, through the
    bordered system ``G lam + nu 1 = 0, 1' lam = 1`` whose solution has
    ``||beta||^2 = -nu``; only nonnegative ``lam`` count.
    """
    raw = _ket_weights(sector)
    copies = sector.parties if sector.identical else 1
    shift = Fraction(copies, sector.local_dim)
    weights = [[Fraction(int(x)) - shift for x in column] for column in raw.T]
    rank = np.linalg.matrix_rank(raw - float(shift))
    levels = set()
    for size in range(1, rank + 2):
        for subset in combinations(weights, size):
            gram = [[sum(a * b for a, b in zip(u, w)) for w in subset] for u in subset]
            bordered = [row + [Fraction(1)] for row in gram]
            bordered.append([Fraction(1)] * size + [Fraction(0)])
            solution = _exact_solve(bordered, [Fraction(0)] * size + [Fraction(1)])
            if solution is None or min(solution[:size]) < 0:
                continue
            if solution[-1] != 0:
                levels.add(-solution[-1])
    return min(levels) if levels else None


def _acceptance_levels():
    """Nonzero critical levels ``d^2`` of the acceptance tables, by closed form."""
    for level in (Fraction(1, 6), Fraction(1, 2), Fraction(3, 2)):
        yield distinguishable(3, 2), level  # W, B, SEP
    for N in range(2, 7):
        for k in range(1, N):
            yield distinguishable(2, N), Fraction(2 * (k * (N - k) ** 2 + k * k * (N - k)), (N * k) ** 2)
            yield bosonic(2, N), Fraction(4 * (N - k), k * N)
        for k in range(1, (N + 1) // 2):
            yield fermionic(2, N), Fraction(4 * (N - 2 * k), 2 * k * N)
    for L in range(2, 9):
        for k in range(L // 2 + 1):
            if L != 2 * k:
                yield bosonic(L, 2), Fraction((L - 2 * k) ** 2, 2)


class TestWeightMargin:
    @pytest.mark.parametrize(
        "sector,expected",
        [
            (distinguishable(3, 2), Fraction(1, 6)),
            (distinguishable(4, 2), Fraction(1, 14)),
            (distinguishable(2, 3), Fraction(1, 12)),
            (bosonic(5, 3), Fraction(1, 78)),
            (fermionic(2, 6), Fraction(2, 51)),
        ]
        + [(bosonic(L, 2), Fraction(2) if L % 2 == 0 else Fraction(1, 2)) for L in range(2, 11)],
    )
    def test_exact_values(self, sector, expected):
        assert weight_margin(sector) == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize(
        "sector",
        [
            distinguishable(2, 2),
            distinguishable(3, 2),
            distinguishable(2, 3),
            bosonic(4, 2),
            bosonic(5, 2),
            bosonic(2, 3),
            bosonic(5, 3),
            fermionic(2, 4),
        ],
    )
    def test_matches_exact_bordered_oracle(self, sector):
        exact = _exact_margin(sector)
        assert exact is not None
        assert weight_margin(sector) == pytest.approx(float(exact), rel=1e-12)

    def test_below_every_nonzero_acceptance_level(self):
        without = set()
        for sector, level in _acceptance_levels():
            margin = weight_margin(sector)
            if margin is None:
                without.add(sector)
            else:
                assert margin <= float(level) * (1 + 1e-12), (sector, level)
        # Only these exceed the subset bound.
        assert without == {
            distinguishable(2, 4),
            distinguishable(2, 5),
            distinguishable(2, 6),
            bosonic(2, 6),
        }

    @pytest.mark.parametrize("parties", [5, 10])
    def test_none_above_the_subset_bound(self, parties):
        assert weight_margin(distinguishable(parties, 2)) is None


class TestWeightMarginPivot:
    SECTORS = (
        [distinguishable(L, N) for L in range(2, 6) for N in range(2, 5)]
        + [bosonic(L, N) for L in range(2, 11) for N in range(2, 6)]
        + [fermionic(L, N) for N in range(2, 9) for L in range(1, N)]
    )

    def test_subset_grams_are_far_from_the_pivot_tolerance(self):
        """Each subset Gram matrix is clearly invertible or singular up to rounding."""
        assert 1e-12 < MARGIN_PIVOT_TOL < 1e-3
        with_margin = [s for s in self.SECTORS if weight_margin(s) is not None]
        assert len(with_margin) == 44
        for sector in with_margin:
            weights = _ket_weights(sector) - sector.copies / sector.local_dim
            gram = weights.T @ weights
            rank = (sector.local_dim - 1) * sector.acting
            for k in range(1, min(rank, sector.dim) + 1):
                subsets = np.array(list(combinations(range(sector.dim), k)))
                grams = gram[subsets[:, :, None], subsets[:, None, :]]
                smallest = np.linalg.eigvalsh(grams)[:, 0]
                assert np.all((smallest >= 1e-3) | (smallest <= 1e-12)), (sector, k)

    @pytest.mark.parametrize("sector", [fermionic(0, 3), fermionic(3, 3), bosonic(2, 1)])
    def test_no_margin_when_every_weight_is_zero(self, sector):
        assert weight_margin(sector) is None


def _exact_min_norm_point(columns: list[list[Fraction]]) -> list[Fraction]:
    """The minimum-norm point of the columns' convex hull, by its KKT conditions.

    Every subset of at most rank + 1 columns gives, through the bordered
    system of ``_exact_margin``, the affine minimum-norm point ``beta`` of
    its hull; the one with nonnegative coordinates and ``<p, beta> >=
    ||beta||^2`` for every column ``p`` is the minimum-norm point.
    """
    rank = np.linalg.matrix_rank(np.array(columns, dtype=float))
    for size in range(1, rank + 2):
        for subset in combinations(columns, size):
            gram = [[sum(a * b for a, b in zip(u, w)) for w in subset] for u in subset]
            bordered = [row + [Fraction(1)] for row in gram]
            bordered.append([Fraction(1)] * size + [Fraction(0)])
            solution = _exact_solve(bordered, [Fraction(0)] * size + [Fraction(1)])
            if solution is None or min(solution[:size]) < 0:
                continue
            beta = [sum(c * p[i] for c, p in zip(solution, subset)) for i in range(len(subset[0]))]
            level = sum(x * x for x in beta)
            if all(sum(a * b for a, b in zip(p, beta)) >= level for p in columns):
                return beta
    raise AssertionError("no subset satisfies the KKT conditions")


def _shifted_weight_columns(sector) -> list[list[Fraction]]:
    shift = Fraction(sector.copies, sector.local_dim)
    return [[Fraction(int(x)) - shift for x in column] for column in _ket_weights(sector).T]


class TestMinNormPoint:
    @pytest.mark.parametrize(
        "sector",
        [distinguishable(3, 2), distinguishable(2, 3), bosonic(4, 2), bosonic(3, 3), fermionic(2, 4)],
    )
    def test_ket_weight_supports_match_the_exact_oracle(self, sector):
        columns = _shifted_weight_columns(sector)
        rng = np.random.default_rng(7)
        for _ in range(12):
            size = int(rng.integers(1, len(columns) + 1))
            support = sorted(rng.choice(len(columns), size, replace=False))
            chosen = [columns[k] for k in support]
            points = np.array(chosen, dtype=float).T
            x = _min_norm_point(points)
            assert np.all(x >= 0) and x.sum() == pytest.approx(1.0, abs=1e-12)
            exact = np.array(_exact_min_norm_point(chosen), dtype=float)
            assert np.max(np.abs(points @ x - exact)) < 1e-12, support

    def test_integer_clouds_match_the_exact_oracle(self):
        # Repeated and affinely dependent points included.
        rng = np.random.default_rng(11)
        for _ in range(20):
            cloud = rng.integers(-3, 4, size=(3, int(rng.integers(1, 9))))
            columns = [[Fraction(int(v)) for v in column] for column in cloud.T]
            x = _min_norm_point(cloud.astype(float))
            assert np.all(x >= 0) and x.sum() == pytest.approx(1.0, abs=1e-12)
            exact = np.array(_exact_min_norm_point(columns), dtype=float)
            assert np.max(np.abs(cloud @ x - exact)) < 1e-12, cloud


def _certificate(state):
    tensor = state.to_tensor()
    mats = _shifted_densities(_axis_views(state.sector, tensor))
    return _level_certificate(state.sector, tensor, mats, mu_norm_sq(state))


class TestLevelCertificate:
    def test_none_on_ghz(self, ghz3):
        assert _certificate(ghz3) is None

    def test_none_on_a_haar_state(self, rng):
        assert _certificate(random_state(distinguishable(3, 2), rng)) is None

    def test_an_exact_critical_state_is_its_own_block(self, w3):
        block = _certificate(w3)
        assert abs(abs(np.vdot(block, w3.amplitudes)) - 1.0) < 1e-12

    def test_a_moved_w_state_is_not_on_its_level(self, w3, rng):
        # Its ``mu2`` lies above the level 1/6 that its weights certify.
        ops = [LocalOperator(p, random_special_linear(rng, 2, 0.4)) for p in range(3)]
        moved = normalize(apply_local(ops, w3))
        assert mu_norm_sq(moved) > 1 / 6 + 1e-3
        assert _certificate(moved) is None

    def test_the_certificate_and_the_chamber_share_one_nnls(self, w3, monkeypatch):
        # ``sloccflow.momentum`` is the function; the module has to be looked up.
        module = importlib.import_module("sloccflow.momentum")
        assert critical.nnls is module.nnls
        calls = []
        solve = module.nnls

        def counting_nnls(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, "nnls", counting_nnls)
        assert _certificate(w3) is not None
        assert calls
