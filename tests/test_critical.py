import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls

from sloccflow import critical
from sloccflow.canonical import gabcd
from sloccflow.critical import (
    LEVEL_TOL,
    Stability,
    _alpha_diagonal_values,
    _marginal_feasible,
    alpha_star_eigenspaces,
    classify,
    is_critical,
    orbit_dimension,
    qubit_spectrum_point,
    qubit_weyl_grid,
    self_consistent_critical,
    stability_class,
)
from sloccflow.errors import NotInWeylChamber
from sloccflow.families import scan_qubit_families
from sloccflow.momentum import SpectrumPoint, psi
from sloccflow.statespace import (
    LocalOperator,
    apply_local,
    bosonic,
    distinguishable,
    fermionic,
    random_state,
)

from conftest import haar_unitary, qubits


class TestIsCritical:
    def test_ghz(self, ghz3):
        ok, lam = is_critical(ghz3)
        assert ok and abs(lam) < 1e-13

    def test_w(self, w3):
        ok, lam = is_critical(w3)
        assert ok and abs(lam - 1 / 6) < 1e-13

    def test_noncritical(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        ok, _ = is_critical(v)
        assert not ok


class TestAlphaStarEigenspaces:
    def test_w_alpha_triple_degeneracy(self):
        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (1 / 6, 1 / 6, 1 / 6))
        reports = alpha_star_eigenspaces(alpha)
        triple = [r for r in reports if r.multiplicity == 3]
        assert len(triple) == 2  # eigenvalue +1/6 block and its mirror
        positive = [r for r in triple if abs(r.eigenvalue - 1 / 6) < 1e-12]
        assert len(positive) == 1
        kets = {int(np.argmax(np.abs(positive[0].basis[:, c]))) for c in range(3)}
        assert kets == {0b001, 0b010, 0b100}

    def test_biseparable_alpha_quadruple(self):
        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (0.5, 0.0, 0.0))
        reports = alpha_star_eigenspaces(alpha)
        big = [r for r in reports if abs(r.eigenvalue - 0.5) < 1e-12]
        assert len(big) == 1 and big[0].multiplicity == 4
        kets = {int(np.argmax(np.abs(big[0].basis[:, c]))) for c in range(4)}
        assert kets == {0b000, 0b001, 0b010, 0b011}

    def test_nondegenerate_alpha_separable_eigenvectors(self):
        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (0.31, 0.17, 0.05))
        reports = alpha_star_eigenspaces(alpha)
        assert all(r.multiplicity == 1 for r in reports)
        assert len(reports) == 8

    def test_multiplicities_sum_and_brute_force_values(self):
        sector = distinguishable(3, 2)
        lambdas = (1 / 4, 1 / 4, 1 / 12)
        reports = alpha_star_eigenspaces(qubit_spectrum_point(sector, lambdas))
        assert sum(r.multiplicity for r in reports) == sector.dim
        brute = sorted(
            sum(((-1.0) ** int(bit)) * lam
                for bit, lam in zip(np.binary_repr(i, 3), lambdas))
            for i in range(8)
        )
        reported = sorted(
            val for r in reports for val in [r.eigenvalue] * r.multiplicity
        )
        assert np.allclose(reported, brute, atol=1e-12)

    def test_identical_sector_diagonal(self):
        sector = bosonic(4, 2)
        alpha = SpectrumPoint(sector, (np.array([0.25, -0.25]),))
        reports = alpha_star_eigenspaces(alpha)
        assert all(r.multiplicity == 1 for r in reports)
        values = sorted(r.eigenvalue for r in reports)
        assert np.allclose(values, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_fermionic_subset_sums(self):
        from sloccflow.statespace import fermionic

        sector = fermionic(2, 4)
        alpha = SpectrumPoint(sector, (np.array([0.25, 0.25, -0.25, -0.25]),))
        reports = alpha_star_eigenspaces(alpha)
        assert sum(r.multiplicity for r in reports) == 6
        by_value = {round(r.eigenvalue, 12): r.multiplicity for r in reports}
        assert by_value == {0.5: 1, 0.0: 4, -0.5: 1}

    def test_chamber_validation(self):
        sector = distinguishable(3, 2)
        bad = SpectrumPoint(
            sector,
            (np.array([-0.2, 0.2]), np.array([0.0, 0.0]), np.array([0.0, 0.0])),
        )
        with pytest.raises(NotInWeylChamber):
            alpha_star_eigenspaces(bad)

    def test_csv_table(self):
        from sloccflow.critical import eigenspace_csv

        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (1 / 6, 1 / 6, 1 / 6))
        text = eigenspace_csv(alpha_star_eigenspaces(alpha))
        lines = text.splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        assert sum(int(row.split(",")[1]) for row in lines[1:]) == 8


class TestSelfConsistency:
    def test_w_family_recovered(self):
        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (1 / 6, 1 / 6, 1 / 6))
        reports = [
            r
            for r in alpha_star_eigenspaces(alpha)
            if r.multiplicity == 3 and r.eigenvalue > 0
        ]
        states = self_consistent_critical(reports[0], seed=3)
        assert len(states) == 1
        v = states[0]
        assert np.allclose(np.abs(v.amplitudes[[1, 2, 4]]), 1 / math.sqrt(3), atol=1e-7)
        ok, lam = is_critical(v, 1e-7)
        assert ok and abs(lam - 1 / 6) < 1e-6
        assert psi(v).allclose(alpha, 1e-7)

    def test_biseparable_case(self):
        sector = distinguishable(3, 2)
        # lambda_1 = lambda_3 = 0 block: state |000> + |101> over sqrt(2).
        alpha = qubit_spectrum_point(sector, (0.0, 0.5, 0.0))
        reports = [
            r
            for r in alpha_star_eigenspaces(alpha)
            if abs(r.eigenvalue - 0.5) < 1e-12
        ]
        assert reports and reports[0].multiplicity == 4
        states = self_consistent_critical(reports[0], seed=5)
        # One critical orbit: party 2 pure, a maximally entangled pair across
        # parties 1 and 3 (all such pairs are isotropy-equivalent).
        assert len(states) == 1
        v = states[0]
        assert psi(v).allclose(alpha, 1e-7)
        ok, lam = is_critical(v, 1e-7)
        assert ok and abs(lam - 0.5) < 1e-6
        from sloccflow.momentum import reduced_density

        assert np.max(np.abs(reduced_density(v, 1) - np.diag([1, 0]))) < 1e-7

    def test_infeasible_alpha_empty(self):
        sector = distinguishable(3, 2)
        alpha = qubit_spectrum_point(sector, (1 / 4, 1 / 4, 1 / 4))
        for report in alpha_star_eigenspaces(alpha):
            assert self_consistent_critical(report, seed=1) == []

    def test_fermion_slater_family_recovered(self):
        from sloccflow.families import fermion_pair_state
        from sloccflow.statespace import fermionic

        sector = fermionic(2, 4)
        alpha = SpectrumPoint(sector, (np.array([0.25, 0.25, -0.25, -0.25]),))
        top = [r for r in alpha_star_eigenspaces(alpha) if r.eigenvalue > 0.4]
        states = self_consistent_critical(top[0], seed=1)
        assert len(states) == 1
        expected = fermion_pair_state(4, 1)
        assert abs(abs(np.vdot(states[0].amplitudes, expected.amplitudes)) - 1) < 1e-8

    def test_dicke_candidates_accepted_below_half_filling(self):
        L = 5
        sector = bosonic(L, 2)
        for k in range(L + 1):
            lam = abs(L - 2 * k) / (2 * L)
            alpha = SpectrumPoint(sector, (np.array([lam, -lam]),))
            accepted = []
            for report in alpha_star_eigenspaces(alpha):
                accepted.extend(self_consistent_critical(report, seed=2))
            labels = [
                int(np.argmax(np.abs(v.amplitudes))) for v in accepted
            ]
            # Only excitation counts at or below half filling match alpha.
            expected = {m for m in (k, L - k) if 2 * m <= L}
            assert set(labels) == expected


class TestOrbitDimension:
    def test_examples(self, sep3, ghz3, bell):
        assert orbit_dimension(sep3) == 6
        assert orbit_dimension(ghz3) == 14
        assert orbit_dimension(bell) == 6

    def test_unitary_invariance(self, rng):
        sector = distinguishable(3, 2)
        v = random_state(sector, rng)
        base = orbit_dimension(v)
        ops = [LocalOperator(p, haar_unitary(rng, 2)) for p in range(3)]
        assert orbit_dimension(apply_local(ops, v)) == base


class TestStability:
    def test_generic_gabcd_stable(self):
        v = gabcd(np.array([0.9, 0.55 + 0.2j, 0.31, 0.17 - 0.4j]))
        assert orbit_dimension(v) == 24
        assert stability_class(v) is Stability.STABLE

    def test_w_nullcone(self, w3):
        assert stability_class(w3) is Stability.NULLCONE

    def test_l_family_semistable(self):
        from sloccflow.canonical import four_qubit_family

        v = four_qubit_family("L_abc2", (1.0, 1.0, 1.0))
        assert stability_class(v) is Stability.SEMISTABLE


class TestClassify:
    def test_w_record(self, w3):
        record = classify(w3)
        assert abs(record.lambda_value - 1 / 6) < 1e-8
        assert abs(record.d_value - math.sqrt(1 / 6)) < 1e-8
        assert record.morse_index == 2
        assert record.stability is Stability.NULLCONE
        assert abs(record.d_value**2 - record.lambda_value) < 1e-8

    def test_ghz_record(self, ghz3):
        record = classify(ghz3)
        assert record.d_value < 1e-4
        assert record.morse_index == 0
        assert record.stability is Stability.SEMISTABLE
        assert record.stratum.is_zero(0.0)

    def test_separable_record(self, sep3):
        record = classify(sep3)
        assert abs(record.d_value - math.sqrt(3 / 2)) < 1e-8
        assert record.morse_index == 8
        assert record.stability is Stability.NULLCONE

    def test_record_round_trips(self, w3):
        import json

        doc = classify(w3).to_json()
        again = json.loads(json.dumps(doc))
        assert again == doc
        assert set(again) >= {
            "lambda", "d", "variance", "morse_index", "stability",
            "stratum", "terminal_state",
        }


class TestWeylGrid:
    def test_grid_respects_polytope(self):
        grid = qubit_weyl_grid(3, max_denominator=6)
        assert (0.5, 0.0, 0.0) in grid
        assert (1 / 6, 1 / 6, 1 / 6) in grid
        # p = (0, 1/2, 1/2) violates the polygonal inequality at party 1.
        assert (0.5, 0.5, 0.0) not in grid
        assert all(any(v > 0 for v in combo) for combo in grid)

    def test_integer_grid_matches_fraction_construction(self):
        for parties, top in ((1, 12), (2, 12), (3, 12), (4, 6)):
            for q in range(1, top + 1):
                assert qubit_weyl_grid(parties, q) == _fraction_weyl_grid(parties, q)


def _fraction_weyl_grid(parties: int, max_denominator: int) -> list[tuple[float, ...]]:
    """The grid built in exact Fractions, as the scan first computed it."""
    values = sorted(
        {
            Fraction(a, b)
            for b in range(1, max_denominator + 1)
            for a in range(0, b // 2 + 1)
            if Fraction(a, b) <= Fraction(1, 2)
        }
    )
    grid = []
    for combo in itertools.product(values, repeat=parties):
        if all(v == 0 for v in combo):
            continue
        minima = [Fraction(1, 2) - v for v in combo]
        total = sum(minima)
        if any(p > total - p for p in minima):
            continue
        grid.append(tuple(float(v) for v in combo))
    return grid


def _label_loop_values(alpha: SpectrumPoint) -> np.ndarray:
    """Chamber-operator diagonal summed ket by ket over the basis labels."""
    sector = alpha.sector
    labels = sector.basis_labels()
    values = np.zeros(len(labels))
    if sector.kind == "distinguishable":
        for i, digits in enumerate(labels):
            values[i] = sum(alpha.spectra[p][d] for p, d in enumerate(digits))
    elif sector.kind == "bosonic":
        for i, occ in enumerate(labels):
            values[i] = float(np.dot(occ, alpha.spectra[0]))
    else:
        for i, subset in enumerate(labels):
            values[i] = sum(alpha.spectra[0][s - 1] for s in subset)
    return values


def _chain_split_blocks(alpha: SpectrumPoint, rel_gap: float = 1e-9):
    """(eigenvalue, basis) per block: a ket joins the block while it is within
    the gap of the block's last ket in descending order."""
    values = _label_loop_values(alpha)
    order = np.argsort(values)[::-1]
    gap = rel_gap * max(1.0, float(np.max(np.abs(values))))
    blocks: list[list[int]] = []
    for idx in order:
        if blocks and abs(values[idx] - values[blocks[-1][-1]]) <= gap:
            blocks[-1].append(int(idx))
        else:
            blocks.append([int(idx)])
    out = []
    for block in blocks:
        basis = np.zeros((alpha.sector.dim, len(block)), dtype=complex)
        for col, idx in enumerate(block):
            basis[idx, col] = 1.0
        out.append((float(np.mean(values[block])), basis))
    return out


def _label_loop_feasible(report, tol: float = 1e-9) -> bool:
    """NNLS feasibility with its rows built label by label, on every block."""
    sector = report.alpha.sector
    labels = sector.basis_labels()
    kets = [
        labels[int(np.argmax(np.abs(report.basis[:, c])))]
        for c in range(report.multiplicity)
    ]
    N, L = sector.local_dim, sector.parties
    rows, rhs = [], []
    if sector.kind == "distinguishable":
        for p in range(L):
            for j in range(N):
                rows.append(np.array([1.0 if ket[p] == j else 0.0 for ket in kets]))
                rhs.append(1.0 / N + report.alpha.spectra[p][j])
    else:
        for j in range(N):
            if sector.kind == "bosonic":
                weights = [ket[j] / L for ket in kets]
            else:
                weights = [(1.0 if (j + 1) in ket else 0.0) / L for ket in kets]
            rows.append(np.array(weights))
            rhs.append(1.0 / N + report.alpha.spectra[0][j])
    rows.append(np.ones(len(kets)))
    rhs.append(1.0)
    _, residual = nnls(np.stack(rows), np.array(rhs))
    return residual <= tol


def _chamber_points(sector, max_denominator: int):
    """Chamber points whose shifted spectra have entries n/M, M <= max_denominator."""
    N = sector.local_dim
    spectra = set()
    for M in range(1, max_denominator + 1):
        for parts in itertools.combinations_with_replacement(range(M + 1), N):
            if sum(parts) == M:
                spectra.add(tuple(n / M - 1.0 / N for n in reversed(parts)))
    copies = 1 if sector.identical else sector.parties
    for combo in itertools.product(sorted(spectra), repeat=copies):
        yield SpectrumPoint(sector, tuple(np.array(s) for s in combo))


def _sample_alphas():
    three_qubits = distinguishable(3, 2)
    for lambdas in qubit_weyl_grid(3, 6):
        yield qubit_spectrum_point(three_qubits, lambdas)
    for sector in (bosonic(5, 2), bosonic(3, 3), fermionic(2, 4), fermionic(3, 6)):
        yield from _chamber_points(sector, 12)
    yield from _chamber_points(distinguishable(2, 3), 6)


class TestChamberBlocks:
    """Block data from the cached ket weights against the label loops."""

    def test_diagonal_values_match_label_loop_exactly(self):
        kinds = set()
        for alpha in _sample_alphas():
            kinds.add(alpha.sector.kind)
            got = _alpha_diagonal_values(alpha)
            assert got.tobytes() == _label_loop_values(alpha).tobytes()
        assert kinds == {"distinguishable", "bosonic", "fermionic"}

    def test_blocks_match_chain_split_exactly(self):
        for alpha in _sample_alphas():
            reports = alpha_star_eigenspaces(alpha)
            expected = _chain_split_blocks(alpha)
            assert len(reports) == len(expected)
            for report, (eig, basis) in zip(reports, expected):
                assert np.float64(report.eigenvalue).tobytes() == np.float64(eig).tobytes()
                assert report.multiplicity == basis.shape[1]
                assert np.array_equal(report.basis, basis)

    def test_feasibility_matches_label_loop(self):
        off_level = feasible = 0
        at_level_infeasible = set()
        for alpha in _sample_alphas():
            level = sum(float(np.sum(s * s)) for s in alpha.spectra)
            if alpha.sector.identical:
                level *= alpha.sector.parties
            for report in alpha_star_eigenspaces(alpha):
                verdict = _label_loop_feasible(report)
                assert _marginal_feasible(report) == verdict
                if abs(report.eigenvalue - level) > LEVEL_TOL:
                    off_level += 1
                    assert not verdict
                elif verdict:
                    feasible += 1
                else:
                    at_level_infeasible.add(alpha.sector.kind)
        # Both the level check and the NNLS verdict decide some blocks.
        assert off_level > 0 and feasible > 0
        assert at_level_infeasible == {"distinguishable", "bosonic", "fermionic"}

    def test_nnls_runs_only_on_blocks_at_the_level(self, monkeypatch):
        calls = []
        solve = critical.nnls

        def counting_nnls(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(critical, "nnls", counting_nnls)
        scan_qubit_families(3, 6)
        at_level = blocks = 0
        for lambdas in qubit_weyl_grid(3, 6):
            level = 2.0 * sum(lam * lam for lam in lambdas)
            # Distinct ket values sum_p (+-lambda_p); each is one block.
            values = {
                round(sum(-lam if bit else lam for bit, lam in zip(bits, lambdas)), 9)
                for bits in itertools.product((0, 1), repeat=3)
            }
            blocks += len(values)
            at_level += sum(abs(v - level) <= 1e-6 for v in values)
        assert 0 < len(calls) == at_level
        # 11 of 954 blocks at this denominator (29 of 50 900 at 12).
        assert len(calls) < 0.02 * blocks
