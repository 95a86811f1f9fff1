import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls as reference_nnls

from sloccflow import critical, flow
from sloccflow.canonical import gabcd
from sloccflow.critical import (
    LEVEL_TOL,
    Stability,
    _marginal_feasible,
    _weyl_grid_array,
    alpha_star_eigenspaces,
    classify,
    is_critical,
    orbit_dimension,
    qubit_spectrum_point,
    qubit_weyl_grid,
    self_consistent_critical,
    stability_class,
)
from sloccflow.errors import NotConverged, NotCritical, NotInWeylChamber, ShapeMismatch
from sloccflow.families import (
    bipartite_rank_state,
    boson_pair_state,
    fermion_pair_state,
    scan_qubit_families,
)
from sloccflow.flow import FlowConfig, flow_to_critical
from sloccflow.momentum import (
    SpectrumPoint,
    _one_body_diagonal,
    casimir_constant,
    gell_mann_frame,
    momentum,
    psi,
    total_variance,
)
from sloccflow.morse import morse_index
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    _ket_weights,
    apply_local,
    bosonic,
    dicke,
    distinguishable,
    fermionic,
    normalize,
    random_state,
)

from conftest import FlowStates, haar_unitary, qubits, random_special_linear


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

    @pytest.mark.parametrize(
        "sector,count",
        [(distinguishable(3, 2), 3), (bosonic(3, 2), 1)],
        ids=["distinguishable", "bosonic"],
    )
    def test_spectrum_count_must_match_parties(self, sector, count):
        h = np.array([0.25, -0.25])
        with pytest.raises(NotInWeylChamber, match=f"expected {count} spectra"):
            alpha_star_eigenspaces(SpectrumPoint(sector, (h, h)))


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

    def test_two_mode_dicke_block_of_four_bosons_found(self):
        # The Dicke |2,2> on modes 1 and 2 of four four-mode bosons: a
        # projected descent on ||mu - alpha||^2 misses it from seed 0's starts.
        report = _two_mode_boson_block()
        states = self_consistent_critical(report, seed=0)
        assert len(states) == 1
        v = states[0]
        assert abs(math.sqrt(momentum(v).norm_sq()) - 2.0) < 1e-9
        assert morse_index(v, tol=1e-6) == 52

    def test_capped_starts_are_skipped(self, monkeypatch):
        # The B2 uniform start is critical at once on the wrong level; every
        # random start hits the one-move cap and is skipped, not raised.
        raised = []

        def recording_flow(state, config=None):
            try:
                return flow_to_critical(state, config)
            except NotConverged as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(critical, "flow_to_critical", recording_flow)
        assert self_consistent_critical(_b2_block(), max_iterations=1) == []
        assert len(raised) == 31


def _w_block():
    alpha = qubit_spectrum_point(distinguishable(3, 2), (1 / 6, 1 / 6, 1 / 6))
    return next(
        r
        for r in alpha_star_eigenspaces(alpha)
        if r.multiplicity == 3 and r.eigenvalue > 0
    )


def _b2_block():
    alpha = qubit_spectrum_point(distinguishable(3, 2), (0.0, 0.5, 0.0))
    return next(
        r for r in alpha_star_eigenspaces(alpha) if abs(r.eigenvalue - 0.5) < 1e-12
    )


def _two_mode_boson_block():
    alpha = SpectrumPoint(bosonic(4, 4), (np.array([0.25, 0.25, -0.25, -0.25]),))
    return next(r for r in alpha_star_eigenspaces(alpha) if _marginal_feasible(r))


def _two_qutrit_rank_two_block():
    third = np.array([1 / 6, 1 / 6, -1 / 3])
    alpha = SpectrumPoint(distinguishable(2, 3), (third, third))
    return next(r for r in alpha_star_eigenspaces(alpha) if _marginal_feasible(r))


class TestFlowInsideBlock:
    """The flow from a state of a feasible block stays in it and ends on ``alpha``."""

    @pytest.mark.parametrize(
        "block",
        [_b2_block, _two_qutrit_rank_two_block, _two_mode_boson_block],
        ids=["B2", "qutrits", "bosons"],
    )
    def test_terminal_stays_in_block_with_image_alpha(self, monkeypatch, block):
        states = FlowStates(monkeypatch)
        report = block()
        rng = np.random.default_rng(0)
        z = rng.standard_normal(report.multiplicity) + 1j * rng.standard_normal(
            report.multiplicity
        )
        terminal, _ = flow_to_critical(PureState(report.alpha.sector, report.basis @ z))
        outside = ~np.any(report.basis != 0, axis=1)
        assert outside.any()
        assert np.all(terminal.amplitudes[outside] == 0.0)
        assert psi(terminal).allclose(report.alpha, 1e-8)
        assert states.one_block_per_state(terminal)


def test_random_starts_in_the_b2_block_end_in_few_moves():
    # Fixed-size gradient steps (``flow_step`` at 0.05) need about 200 moves here.
    report = _b2_block()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(report.multiplicity) + 1j * rng.standard_normal(
            report.multiplicity
        )
        terminal, trace = flow_to_critical(PureState(report.alpha.sector, report.basis @ z))
        assert trace.stopped_on == "gradient"
        assert trace.samples[-1][0] <= 12
        assert psi(terminal).allclose(report.alpha, 1e-8)


class TestFirstVerifiedState:
    def test_stops_at_first_verified_start(self, monkeypatch):
        calls = []

        def counted(state, config=None):
            calls.append(state)
            return flow_to_critical(state, config)

        monkeypatch.setattr(critical, "flow_to_critical", counted)
        states = self_consistent_critical(_w_block(), seed=3)
        assert len(states) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "block,made", [(_w_block, []), (_b2_block, [(3,)])], ids=["W", "B2"]
    )
    def test_builds_a_generator_only_past_the_uniform_start(
        self, monkeypatch, block, made
    ):
        # The W block's uniform start verifies; the B2 block's is a product
        # state off alpha, so its random starts need the seeded generator.
        calls = []
        original = np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        assert len(self_consistent_critical(block(), seed=3)) == 1
        assert calls == made

    @pytest.mark.parametrize(
        "block,index", [(_w_block, 2), (_b2_block, 6)], ids=["W", "B2"]
    )
    def test_any_verified_state_gives_the_same_invariants(
        self, monkeypatch, block, index
    ):
        # Rejecting the first verified candidates makes later (random) starts
        # supply the representative: d and the index depend only on alpha.
        report = block()
        d_expected = math.sqrt(sum(float(s @ s) for s in report.alpha.spectra))
        representatives = []
        for skip in (0, 4):
            rejected = []

            def reject_first(state, config=None):
                # A terminal whose gradient reads above the tolerance is no
                # verified state.
                terminal, trace = flow_to_critical(state, config)
                if trace.samples[-1][2] <= 1e-8 and len(rejected) < skip:
                    rejected.append(terminal)
                    trace.samples[-1] = trace.samples[-1][:2] + (math.inf,)
                return terminal, trace

            monkeypatch.setattr(critical, "flow_to_critical", reject_first)
            for seed in range(6):
                states = self_consistent_critical(report, seed=seed)
                assert len(states) == 1 and len(rejected) == skip
                rejected.clear()
                representatives.append(states[0])
        # The random starts reach other points of the critical set.
        overlaps = [
            abs(np.vdot(representatives[0].amplitudes, v.amplitudes))
            for v in representatives
        ]
        assert min(overlaps) < 1 - 1e-6
        for v in representatives:
            d = math.sqrt(momentum(v).norm_sq())
            assert abs(d - d_expected) < 1e-9
            assert morse_index(v, tol=1e-6) == index


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

    # Binary forms as symmetric qubit states: the coefficient of
    # ``x^n1 y^n2`` over ``sqrt(C(L, n1))`` is the amplitude of ``(n1, n2)``.
    # A root of multiplicity exactly ``L/2`` makes a form strictly
    # semistable: its orbit is not closed (the closure holds the orbit of
    # ``x^(L/2) y^(L/2)``), so it is not stable although its stabilizer is
    # finite.  The flow ends on the zero level at d ~ 3e-5 with full orbit
    # dimension, which ``_stability_from`` reads as stable.
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the stability class checks the stabilizer only, not whether the orbit is closed",
    )
    @pytest.mark.parametrize(
        "parties,coefficients",
        [(4, {3: 1, 2: -1}), (6, {5: 1, 4: -3, 3: 2})],
        ids=["x2y(x-y)", "x3y(x-y)(x-2y)"],
    )
    def test_strictly_semistable_binary_form_not_stable(self, parties, coefficients):
        sector = bosonic(parties, 2)
        amps = [
            coefficients.get(n1, 0) / math.sqrt(math.comb(parties, n1))
            for n1, _ in sector.basis_labels()
        ]
        v = normalize(PureState(sector, np.array(amps, dtype=complex)))
        assert classify(v).stability is not Stability.STABLE


def sheared_w3():
    """``W_3`` moved by a shear on the first party: its flow takes a few moves."""
    w3 = qubits([0, 1, 1, 0, 1, 0, 0, 0], 3)
    ops = [LocalOperator(0, np.array([[1.0, 0.5], [0.0, 1.0]]))]
    ops += [LocalOperator(p, np.eye(2)) for p in (1, 2)]
    return normalize(apply_local(ops, w3))


class TestMorseGate:
    """The Morse index reads the flow terminal's gradient, gated at ``morse_tol``."""

    def test_loose_flow_tolerance_leaves_the_terminal_not_critical(self):
        state = sheared_w3()
        _, trace = flow_to_critical(state, FlowConfig(tolerance=1e-3))
        assert 1e-6 < trace.samples[-1][2] <= 1e-3
        with pytest.raises(
            NotCritical, match=r"gradient norm .* exceeds tolerance 1\.0e-06"
        ):
            critical.classify_with_trace(state, FlowConfig(tolerance=1e-3))

    def test_tighter_flow_tolerance_reads_the_w_family(self):
        record, trace = critical.classify_with_trace(sheared_w3(), FlowConfig(tolerance=1e-5))
        assert trace.samples[-1][2] <= 1e-5
        assert record.morse_index == 2
        assert record.d_value == pytest.approx(math.sqrt(1 / 6), abs=1e-9)


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


    # The flow builds one column block per state it stands on: the input, a
    # certified block and each accepted trial.  The input's block decides
    # stable against semistable and the terminal's gives the Morse frame, so
    # nothing builds columns after the flow.  The variance is read off the
    # level and builds none.
    @pytest.mark.parametrize(
        "amps,nonzero", [([0, 2, 1, 0, 1, 0, 0, 0], True), ([2, 0, 0, 0, 0, 0, 0, 1], False)]
    )
    def test_one_momentum_image_and_one_column_build(self, monkeypatch, amps, nonzero):
        # ``sloccflow.momentum`` is the function; the module is looked up by name.
        modules = [
            importlib.import_module(f"sloccflow.{name}")
            for name in ("critical", "flow", "morse", "momentum")
        ]
        calls = {"momentum": 0, "_generator_columns": 0}
        originals = {name: getattr(modules[-1], name) for name in calls}

        def counting(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return originals[name](*args, **kwargs)

            return wrapper

        for module in modules:
            for name in calls:
                if getattr(module, name, None) is originals[name]:
                    monkeypatch.setattr(module, name, counting(name))
        states = FlowStates(monkeypatch)
        after_flow = []

        def flagged(*args, **kwargs):
            out = flow_to_critical(*args, **kwargs)
            after_flow.append(len(states.blocks))
            return out

        monkeypatch.setattr(critical, "flow_to_critical", flagged)
        record, trace = critical.classify_with_trace(qubits(amps, 3))
        assert (record.lambda_value > 0.1) is nonzero
        # Every column build is a block's, and the blocks are the flow's.
        assert calls == {"momentum": 1, "_generator_columns": len(states.blocks)}
        assert states.one_block_per_state(trace.terminal)
        assert after_flow == [len(states.blocks)]
        assert record.variance == pytest.approx(total_variance(record.state), abs=1e-12)

    # (state, on the zero level), each moved by a random invertible local map.
    VARIANCE_CASES = {
        "qutrit-pair-rank-2": (lambda: bipartite_rank_state(3, 2), False),
        "qutrit-pair-rank-3": (lambda: bipartite_rank_state(3, 3), True),
        "dicke-4-1": (lambda: dicke(1, 4), False),
        "dicke-4-2": (lambda: dicke(2, 4), True),
        "boson-pair-3-1": (lambda: boson_pair_state(3, 1), False),
        "boson-pair-3-3": (lambda: boson_pair_state(3, 3), True),
        "fermion-pair-4-1": (lambda: fermion_pair_state(4, 1), False),
        "fermion-pair-4-2": (lambda: fermion_pair_state(4, 2), True),
    }

    @pytest.mark.parametrize("case", sorted(VARIANCE_CASES))
    def test_variance_read_off_the_level_matches_the_frame(self, rng, case):
        build, zero_level = self.VARIANCE_CASES[case]
        state = build()
        sector = state.sector
        ops = [
            LocalOperator(p, random_special_linear(rng, sector.local_dim, 0.3))
            for p in range(sector.acting)
        ]
        record = classify(normalize(apply_local(ops, state)))
        assert (record.lambda_value <= 1e-8) is zero_level
        c = casimir_constant(sector)
        assert abs(record.variance - total_variance(record.state)) <= 1e-12 * c


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

    def test_array_grid_matches_fractions_at_denominator_40(self):
        # D = lcm(1..40) is about 5.3e15, just under 2**53.
        grid = _weyl_grid_array(2, 40)
        assert grid.dtype == np.float64 and grid.shape == (245, 2)
        assert list(map(tuple, grid.tolist())) == _fraction_weyl_grid(2, 40)

    def test_grid_past_int64_is_an_input_error(self):
        # lcm(1..43) is about 9.4e18, past 2**63 - 1; the one-party grid it
        # would give is small, so only the bound can reject it.
        with pytest.raises(ValueError, match="int64"):
            _weyl_grid_array(1, 43)
        with pytest.raises(ValueError, match="int64"):
            qubit_weyl_grid(1, 43)


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
    _, residual = reference_nnls(np.stack(rows), np.array(rhs))
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
            got = _one_body_diagonal(alpha.sector, alpha.spectra)
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


def _level(alpha: SpectrumPoint) -> float:
    """``||alpha||^2`` in the pairing of the blocks: times ``L`` for identical particles."""
    level = sum(float(np.sum(s * s)) for s in alpha.spectra)
    return level * alpha.sector.parties if alpha.sector.identical else level


def _screen(points):
    """``_level_screen`` of chamber points of one sector, one row per point."""
    spectra = np.array([np.concatenate(alpha.spectra) for alpha in points])
    return critical._level_screen(points[0].sector, spectra)


class TestLevelScreen:
    """The batched screen keeps every point whose blocks can pass the level check."""

    @pytest.mark.parametrize("parties,q", [(3, 6), (4, 4)])
    def test_keeps_every_on_level_block_and_reads_the_longest(self, parties, q):
        sector = distinguishable(parties, 2)
        points = [qubit_spectrum_point(sector, lam) for lam in qubit_weyl_grid(parties, q)]
        keep, longest = _screen(points)
        multiplicities = []
        for alpha, kept in zip(points, keep):
            for report in alpha_star_eigenspaces(alpha):
                multiplicities.append(report.multiplicity)
                if abs(report.eigenvalue - _level(alpha)) <= LEVEL_TOL:
                    assert kept, alpha.spectra
        assert 0 < keep.sum() < 0.1 * len(points)
        assert longest == max(multiplicities)

    @pytest.mark.parametrize(
        "block", [_two_qutrit_rank_two_block, _two_mode_boson_block], ids=["qutrits", "bosons"]
    )
    def test_keeps_a_point_with_a_feasible_block(self, block):
        alpha = block().alpha
        keep, longest = _screen([alpha])
        assert keep.tolist() == [True]
        assert longest == max(r.multiplicity for r in alpha_star_eigenspaces(alpha))

    def test_keeps_every_feasible_point_of_the_sample_sectors(self):
        by_sector: dict = {}
        for alpha in _sample_alphas():
            by_sector.setdefault(alpha.sector, []).append(alpha)
        for points in by_sector.values():
            keep, longest = _screen(points)
            reports = [alpha_star_eigenspaces(alpha) for alpha in points]
            for kept, blocks in zip(keep, reports):
                if any(_marginal_feasible(r) for r in blocks):
                    assert kept
            assert not keep.all()
            assert longest == max(r.multiplicity for blocks in reports for r in blocks)


def _least_distance(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_min_norm_point``'s reduction: ``A = [P; 1^T]`` and ``b = e_last``."""
    return np.vstack([points, np.ones(points.shape[1])]), np.append(np.zeros(len(points)), 1.0)


def _nnls_problems():
    """Seeded ``(kind, A, b)`` problems for the package's NNLS."""
    rng = np.random.default_rng(1974)
    for _ in range(300):
        m, n = rng.integers(1, 9, size=2)
        yield "dense", rng.standard_normal((m, n)), rng.standard_normal(m)
    for _ in range(300):
        # The chamber-scan shape: 0/1 level populations per party plus a row
        # of ones, against marginals the kets can or cannot reproduce.
        parties, N, n = rng.integers(1, 5), rng.integers(2, 4), rng.integers(1, 9)
        levels = rng.integers(0, N, size=(parties, n))
        rows = (levels[:, None, :] == np.arange(N)[:, None]).reshape(parties * N, n)
        A = np.vstack([rows, np.ones(n)])
        yield "feasible", A, A @ rng.dirichlet(np.ones(n))
        marginals = rng.dirichlet(np.ones(N), size=parties).ravel()
        yield "marginals", A, np.append(marginals, 1.0)
    for _ in range(300):
        # Exact integer products, so the rank deficiency is not rounded away.
        m, n = rng.integers(2, 9, size=2)
        r = rng.integers(1, min(m, n))
        A = rng.integers(-3, 4, size=(m, r)) @ rng.integers(-2, 3, size=(r, n))
        yield "rank-deficient", A.astype(float), rng.standard_normal(m)
        A = rng.standard_normal((m, n))
        yield "duplicates", A[:, rng.integers(0, n, size=2 * n)], rng.standard_normal(m)
    for _ in range(50):
        m, n = rng.integers(1, 9, size=2)
        yield "negative", rng.random((m, n)), -rng.random(m) - 0.1
        yield "zero", rng.standard_normal((m, n)), np.zeros(m)
    for _ in range(100):
        # Integer clouds, repeated and affinely dependent points included.
        cloud = rng.integers(-3, 4, size=(rng.integers(1, 5), rng.integers(1, 9)))
        yield "least-distance", *_least_distance(cloud.astype(float))
    for sector in (distinguishable(3, 2), distinguishable(2, 3), bosonic(4, 2), fermionic(2, 4)):
        weights = _ket_weights(sector) - sector.copies / sector.local_dim
        for _ in range(25):
            size = rng.integers(1, sector.dim + 1)
            support = rng.choice(sector.dim, size, replace=False)
            yield "least-distance", *_least_distance(weights[:, support])


class TestNnls:
    """The Lawson-Hanson solve against the reference implementation."""

    def test_matches_reference(self):
        verdicts = set()
        for kind, A, b in _nnls_problems():
            x, residual = critical.nnls(A, b)
            _, reference = reference_nnls(A, b)
            assert x.shape == (A.shape[1],) and np.all(x >= 0), kind
            assert abs(residual - np.linalg.norm(A @ x - b)) <= 1e-14 * max(1.0, residual)
            assert abs(residual - reference) <= 1e-12 * max(1.0, np.linalg.norm(b)), kind
            # KKT: no coordinate at zero could lower the residual.
            dual = A.T @ (b - A @ x)
            assert np.all(dual[x == 0] <= 1e-10), kind
            # ``_marginal_feasible``'s verdict.
            assert (residual <= 1e-9) == (reference <= 1e-9), kind
            verdicts.add((kind, bool(residual <= 1e-9)))
            if kind in ("negative", "zero"):
                assert not x.any() and residual == np.linalg.norm(b)
        assert {("feasible", True), ("marginals", True), ("marginals", False)} <= verdicts
        # The origin lies in some of the hulls and outside others.
        assert {("least-distance", True), ("least-distance", False)} <= verdicts


class TestTrivialLocalDimension:
    """With one level per particle there is no local operation to act with."""

    @pytest.mark.parametrize("sector", [distinguishable(2, 1), bosonic(3, 1), fermionic(1, 1)])
    @pytest.mark.parametrize("call", [classify, total_variance, orbit_dimension])
    def test_raises_shape_mismatch(self, sector, call):
        state = PureState(sector, np.ones(sector.dim))
        with pytest.raises(ShapeMismatch, match="no local operations"):
            call(state)

    def test_frame_needs_two_levels(self):
        with pytest.raises(ShapeMismatch, match="no local operations"):
            gell_mann_frame(1)
        assert gell_mann_frame(2).shape == (3, 2, 2)
