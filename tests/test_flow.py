import json
import math

import numpy as np
import pytest

from sloccflow.canonical import (
    four_qubit_family,
    four_qubit_family_parts,
    gabcd_span_distance,
)
from sloccflow import flow, morse
from sloccflow.critical import Stability, classify_with_trace
from sloccflow.demos import FOUR_QUBIT_DEMO_PARAMS
from sloccflow.errors import Divergent, NotConverged, ShapeMismatch
from sloccflow.families import bipartite_rank_state
from sloccflow.flow import (
    FlowConfig,
    flow_step,
    flow_to_critical,
    gradient_norm,
    one_param_limit,
    projected_gradient,
    slocc_distance,
    stratum_label,
)
from sloccflow.critical import _stability_from
from sloccflow.momentum import (
    MomentumPoint,
    _generator_block,
    momentum,
    mu_norm_sq,
    mu_star_apply,
    psi,
)
from sloccflow.morse import _critical_spectrum
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

from conftest import FlowStates, qubits, random_special_linear


def _block(state):
    return _generator_block(state.sector, state.to_tensor())


def perturbed_w(w3, g=None):
    g = np.diag([2.0, 0.5]) if g is None else g
    ops = [LocalOperator(0, g), LocalOperator(1, np.eye(2)), LocalOperator(2, np.eye(2))]
    return normalize(apply_local(ops, w3))


class TestFlowStep:
    def test_critical_state_fixed(self, w3):
        out = flow_step(w3, 0.07)
        assert out.overlap_distance(w3) < 1e-12

    def test_zero_momentum_fixed(self, ghz3):
        out = flow_step(ghz3, 0.07)
        assert out.overlap_distance(ghz3) < 1e-14

    def test_descent(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        assert mu_norm_sq(flow_step(v, 0.1)) < mu_norm_sq(v)

    def test_orbit_confinement(self, rng):
        # The step must equal applying explicit unit-determinant factors; an
        # identical-particle factor acts on every axis.
        step = 0.05
        for sector in (distinguishable(3, 2), bosonic(3, 3), fermionic(2, 4)):
            v = random_state(sector, rng)
            factors = []
            for m in momentum(v).coadjoint_matrices():
                vals, vecs = np.linalg.eigh(m)
                factor = (vecs * np.exp(-step * vals)) @ vecs.conj().T
                assert abs(np.linalg.det(factor) - 1.0) < 1e-12
                factors.append(factor)
            manual = normalize(
                apply_local([LocalOperator(p, f) for p, f in enumerate(factors)], v)
            )
            assert manual.overlap_distance(v) > 1e-3
            assert flow_step(v, step).overlap_distance(manual) < 1e-10

    def test_monotone_for_small_steps(self, rng):
        for sector in (distinguishable(3, 2), bosonic(3, 2)):
            v = random_state(sector, rng)
            previous = mu_norm_sq(v)
            for _ in range(60):
                v = flow_step(v, 0.1)
                current = mu_norm_sq(v)
                assert current <= previous + 1e-12
                previous = current


class TestGradientNorm:
    def test_zero_momentum(self, ghz3):
        assert gradient_norm(ghz3) < 1e-14

    def test_w_critical(self, w3):
        assert gradient_norm(w3) < 1e-14

    def test_noncritical(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        assert gradient_norm(v) > 1e-3

    def test_fixed_point_iff_small_gradient(self, rng):
        v = random_state(distinguishable(3, 2), rng)
        moved = flow_step(v, 0.05).overlap_distance(v)
        assert (moved < 1e-9) == (gradient_norm(v) < 1e-8)
        terminal, _ = flow_to_critical(v)
        if gradient_norm(terminal) <= 1e-9:
            assert flow_step(terminal, 0.05).overlap_distance(terminal) < 1e-8


# Every sector kind, up to ``bosonic(10, 2)`` and ``distinguishable(10, 2)``.
GRADIENT_SECTORS = [
    distinguishable(3, 2), distinguishable(4, 3), distinguishable(10, 2),
    bosonic(5, 3), bosonic(10, 2), fermionic(2, 6), fermionic(3, 6),
]


@pytest.mark.parametrize("sector", GRADIENT_SECTORS, ids=str)
def test_projected_gradient_is_the_one_body_route(sector):
    # The gradient ``C m - lam v`` off the generator columns against the
    # one-body image of the momentum, ``mu* v - <v|mu* v> v``.
    v = random_state(sector, np.random.default_rng(3))
    image = mu_star_apply(momentum(v), v)
    rayleigh = np.vdot(v.amplitudes, image).real
    grad, lam = projected_gradient(v)
    assert np.max(np.abs(grad - (image - rayleigh * v.amplitudes))) <= 1e-12
    assert abs(lam - rayleigh) <= 1e-12
    assert gradient_norm(v) == pytest.approx(np.linalg.norm(grad), rel=1e-12)


class TestFlowToCritical:
    def test_ghz_class_reaches_zero_level(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        terminal, trace = flow_to_critical(v)
        assert trace.converged
        assert mu_norm_sq(terminal) <= 1e-8

    def test_already_critical(self, w3):
        terminal, trace = flow_to_critical(w3)
        assert trace.converged and len(trace.samples) == 1
        assert terminal.overlap_distance(w3) < 1e-12

    def test_perturbed_w_returns_to_w_orbit(self, w3):
        terminal, trace = flow_to_critical(perturbed_w(w3))
        assert abs(mu_norm_sq(terminal) - 1 / 6) < 1e-6
        for s in psi(terminal).spectra:
            assert np.max(np.abs(s - np.array([1 / 6, -1 / 6]))) < 1e-6

    def test_terminal_rayleigh_consistency(self, rng, w3):
        for state in (perturbed_w(w3), random_state(distinguishable(3, 2), rng)):
            terminal, _ = flow_to_critical(state)
            from sloccflow.momentum import mu_star_apply

            image = mu_star_apply(momentum(terminal), terminal)
            lam = float(np.vdot(terminal.amplitudes, image).real)
            assert abs(lam - mu_norm_sq(terminal)) < 1e-8

    def test_trace_monotone(self, w3):
        _, trace = flow_to_critical(perturbed_w(w3))
        values = [m for _, m, _ in trace.samples]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_not_converged(self, w3):
        config = FlowConfig(max_iterations=3)
        with pytest.raises(NotConverged) as excinfo:
            flow_to_critical(perturbed_w(w3), config)
        assert excinfo.value.trace is not None
        assert not excinfo.value.trace.converged

    @pytest.mark.parametrize(
        "knobs",
        [
            {"step_size": math.nan},
            {"step_size": math.inf},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"record_every": 1.5},
            {"record_every": 100.0},
            {"record_every": True},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"max_iterations": 0},
        ],
    )
    def test_config_rejects_non_finite(self, knobs):
        with pytest.raises(ValueError):
            FlowConfig(**knobs)

    def test_config_rejects_a_step_size_nothing_reads(self):
        with pytest.raises(ValueError, match="sizes no move"):
            FlowConfig(step_size=0.1)


def _moved(state, rng, spread=0.4):
    """The state under one random unit-determinant matrix per party."""
    N = state.sector.local_dim
    ops = [
        LocalOperator(p, random_special_linear(rng, N, spread))
        for p in range(state.sector.parties)
    ]
    return normalize(apply_local(ops, state))


# Flows that end on a nonzero level, with the oracle's ``d``.
NONZERO_LEVEL_STATES = {
    "W": (lambda: qubits([0, 1, 1, 0, 1, 0, 0, 0], 3), math.sqrt(1 / 6)),
    "B1": (lambda: qubits([1, 0, 0, 1, 0, 0, 0, 0], 3), math.sqrt(1 / 2)),
    "SEP": (lambda: qubits([1, 0, 0, 0, 0, 0, 0, 0], 3), math.sqrt(3 / 2)),
    "rank-1": (lambda: bipartite_rank_state(3, 1), math.sqrt(4 / 3)),
    "rank-2": (lambda: bipartite_rank_state(3, 2), math.sqrt(1 / 3)),
}
FOUR_QUBIT_STABILITY = {
    "L_abc2": Stability.SEMISTABLE,
    "L_a2b2": Stability.SEMISTABLE,
    "L_ab3": Stability.SEMISTABLE,
    "L_a4": Stability.STABLE,
    "L_a2_0": Stability.STABLE,
}


@pytest.fixture(scope="module")
def four_qubit_classified():
    return {
        name: classify_with_trace(four_qubit_family(name, FOUR_QUBIT_DEMO_PARAMS[name]))
        for name in FOUR_QUBIT_STABILITY
    }


class TestMarginGate:
    """What the deleted margin gate and plain-move prefix guarded.

    Every move is now Gauss-Newton, and the level certificate, not a prefix
    of plain moves, keeps a flow on its nonzero level.
    """

    @pytest.mark.parametrize("name", list(NONZERO_LEVEL_STATES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonzero_level_flows_do_not_see_the_gate(self, name, seed):
        # No gate stops such a flow: it ends on the gradient exit at its oracle ``d``.
        start, d = NONZERO_LEVEL_STATES[name]
        state = _moved(start(), np.random.default_rng(seed))
        terminal, trace = flow_to_critical(state)
        assert trace.stopped_on == "gradient"
        assert abs(math.sqrt(mu_norm_sq(terminal)) - d) < 1e-9

    @pytest.mark.parametrize("name", list(FOUR_QUBIT_STABILITY))
    def test_four_qubit_families_keep_their_stability(self, four_qubit_classified, name):
        record, _ = four_qubit_classified[name]
        assert record.stability is FOUR_QUBIT_STABILITY[name]
        assert record.morse_index == 0

    @pytest.mark.parametrize("name", list(FOUR_QUBIT_STABILITY))
    def test_four_qubit_families_end_in_few_moves(self, four_qubit_classified, name):
        _, trace = four_qubit_classified[name]
        assert trace.samples[-1][0] < 100


def _binary_form(parties, coefficients):
    """The binary form with ``x^n1 y^n2`` coefficients as a symmetric qubit state."""
    sector = bosonic(parties, 2)
    amps = [
        coefficients.get(n1, 0) / math.sqrt(math.comb(parties, n1))
        for n1, _ in sector.basis_labels()
    ]
    return normalize(PureState(sector, np.array(amps, dtype=complex)))


# Strictly semistable inputs on which ``mu2`` falls only like 1/n under plain
# moves; the binary forms are those of ``tests/test_critical.py::TestStability``.
CRAWLING_STATES = {
    "L_ab3": lambda: four_qubit_family("L_ab3", FOUR_QUBIT_DEMO_PARAMS["L_ab3"]),
    "x2y(x-y)": lambda: _binary_form(4, {3: 1, 2: -1}),
    "x3y(x-y)(x-2y)": lambda: _binary_form(6, {5: 1, 4: -3, 3: 2}),
}


@pytest.mark.parametrize("name", list(CRAWLING_STATES))
def test_semistable_tails_end_in_few_moves(name):
    _, trace = flow_to_critical(CRAWLING_STATES[name]())
    assert trace.stopped_on == "zero_level"
    assert trace.samples[-1][0] < 50


def test_gauss_newton_move_stays_in_the_trust_radius():
    # A nearly flat J makes the damped step long; the clip keeps its direction.
    sector = distinguishable(2, 2)
    m = np.arange(1.0, 7.0)
    gram = np.outer(m, m) + 1e-6 * np.eye(6)
    generators = flow._gauss_newton(sector, m, gram, 1e-12)
    frame = flow.gell_mann_frame(2)
    want = -np.tensordot(m.reshape(2, 3), frame, axes=1)
    norm = np.linalg.norm(generators)
    assert norm == pytest.approx(flow.TRUST_RADIUS)
    # ``gram - m m^T`` cancels about eight digits here.
    assert np.max(np.abs(generators / norm - want / np.linalg.norm(want))) < 1e-8


def test_rejected_move_costs_no_gradient(monkeypatch):
    # The gradient comes with a state's column block, and each block must
    # belong to a new state.
    states = FlowStates(monkeypatch)
    # A strictly semistable tail: some of its first moves are rejected.
    with pytest.raises(NotConverged) as excinfo:
        flow_to_critical(CRAWLING_STATES["x2y(x-y)"](), FlowConfig(max_iterations=8))
    # A rejected trial is a state the flow computed but never stood on.
    assert len(states.at) > len(states.stood_on(excinfo.value.trace.terminal))
    assert states.one_block_per_state(excinfo.value.trace.terminal)


class TestSloccDistance:
    def test_w(self, w3):
        assert abs(slocc_distance(w3) - math.sqrt(1 / 6)) < 1e-9

    def test_biseparable(self, b1_3):
        assert abs(slocc_distance(b1_3) - math.sqrt(1 / 2)) < 1e-9

    @pytest.mark.parametrize("N,k", [(2, 1), (3, 1), (3, 3), (4, 2)])
    def test_bipartite_formula(self, N, k):
        sector = distinguishable(2, N)
        amps = np.zeros(N * N, dtype=complex)
        for i in range(k):
            amps[i * N + i] = 1.0
        v = normalize(PureState(sector, amps))
        expected = math.sqrt(2 * (k * (N - k) ** 2 + k * k * (N - k))) / (N * k)
        assert abs(slocc_distance(v) - expected) < 1e-9

    def test_class_invariance_under_random_slocc(self, rng, w3):
        for _ in range(4):
            ops = [
                LocalOperator(p, random_special_linear(rng, 2)) for p in range(3)
            ]
            moved = normalize(apply_local(ops, w3))
            assert abs(slocc_distance(moved) - math.sqrt(1 / 6)) < 1e-5


class TestStratumLabel:
    def test_ghz_class_zero(self):
        v = qubits([2, 0, 0, 0, 0, 0, 0, 1], 3)
        assert stratum_label(v).is_zero(0.0)

    def test_w_class(self, w3):
        label = stratum_label(perturbed_w(w3))
        for s in label.spectra:
            assert np.max(np.abs(s - np.array([1 / 6, -1 / 6]))) < 1e-6

    def test_separable(self, sep3):
        label = stratum_label(sep3)
        for s in label.spectra:
            assert np.max(np.abs(s - np.array([0.5, -0.5]))) < 1e-12


class TestOneParamLimit:
    def test_l_abc2_limit_hits_span_component(self):
        state = four_qubit_family("L_abc2", (1.0, 1.0, 1.0))
        v_part, _, pattern = four_qubit_family_parts("L_abc2", (1.0, 1.0, 1.0))
        limit, residuals = one_param_limit(
            state, [np.array([s, -s]) for s in pattern]
        )
        target = normalize(PureState(state.sector, v_part))
        assert limit.overlap_distance(target) < 1e-8
        assert residuals[-2] < 1e-8
        assert all(b <= a + 1e-12 for a, b in zip(residuals[:-1], residuals[1:]))

    def test_l_a2b2_limit_in_span(self):
        state = four_qubit_family("L_a2b2", (1.0, 1.0))
        _, _, pattern = four_qubit_family_parts("L_a2b2", (1.0, 1.0))
        limit, residuals = one_param_limit(
            state, [np.array([s, -s]) for s in pattern]
        )
        assert gabcd_span_distance(limit) < 1e-8
        assert residuals[-2] < 1e-8

    def test_fixed_state_unchanged(self):
        # The family's own span component is stabilized by its subgroup.
        v_part, _, pattern = four_qubit_family_parts("L_a2b2", (1.0, 0.7))
        state = normalize(
            PureState(four_qubit_family("L_a2b2", (1.0, 0.7)).sector, v_part)
        )
        limit, _ = one_param_limit(state, [np.array([s, -s]) for s in pattern])
        assert limit.overlap_distance(state) < 1e-10

    def test_divergent(self):
        v = qubits([0, 1, 0, 0], 2)  # |01>: both weights negative below
        with pytest.raises(Divergent):
            one_param_limit(
                v,
                [np.array([-40.0, 40.0]), np.array([40.0, -40.0])],
                t_max=20.0,
                samples=4,
            )

    def test_traceless_required(self, bell):
        with pytest.raises(ShapeMismatch):
            one_param_limit(bell, [np.array([1.0, 0.0]), np.array([0.0, -1.0])])


class TestTraceSerialization:
    def test_json_lines(self, w3):
        _, trace = flow_to_critical(perturbed_w(w3))
        lines = trace.to_json_lines().splitlines()
        assert len(lines) == len(trace.samples)
        first = json.loads(lines[0])
        assert set(first) == {"iteration", "mu_norm_sq", "grad_norm"}


class TestZeroLevelPredicate:
    """The stratum label, the index and the stability read one zero-level test."""

    @staticmethod
    def _point_and_state(a: float):
        sector = distinguishable(1, 2)
        point = MomentumPoint(sector, (np.diag([a, -a]).astype(complex),))
        # Every state of one party is critical; the point is given separately.
        return point, PureState(sector, [1.0, 0.0])

    @staticmethod
    def _frames_built(monkeypatch, state, point):
        """The compressed spectrum and the number of tangent frames it built."""
        frames = []
        original = morse._tangent_frame

        def counting(*args, **kwargs):
            frames.append(original(*args, **kwargs))
            return frames[-1]

        monkeypatch.setattr(morse, "_tangent_frame", counting)
        return _critical_spectrum(state, point, _block(state)), len(frames)

    def test_the_threshold_itself_is_on_the_zero_level(self, monkeypatch):
        point, state = self._point_and_state(math.sqrt(5e-9))
        assert point.norm_sq() == flow.ZERO_STRATUM_MU2
        assert flow._on_zero_level(point.norm_sq())
        assert flow._snapped_spectra(point).is_zero(tol=0.0)
        hess, frames = self._frames_built(monkeypatch, state, point)
        assert hess.size == 0 and frames == 0
        assert _stability_from(point.norm_sq(), state, _block(state)) is not Stability.NULLCONE

    def test_just_above_the_threshold_is_not(self, monkeypatch):
        point, state = self._point_and_state(math.sqrt(5.000001e-9))
        assert point.norm_sq() > flow.ZERO_STRATUM_MU2
        assert not flow._on_zero_level(point.norm_sq())
        assert not flow._snapped_spectra(point).is_zero(tol=0.0)
        # The nonzero branch builds a frame; one party's orbit fills the tangent.
        hess, frames = self._frames_built(monkeypatch, state, point)
        assert hess.size == 0 and frames == 1
        assert _stability_from(point.norm_sq(), state, _block(state)) is Stability.NULLCONE
