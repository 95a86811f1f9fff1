"""Gradient flow of the squared momentum norm along invertible local directions.

Each step applies the exact group element ``exp(-step * C_p)`` per party,
where ``C_p`` are the coadjoint matrices of the current momentum image.  The
matrices are traceless, so every factor has unit determinant and the
trajectory stays inside the orbit of invertible local operations by
construction.

Stopping: the flow ends when the gradient norm falls below tolerance, or --
for trajectories that reach the zero level only in the closure of their
orbit, where the gradient decays polynomially in flow time -- when
``||mu||^2`` falls below ``SEMISTABLE_EXIT_MU2``.  The latter is strictly
inside the zero-stratum labeling threshold, so both exits agree on the
classification; the exit reason is recorded on the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergent, NotConverged, ShapeMismatch, ZeroState
from .momentum import (
    SpectrumPoint,
    _one_body,
    _ordered_spectra,
    _shifted_densities,
    momentum,
)
from .statespace import (
    LocalOperator,
    PureState,
    Sector,
    _apply_on_axis,
    _embed,
    _project,
    apply_local,
    normalize,
)

ZERO_STRATUM_MU2 = 1e-8
SEMISTABLE_EXIT_MU2 = 1e-9
MAX_LINE_SEARCH_STEP = 1e15


@dataclass(frozen=True)
class FlowConfig:
    """Integrator knobs: step size, gradient tolerance, caps, sampling."""

    step_size: float = 0.05
    tolerance: float = 1e-9
    max_iterations: int = 200_000
    record_every: int = 100

    def __post_init__(self):
        if self.step_size <= 0 or self.tolerance <= 0:
            raise ValueError("step_size and tolerance must be positive")
        if self.max_iterations < 1 or self.record_every < 1:
            raise ValueError("max_iterations and record_every must be positive")


@dataclass
class FlowTrace:
    """Sampled (iteration, ||mu||^2, gradient norm) triples plus the terminal state.

    ``best_grad_norm`` / ``mu2_at_best_grad`` record the closest approach to
    criticality along the whole trajectory.  A terminal on the zero level
    with ``mu2_at_best_grad`` far above it means the flow skirted a nonzero
    critical set before descending further -- the signature of an input too
    ill-conditioned for its stratum to be resolved at double precision.
    """

    samples: list[tuple[int, float, float]] = field(default_factory=list)
    terminal: PureState | None = None
    converged: bool = False
    stopped_on: str | None = None
    best_grad_norm: float = math.inf
    mu2_at_best_grad: float = math.inf

    def to_json_lines(self) -> str:
        lines = [
            f'{{"iteration": {i}, "mu_norm_sq": {m!r}, "grad_norm": {g!r}}}'
            for i, m, g in self.samples
        ]
        return "\n".join(lines)


def _expm_traceless_hermitian(matrix: np.ndarray, scale: float) -> np.ndarray:
    """``exp(scale * matrix)`` for traceless Hermitian input."""
    if matrix.shape[0] == 2:
        # A^2 = a^2 I for traceless Hermitian 2x2; exp in closed form.
        a = math.sqrt(abs(matrix[0, 0].real ** 2 + abs(matrix[0, 1]) ** 2))
        if a == 0.0:
            return np.eye(2, dtype=complex)
        sa = scale * a
        return math.cosh(sa) * np.eye(2) + (math.sinh(sa) / a) * matrix
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


class _FlowEngine:
    """Raw-array flow state for one sector; avoids value-type overhead."""

    def __init__(self, sector: Sector):
        L = sector.parties
        self.sector = sector
        # Identical particles keep one density, which acts once per particle.
        self.count, self.copies = (1, L) if sector.identical else (L, 1)
        self.scale = float(self.copies)

    def mu2(self, mats: list[np.ndarray]) -> float:
        total = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
        return self.scale**2 * total

    def gradient(
        self, mats: list[np.ndarray], tensor: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Projected coadjoint image and its Rayleigh value."""
        image = self.scale * _project(self.sector, _one_body(mats * self.copies, tensor))
        lam = float(np.vdot(amps, image).real)
        return image - lam * amps, lam

    def advance(
        self, mats: list[np.ndarray], tensor: np.ndarray, step: float
    ) -> np.ndarray:
        """Apply exp(-step * coadjoint) per party and renormalize."""
        factors = [
            _expm_traceless_hermitian(m, -step * self.scale) for m in mats
        ]
        out = tensor
        for p, mat in enumerate(factors * self.copies):
            out = _apply_on_axis(mat, out, p)
        flat = _project(self.sector, out)
        return flat / np.linalg.norm(flat)


def _start(state: PureState) -> tuple[_FlowEngine, np.ndarray, np.ndarray]:
    """Engine, unit amplitudes and tensor of a state."""
    engine = _FlowEngine(state.sector)
    amps = normalize(state).amplitudes
    return engine, amps, _embed(state.sector, amps)


def flow_step(state: PureState, step: float) -> PureState:
    """One exact exponential step down the momentum-norm gradient."""
    engine, _, tensor = _start(state)
    mats = _shifted_densities(tensor, engine.count)
    return PureState(state.sector, engine.advance(mats, tensor, step))


def projected_gradient(state: PureState) -> tuple[np.ndarray, float]:
    """Gradient vector ``P(mu* v)`` at the normalized state and ``<v|mu* v>``."""
    engine, amps, tensor = _start(state)
    return engine.gradient(_shifted_densities(tensor, engine.count), tensor, amps)


def gradient_norm(state: PureState) -> float:
    """Norm of the projected momentum-operator direction; zero iff critical."""
    return float(np.linalg.norm(projected_gradient(state)[0]))


MOMENTUM_BETA = 0.9
AGGRESSIVE_RATIO = 1e-8
CONSERVATIVE_PREFIX = 2000


def flow_to_critical(
    state: PureState, config: FlowConfig | None = None
) -> tuple[PureState, FlowTrace]:
    """Integrate until the gradient norm (or the zero level) is resolved.

    The first ``CONSERVATIVE_PREFIX`` moves are plain fixed-size gradient
    steps; flows into null-cone critical orbits converge inside this prefix
    at desk scale.  Afterwards two regimes alternate on ``grad^2/||mu||^2``:
    away from nonzero critical values (ratio large, which includes the
    approach to the zero level) the descent direction carries heavy-ball
    memory in the acting Lie algebra and the step grows under a monotone
    line search -- this covers the semistable tails, which are only
    polynomial in plain flow time, in few moves; near a nonzero critical
    value (ratio small) the integrator stays on fixed-size gradient moves.
    The caution exists because rounding noise places every stored state a
    relative 1e-16 off its orbit, generically into a lower stratum, and an
    accelerated integrator can amplify that seed through the stratum
    boundary before the gradient test fires.  Every move in either regime
    is an exact unit-determinant group element.

    Raises NotConverged (with the partial trace attached) at the iteration
    cap.
    """
    config = config or FlowConfig()
    engine, amps, tensor = _start(state)
    trace = FlowTrace()
    step = config.step_size
    mats = _shifted_densities(tensor, engine.count)
    mu2 = engine.mu2(mats)
    direction = [m.copy() for m in mats]
    iteration = 0
    while True:
        grad, _ = engine.gradient(mats, tensor, amps)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < trace.best_grad_norm:
            trace.best_grad_norm = grad_norm
            trace.mu2_at_best_grad = mu2
        stopped = None
        if grad_norm <= config.tolerance:
            stopped = "gradient"
        elif mu2 <= SEMISTABLE_EXIT_MU2:
            stopped = "zero_level"
        if (
            stopped
            or iteration % config.record_every == 0
            or iteration >= config.max_iterations
        ):
            trace.samples.append((iteration, mu2, grad_norm))
        if stopped:
            trace.terminal = PureState(state.sector, amps)
            trace.converged = True
            trace.stopped_on = stopped
            return trace.terminal, trace
        if iteration >= config.max_iterations:
            break
        aggressive = (
            iteration >= CONSERVATIVE_PREFIX
            and grad_norm**2 >= AGGRESSIVE_RATIO * mu2
        )
        if aggressive:
            move_direction, move_step = direction, step
        else:
            move_direction, move_step = mats, min(step, config.step_size)
        trial = engine.advance(move_direction, tensor, move_step)
        trial_tensor = _embed(state.sector, trial)
        trial_mats = _shifted_densities(trial_tensor, engine.count)
        trial_mu2 = engine.mu2(trial_mats)
        # Accept non-increase within rounding noise: true decreases near a
        # nonzero critical value fall below float resolution of mu2 itself.
        slack = 1e-13 * max(1.0, mu2)
        delta = trial_mu2 - mu2
        if np.isfinite(trial_mu2) and delta <= slack:
            amps, tensor, mats, mu2 = trial, trial_tensor, trial_mats, trial_mu2
            direction = [
                m + MOMENTUM_BETA * d for m, d in zip(mats, direction)
            ]
            if aggressive and delta < -slack:
                step = min(step * 2.0, MAX_LINE_SEARCH_STEP)
        else:
            direction = [m.copy() for m in mats]
            step = max(step * 0.25, 1e-9 * config.step_size)
        iteration += 1
    trace.terminal = PureState(state.sector, amps)
    trace.converged = False
    raise NotConverged(
        f"gradient norm {trace.samples[-1][2]:.3e} above tolerance "
        f"{config.tolerance:.1e} after {config.max_iterations} iterations",
        trace=trace,
    )


def slocc_distance(state: PureState, config: FlowConfig | None = None) -> float:
    """Distance of the family's spectrum polytope from the origin.

    Square root of the minimal ``||mu||^2`` over the orbit closure, obtained
    as the flow terminal value; below ``sqrt(SEMISTABLE_EXIT_MU2)`` exactly
    for semistable states.
    """
    terminal, _ = flow_to_critical(state, config)
    return math.sqrt(max(momentum(terminal).norm_sq(), 0.0))


def stratum_label(state: PureState, config: FlowConfig | None = None) -> SpectrumPoint:
    """Spectrum label of the flow terminal; snapped to zero below threshold.

    Semistable states only approach the zero level asymptotically, so
    terminals with ``||mu||^2 < ZERO_STRATUM_MU2`` are reported as the zero
    stratum.
    """
    terminal, _ = flow_to_critical(state, config)
    return terminal_stratum(terminal)


def terminal_stratum(terminal: PureState) -> SpectrumPoint:
    point = momentum(terminal)
    label = _ordered_spectra(point)
    if point.norm_sq() < ZERO_STRATUM_MU2:
        return SpectrumPoint(
            terminal.sector, tuple(np.zeros_like(s) for s in label.spectra)
        )
    return label


def one_param_limit(
    state: PureState,
    exponents: list[np.ndarray] | np.ndarray,
    t_max: float = 20.0,
    samples: int = 64,
    traceless_tol: float = 1e-10,
) -> tuple[PureState, list[float]]:
    """Follow ``diag(exp(t * xi_p))`` per party on a geometric time grid.

    ``exponents`` holds one real traceless diagonal-generator vector per party
    (a single vector for identical particles).  Returns the normalized state
    at ``t_max`` together with the projective distances of the intermediate
    samples to it; the distances decrease like the fastest surviving decay
    weight.  Raises Divergent when the image norm collapses.
    """
    sector = state.sector
    N = sector.local_dim
    vectors = [np.asarray(v, dtype=float).reshape(-1) for v in np.atleast_2d(exponents)]
    expected = 1 if sector.identical else sector.parties
    if len(vectors) != expected:
        raise ShapeMismatch(f"need {expected} exponent vectors, got {len(vectors)}")
    for v in vectors:
        if v.shape[0] != N:
            raise ShapeMismatch("exponent vector length must equal the local dim")
        if abs(v.sum()) > traceless_tol:
            raise ShapeMismatch("exponent vectors must be traceless")

    base = normalize(state)

    def at_time(t: float) -> PureState:
        ops = [
            LocalOperator(p, np.diag(np.exp(t * v).astype(complex)))
            for p, v in enumerate(vectors)
        ]
        image = apply_local(ops, base)
        if not np.isfinite(image.norm):
            raise Divergent("one-parameter image overflowed")
        try:
            return normalize(image)
        except ZeroState as exc:
            raise Divergent("one-parameter image norm vanished") from exc

    times = np.geomspace(t_max / 2 ** (samples - 1), t_max, samples)
    states = [at_time(float(t)) for t in times]
    limit = states[-1]
    residuals = [s.overlap_distance(limit) for s in states]
    return limit, residuals
