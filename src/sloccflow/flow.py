"""Gradient flow of the squared momentum norm along invertible local directions.

Every move of ``flow_to_critical`` applies ``exp(xi_a)`` per acting factor,
and ``flow_step`` applies the exact group element ``exp(-step * C_p)`` per
party, where ``C_p`` are the coadjoint matrices of the current momentum
image.  The exponents are traceless, so every move is a unit-determinant
group element and keeps the state in its orbit.  A flow whose level is
certified then continues from the input's ``Z_beta`` limit, which lies in
the closure of the orbit, not in the orbit itself.

Stopping: the flow ends when the gradient norm falls below tolerance, or --
for trajectories that reach the zero level only in the closure of their
orbit, where the gradient decays polynomially in flow time -- when
``||mu||^2`` falls below ``SEMISTABLE_EXIT_MU2``.  The latter is strictly
inside the zero-stratum labeling threshold, so both exits agree on the
classification; the exit reason is recorded on the trace.

Moves: each state the flow stands on gets one ``momentum._generator_block``:
its gradient decides the exit, its ``m`` and Gram give a damped Gauss-Newton
move on the Kempf-Ness function, clipped to ``TRUST_RADIUS``, and the trace
keeps the input's and the terminal's for ``classify``.  A level certificate
closes a nonzero level on its plateau (``flow_to_critical``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergent, NotConverged, ShapeMismatch, ZeroState
from .momentum import (
    MomentumPoint,
    SpectrumPoint,
    _generator_block,
    _level_certificate,
    _norm_sq,
    _ordered_spectra,
    _shifted_densities,
    gell_mann_frame,
    momentum,
)
from .statespace import (
    LocalOperator,
    PureState,
    Sector,
    _axis_views,
    _embed,
    _local_product,
    _project,
    apply_local,
    normalize,
)

ZERO_STRATUM_MU2 = 1e-8
SEMISTABLE_EXIT_MU2 = 1e-9
# The only accepted ``FlowConfig.step_size``, which no integrator reads.
STEP_SIZE = 0.05


@dataclass(frozen=True)
class FlowConfig:
    """Integrator knobs: gradient tolerance, move cap and sampling of ``flow_to_critical``.

    ``step_size`` (the CLI's ``--step``) sizes nothing: ``flow_to_critical``
    sizes each move by its damping and ``TRUST_RADIUS``, and ``flow_step``
    takes its step as an argument.  It stays in the config and its JSON at
    ``STEP_SIZE``, and any other value is rejected rather than ignored.
    """

    step_size: float = STEP_SIZE
    tolerance: float = 1e-9
    max_iterations: int = 200_000
    record_every: int = 100

    def __post_init__(self):
        if not (0 < self.step_size < math.inf and 0 < self.tolerance < math.inf):
            raise ValueError("step_size and tolerance must be positive and finite")
        if self.step_size != STEP_SIZE:
            raise ValueError(
                f"step_size sizes no move and must stay {STEP_SIZE}: "
                "flow_to_critical sizes its moves by damping and TRUST_RADIUS"
            )
        for count in (self.max_iterations, self.record_every):
            # ``bool`` subclasses ``int``, but ``True`` is not a count.
            if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
                raise ValueError("max_iterations and record_every must be positive integers")


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
    _blocks: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def to_json_lines(self) -> str:
        lines = [
            f'{{"iteration": {i}, "mu_norm_sq": {m!r}, "grad_norm": {g!r}}}'
            for i, m, g in self.samples
        ]
        return "\n".join(lines)


def _expm_traceless_hermitian(mats: np.ndarray, scale: float) -> np.ndarray:
    """``exp(scale * m)`` for each traceless Hermitian ``m`` of a stack."""
    if mats.shape[1] == 2:
        # A^2 = a^2 I for traceless Hermitian 2x2; exp in closed form.
        a = np.sqrt(mats[:, 0, 0].real ** 2 + np.abs(mats[:, 0, 1]) ** 2)
        sa = scale * a
        # The matrix is zero where a is, so any finite sinh(sa) / a serves there.
        out = (np.sinh(sa) / (a + (a == 0)))[:, None, None] * mats
        out.reshape(-1, 4)[:, ::3] += np.cosh(sa)[:, None]
        return out
    vals, vecs = np.linalg.eigh(mats)
    return (vecs * np.exp(scale * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _advance(sector: Sector, mats: np.ndarray, tensor: np.ndarray, scale: float) -> np.ndarray:
    """Apply ``exp(scale * m)`` for each acting factor's ``m`` and renormalize."""
    factors = _expm_traceless_hermitian(mats, scale)
    flat = _project(sector, _local_product(sector, factors, tensor))
    return flat / math.sqrt(np.vdot(flat, flat).real)


def _at(sector: Sector, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor and shifted densities of unit amplitudes."""
    tensor = _embed(sector, amps)
    return tensor, _shifted_densities(_axis_views(sector, tensor))


def flow_step(state: PureState, step: float) -> PureState:
    """One exact exponential step down the momentum-norm gradient."""
    tensor, mats = _at(state.sector, normalize(state).amplitudes)
    scale = -step * state.sector.copies
    return PureState(state.sector, _advance(state.sector, mats, tensor, scale))


def projected_gradient(state: PureState) -> tuple[np.ndarray, float]:
    """Gradient vector ``P(mu* v) - <v|mu* v> v`` at the normalized state and ``<v|mu* v>``."""
    block = _generator_block(state.sector, normalize(state).to_tensor())
    return block.gradient, block.lam


def gradient_norm(state: PureState) -> float:
    """Norm of the projected momentum-operator direction; zero iff critical."""
    return _generator_block(state.sector, normalize(state).to_tensor()).grad_norm


# Gradient, relative to ``sqrt(mu2)``, below which a flow tries the level certificate.
CERTIFY_RATIO = 1e-3
# Largest norm, in the acting Lie algebra, of one Gauss-Newton move.
TRUST_RADIUS = 4.0


def _gauss_newton(sector: Sector, m: np.ndarray, gram: np.ndarray, lam: float) -> np.ndarray:
    """``sum_i xi[a, i] frame_i`` per acting factor for the damped, clipped move ``xi``.

    ``J = 2 (gram - m m^T)``, from ``_generator_block``, is the derivative of the momentum
    coordinates ``m`` along ``v -> exp(sum_i xi_i X_i) v / ||.||``: the Kempf-Ness Hessian.
    """
    J = 2.0 * (gram - np.outer(m, m))
    xi = -np.linalg.solve(J @ J + lam * max(1.0, np.trace(J)) * np.eye(len(m)), J @ m)
    if np.linalg.norm(xi) > TRUST_RADIUS:
        xi *= TRUST_RADIUS / np.linalg.norm(xi)
    frame = gell_mann_frame(sector.local_dim)
    return np.tensordot(xi.reshape(sector.acting, len(frame)), frame, axes=1)


def flow_to_critical(
    state: PureState, config: FlowConfig | None = None
) -> tuple[PureState, FlowTrace]:
    """Integrate until the gradient norm (or the zero level) is resolved.

    Every move is one damped Gauss-Newton step on the Kempf-Ness function
    (Buergisser et al., arXiv:1910.12375), ``exp(xi_a)`` per acting factor
    with ``xi = -(J^2 + lam max(1, tr J) I)^-1 J m`` over the frame
    (``_gauss_newton``), clipped to ``||xi|| <= TRUST_RADIUS``; ``lam``
    starts at 1e-2, falls by 3 on an accepted move (to 1e-12 at least) and
    rises by 4 on a rejected one.  A move is accepted when it does not raise
    ``||mu||^2`` beyond rounding slack.  This crosses the semistable tails,
    which are only polynomial in plain flow time, in few moves.

    A second-order move can also amplify rounding noise -- every stored
    state sits a relative 1e-16 off its orbit, generically in a lower
    stratum -- through a stratum boundary while the flow sits on a nonzero
    level.  So whenever the gradient norm reaches a new minimum below
    ``CERTIFY_RATIO * sqrt(mu2)``, the flow tries
    ``momentum._level_certificate``: ``mu2`` bounds the level from above,
    the minimum-norm point ``beta`` of the state's ket weights in the
    eigenbases of its densities bounds it from below, and when they meet the
    state is replaced by its part on ``Z_beta``.  After the first success the
    flow tries no more; its moves stay in that block and end on the gradient
    exit at ``mu = beta``.

    Raises NotConverged (with the partial trace attached) at the iteration
    cap.
    """
    config = config or FlowConfig()
    sector = state.sector
    amps = normalize(state).amplitudes
    tensor, mats = _at(sector, amps)
    # One column block per state the flow stands on; a rejected trial leaves it as it was.
    block = first = _generator_block(sector, tensor)
    trace = FlowTrace()
    lam = 1e-2
    mu2 = _norm_sq(sector, mats)
    certified = False
    iteration = 0
    while True:
        grad_norm = block.grad_norm
        if grad_norm < trace.best_grad_norm:
            trace.best_grad_norm = grad_norm
            trace.mu2_at_best_grad = mu2
            if (
                not certified
                and config.tolerance < grad_norm < CERTIFY_RATIO * math.sqrt(mu2)
                and mu2 > SEMISTABLE_EXIT_MU2
            ):
                certificate = _level_certificate(sector, tensor, mats, mu2)
                if certificate is not None:
                    certified = True
                    amps = certificate
                    tensor, mats = _at(sector, amps)
                    mu2 = _norm_sq(sector, mats)
                    block = _generator_block(sector, tensor)
                    continue
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
            trace.terminal = PureState(sector, amps)
            trace.converged = True
            trace.stopped_on = stopped
            trace._blocks = (first, block)
            return trace.terminal, trace
        if iteration >= config.max_iterations:
            break
        trial = _advance(sector, _gauss_newton(sector, block.m, block.gram, lam), tensor, 1.0)
        trial_tensor, trial_mats = _at(sector, trial)
        trial_mu2 = _norm_sq(sector, trial_mats)
        # Accept non-increase within rounding noise: true decreases near a
        # nonzero critical value fall below float resolution of mu2 itself.
        if np.isfinite(trial_mu2) and trial_mu2 - mu2 <= 1e-13 * max(1.0, mu2):
            amps, tensor, mats, mu2 = trial, trial_tensor, trial_mats, trial_mu2
            block = _generator_block(sector, tensor)
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 4.0
        iteration += 1
    trace.terminal = PureState(sector, amps)
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
    terminals with ``||mu||^2 <= ZERO_STRATUM_MU2`` are reported as the zero
    stratum.
    """
    terminal, _ = flow_to_critical(state, config)
    return _snapped_spectra(momentum(terminal))


def _on_zero_level(mu2: float) -> bool:
    """Whether ``||mu||^2`` counts as the zero level, where semistable orbits end."""
    return mu2 <= ZERO_STRATUM_MU2


def _snapped_spectra(point: MomentumPoint) -> SpectrumPoint:
    """Ordered spectra of a momentum image; zero on the zero level."""
    label = _ordered_spectra(point)
    if _on_zero_level(point.norm_sq()):
        return SpectrumPoint(
            point.sector, tuple(np.zeros_like(s) for s in label.spectra)
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
    if len(vectors) != sector.acting:
        raise ShapeMismatch(f"need {sector.acting} exponent vectors, got {len(vectors)}")
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
