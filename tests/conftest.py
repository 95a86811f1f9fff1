import importlib
import sys

import numpy as np
import pytest

from sloccflow import flow
from sloccflow.statespace import PureState, distinguishable, normalize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def haar_unitary(rng, n: int, special: bool = False) -> np.ndarray:
    """Haar-distributed U(n) (or SU(n)) matrix via QR with phase fixing."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    if special:
        q = q / np.linalg.det(q) ** (1.0 / n)
    return q


def random_special_linear(rng, n: int, spread: float = 0.6) -> np.ndarray:
    """Random invertible matrix normalized to unit determinant."""
    m = np.eye(n) + spread * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    det = np.linalg.det(m)
    return m / det ** (1.0 / n)


def qubits(amplitudes, parties: int) -> PureState:
    return normalize(
        PureState(distinguishable(parties, 2), np.asarray(amplitudes, dtype=complex))
    )


@pytest.fixture
def ghz3():
    return qubits([1, 0, 0, 0, 0, 0, 0, 1], 3)


@pytest.fixture
def w3():
    return qubits([0, 1, 1, 0, 1, 0, 0, 0], 3)


@pytest.fixture
def sep3():
    return qubits([1, 0, 0, 0, 0, 0, 0, 0], 3)


@pytest.fixture
def bell():
    return qubits([1, 0, 0, 1], 2)


@pytest.fixture
def b1_3():
    # |000> + |011> over sqrt(2): party 1 pure, parties 2-3 maximally mixed.
    return qubits([1, 0, 0, 1, 0, 0, 0, 0], 3)


class FlowStates:
    """The states a flow stands on and the generator-column blocks built, by tensor.

    Wraps ``flow._at`` (the input, a certified block and every trial),
    ``flow._advance`` and ``flow._level_certificate`` (the states a move or a
    certificate starts from), and ``_generator_block`` in every ``sloccflow``
    module that binds it.
    """

    def __init__(self, monkeypatch):
        self.at, self.starts, self.blocks = [], [], []
        # ``sloccflow.momentum`` is the function; the module is looked up by name.
        build = importlib.import_module("sloccflow.momentum")._generator_block
        at, advance, certificate = flow._at, flow._advance, flow._level_certificate

        def recording_at(sector, amps):
            out = at(sector, amps)
            self.at.append((amps, out[0]))
            return out

        def recording_advance(sector, mats, tensor, scale):
            self.starts.append(tensor)
            return advance(sector, mats, tensor, scale)

        def recording_certificate(sector, tensor, mats, mu2):
            self.starts.append(tensor)
            return certificate(sector, tensor, mats, mu2)

        def recording_block(sector, tensor):
            self.blocks.append(tensor)
            return build(sector, tensor)

        monkeypatch.setattr(flow, "_at", recording_at)
        monkeypatch.setattr(flow, "_advance", recording_advance)
        monkeypatch.setattr(flow, "_level_certificate", recording_certificate)
        for name, module in list(sys.modules.items()):
            if name.startswith("sloccflow") and getattr(module, "_generator_block", None) is build:
                monkeypatch.setattr(module, "_generator_block", recording_block)

    def stood_on(self, terminal: PureState) -> set[int]:
        """Ids of the tensors of the states a flow ending on ``terminal`` stood on.

        Every such state is the input, starts a move or a certificate, or is
        the terminal; a rejected trial is none of these.
        """
        ends = [t for amps, t in self.at if np.array_equal(amps, terminal.amplitudes)]
        return {id(t) for t in [self.at[0][1], *self.starts, ends[-1]]}

    def one_block_per_state(self, terminal: PureState) -> bool:
        """Whether the blocks built are exactly one per state the flow stood on."""
        stood_on = self.stood_on(terminal)
        return len(self.blocks) == len(stood_on) and {id(t) for t in self.blocks} == stood_on
