import numpy as np
import pytest

from sloccflow import morse
from sloccflow.critical import classify_with_trace
from sloccflow.statespace import _apply_on_axis

LETTERS = "abcdefg"


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_apply_on_axis_matches_einsum(rng, N, L, batch):
    shape = (N,) * L + batch
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    axes = LETTERS[: len(shape)]
    for p in range(L):
        out_axes = axes[:p] + "z" + axes[p + 1 :]
        want = np.einsum(f"z{axes[p]},{axes}->{out_axes}", mat, x)
        got = _apply_on_axis(mat, x, p)
        assert got.shape == shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_classify_builds_one_tangent_frame(monkeypatch, w3):
    calls = []
    original = morse.orbit_tangent_frame

    def counting(state, *args, **kwargs):
        calls.append(state)
        return original(state, *args, **kwargs)

    monkeypatch.setattr(morse, "orbit_tangent_frame", counting)
    record, _ = classify_with_trace(w3)
    assert record.lambda_value > 0.1
    assert record.morse_index == 2
    assert len(calls) == 1
