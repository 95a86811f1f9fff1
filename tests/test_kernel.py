import ast
from pathlib import Path

import numpy as np
import pytest

import sloccflow
from sloccflow import morse
from sloccflow.critical import classify_with_trace
from sloccflow.errors import ShapeMismatch
from sloccflow.flow import _expm_traceless_hermitian
from sloccflow.momentum import _shifted_densities
from sloccflow.statespace import (
    _apply_on_axis,
    _axis_maps,
    _axis_views,
    _embed,
    _factor_one_body,
    _local_product,
    _matricize,
    _one_body,
    _project,
    bosonic,
    distinguishable,
    fermionic,
)

LETTERS = "abcdefg"
KINDS = [distinguishable(3, 2), bosonic(3, 3), fermionic(2, 4)]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_axis_views_are_every_matricization(rng, N, L):
    x = _complex(rng, (N,) * L)
    views = _axis_views(x)
    assert views.shape == (L, N, N ** (L - 1))
    for p in range(L):
        assert np.array_equal(views[p], _matricize(x, p))
    assert _axis_maps(L, N) is _axis_maps(L, N)


@pytest.mark.parametrize("sector", KINDS, ids=str)
def test_shifted_densities_match_einsum(rng, sector):
    L, N = sector.parties, sector.local_dim
    x = _embed(sector, _complex(rng, sector.dim))
    cols = LETTERS[:L]
    got = _shifted_densities(_axis_views(x), sector.acting)
    assert got.shape == (sector.acting, N, N)
    for p in range(sector.acting):
        kept = cols[:p] + "Z" + cols[p + 1 :]
        rho = np.einsum(f"{cols},{kept}->{cols[p]}Z", x, x.conj())
        want = rho / np.trace(rho).real - np.eye(N) / N
        assert np.max(np.abs(got[p] - want)) < 1e-13
    with pytest.raises(ShapeMismatch):
        _shifted_densities(_axis_views(np.zeros_like(x)), sector.acting)


@pytest.mark.parametrize("N", [2, 3])
def test_stacked_exponential_matches_eigh(rng, N):
    m = _complex(rng, (4, N, N))
    m = m + m.conj().swapaxes(1, 2)
    m -= np.trace(m, axis1=1, axis2=2)[:, None, None].real * np.eye(N) / N
    m[-1] = 0.0
    got = _expm_traceless_hermitian(m, -0.3)
    for matrix, out in zip(m, got):
        vals, vecs = np.linalg.eigh(matrix)
        assert np.max(np.abs(out - (vecs * np.exp(-0.3 * vals)) @ vecs.conj().T)) < 1e-13
    assert np.array_equal(got[-1], np.eye(N))


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


@pytest.mark.parametrize("sector", KINDS, ids=str)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_local_action_matches_einsum(rng, sector, batch):
    # One matrix per acting factor; an identical-particle factor acts on
    # every axis.
    L, N = sector.parties, sector.local_dim
    x = _complex(rng, (N,) * L + batch)
    mats = [_complex(rng, (N, N)) for _ in range(sector.acting)]
    per_axis = [mats[0]] * L if sector.identical else mats
    rows, cols = LETTERS.upper()[:L], LETTERS[:L]
    tail = "z" * len(batch)
    terms = ",".join(r + c for r, c in zip(rows, cols))
    want = np.einsum(f"{terms},{cols}{tail}->{rows}{tail}", *per_axis, x)
    got = _local_product(sector, mats, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) < 1e-12
    want = sum(
        np.einsum(f"Z{cols[p]},{cols}{tail}->{cols[:p]}Z{cols[p + 1:]}{tail}", m, x)
        for p, m in enumerate(per_axis)
    )
    got = _one_body(sector, mats, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) < 1e-12
    by_factor = sum(_factor_one_body(sector, m, a, x) for a, m in enumerate(mats))
    assert np.max(np.abs(by_factor - want)) < 1e-12


@pytest.mark.parametrize("sector", KINDS, ids=str)
@pytest.mark.parametrize("batch", [(), (2,), (2, 3)])
def test_project_inverts_embed(rng, sector, batch):
    x = _complex(rng, (sector.dim,) + batch)
    t = _embed(sector, x)
    assert t.shape == (sector.local_dim,) * sector.parties + batch
    for index in np.ndindex(*batch):
        column = (slice(None),) + index
        assert np.max(np.abs(t[(Ellipsis,) + index] - _embed(sector, x[column]))) < 1e-15
    back = _project(sector, t)
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) < 1e-12


def test_only_statespace_applies_matrices_to_axes():
    # The local action has one kernel: every other module goes through the
    # product and one-body primitives of ``statespace``.
    users = set()
    for path in sorted(Path(sloccflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "_apply_on_axis" in names:
                users.add(path.name)
    assert users == {"statespace.py"}
