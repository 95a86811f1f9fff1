import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import sloccflow
from sloccflow import morse, statespace
from sloccflow.critical import classify, classify_with_trace
from sloccflow.errors import ShapeMismatch
from sloccflow.flow import _expm_traceless_hermitian
from sloccflow.families import fermion_pair_state
from sloccflow.momentum import (
    _generator_block,
    _generator_columns,
    _shifted_densities,
    gell_mann_frame,
)
from sloccflow.statespace import (
    LocalOperator,
    PureState,
    _axis_maps,
    _axis_views,
    _embed,
    _factor_images,
    _local_product,
    _one_body,
    _one_body_matrix,
    _project,
    apply_local,
    bosonic,
    dicke,
    distinguishable,
    fermionic,
)

from conftest import random_special_linear

LETTERS = "abcdefghijk"
KINDS = [distinguishable(3, 2), bosonic(3, 3), fermionic(2, 4)]
# The local action on one to five axes of dimension 2 and 3; one axis is the
# edge case of both the rotating product and the gather.
ACTION_SECTORS = KINDS + [
    distinguishable(L, N) for L in range(1, 6) for N in (2, 3) if (L, N) != (3, 2)
] + [bosonic(1, 3), fermionic(1, 3)]
# Identical sectors with at least three copies, where the fermion signs matter.
WIDE_IDENTICAL = [bosonic(6, 2), fermionic(3, 5)]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _all_axes_one_body(sector, mats, x):
    """``sum_p M_p`` on axis ``p`` of ``x`` by einsum; an identical factor acts on every axis."""
    L = sector.parties
    cols, tail = LETTERS[:L], "z" * (x.ndim - L)
    return sum(
        np.einsum(f"Z{c},{cols}{tail}->{cols[:p]}Z{cols[p + 1:]}{tail}", mats[p % len(mats)], x)
        for p, c in enumerate(cols)
    )


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_apply_on_axis_matches_einsum(rng, N, L, batch):
    # One matrix on axis p: the product with identities on the other axes and
    # the one-body sum with zeros on them both act on that axis alone.
    sector = distinguishable(L, N)
    shape = (N,) * L + batch
    x = _complex(rng, shape)
    mat = _complex(rng, (N, N))
    axes = LETTERS[: len(shape)]
    for p in range(L):
        out_axes = axes[:p] + "z" + axes[p + 1 :]
        want = np.einsum(f"z{axes[p]},{axes}->{out_axes}", mat, x)
        identities = [np.eye(N)] * L
        identities[p] = mat
        zeros = [np.zeros((N, N))] * L
        zeros[p] = mat
        for got in (_local_product(sector, identities, x), _one_body(sector, zeros, x)):
            assert got.shape == shape
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_axis_views_are_every_matricization(rng, N, L):
    sector = distinguishable(L, N)
    x = _complex(rng, (N,) * L)
    views = _axis_views(sector, x)
    assert views.shape == (L, N, N ** (L - 1))
    for p in range(L):
        assert np.array_equal(views[p], np.moveaxis(x, p, 0).reshape(N, -1))
    assert _axis_maps(L, N) is _axis_maps(L, N)
    batched = _axis_views(sector, x[..., None] * np.arange(1, 4))
    assert batched.shape == views.shape + (3,)
    assert np.array_equal(batched[..., 2], 3 * views)
    # Identical particles read axis 0 alone, without a copy.
    axis0 = _axis_views(bosonic(L, N), x)
    assert axis0.shape == (1, N, N ** (L - 1))
    assert np.shares_memory(axis0, x) and np.array_equal(axis0[0], views[0])


@pytest.mark.parametrize("sector", KINDS, ids=str)
def test_shifted_densities_match_einsum(rng, sector):
    L, N = sector.parties, sector.local_dim
    x = _embed(sector, _complex(rng, sector.dim))
    cols = LETTERS[:L]
    got = _shifted_densities(_axis_views(sector, x))
    assert got.shape == (sector.acting, N, N)
    for p in range(sector.acting):
        kept = cols[:p] + "Z" + cols[p + 1 :]
        rho = np.einsum(f"{cols},{kept}->{cols[p]}Z", x, x.conj())
        want = rho / np.trace(rho).real - np.eye(N) / N
        assert np.max(np.abs(got[p] - want)) < 1e-13
    with pytest.raises(ShapeMismatch):
        _shifted_densities(_axis_views(sector, np.zeros_like(x)))


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
    original = morse._tangent_frame

    def counting(state, *args, **kwargs):
        calls.append(state)
        return original(state, *args, **kwargs)

    monkeypatch.setattr(morse, "_tangent_frame", counting)
    record, _ = classify_with_trace(w3)
    assert record.lambda_value > 0.1
    assert record.morse_index == 2
    assert len(calls) == 1


@pytest.mark.parametrize("sector", ACTION_SECTORS, ids=str)
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_local_action_matches_einsum(rng, sector, batch):
    # One matrix per acting factor; an identical-particle factor acts on
    # every axis.  The references read the batch axes as one.
    L, N = sector.parties, sector.local_dim
    x = _complex(rng, (N,) * L + batch)
    flat = (N,) * L + (math.prod(batch),) * bool(batch)
    mats = [_complex(rng, (N, N)) for _ in range(sector.acting)]
    per_axis = [mats[0]] * L if sector.identical else mats
    rows, cols = LETTERS.upper()[:L], LETTERS[:L]
    tail = "z" * bool(batch)
    terms = ",".join(r + c for r, c in zip(rows, cols))
    want = np.einsum(f"{terms},{cols}{tail}->{rows}{tail}", *per_axis, x.reshape(flat))
    got = _local_product(sector, mats, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want.reshape(x.shape))) < 1e-12
    if sector.identical:
        # An identical sector's one-body image is that of a sector state,
        # right after the projection.
        x = _embed(sector, _complex(rng, (sector.dim,) + batch))
    want = _all_axes_one_body(sector, mats, x.reshape(flat)).reshape(x.shape)
    got = _one_body(sector, mats, x)
    assert got.shape == x.shape
    if sector.identical:
        want, got = _project(sector, want), _project(sector, got)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("sector", KINDS + WIDE_IDENTICAL, ids=str)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_generator_columns_match_einsum(rng, sector, batch):
    # Column ``(a, i)`` is frame matrix ``i`` summed over the axes of acting
    # factor ``a`` and zero on the others, after the batch axes.
    L = sector.parties
    x = _complex(rng, (sector.dim,) + batch)
    t = _embed(sector, x)
    cols, tail = LETTERS[:L], "z" * len(batch)
    want = np.stack(
        [
            _project(sector, sum(
                np.einsum(f"Z{cols[p]},{cols}{tail}->{cols[:p]}Z{cols[p + 1:]}{tail}", xi, t)
                for p in range(a, L, sector.acting)
            ))
            for a in range(sector.acting)
            for xi in gell_mann_frame(sector.local_dim)
        ],
        axis=-1,
    )
    got = _generator_columns(sector, t)
    assert got.shape == (sector.dim,) + batch + (want.shape[-1],)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("sector", ACTION_SECTORS + WIDE_IDENTICAL, ids=str)
@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_factor_images_of_per_factor_stacks_match_einsum(rng, sector, K, batch):
    # One stack ``(acting, K, N, N)``: column ``(a, k)`` is matrix ``k`` of
    # factor ``a`` on that factor's axes and zero on the others.
    N, factors = sector.local_dim, range(sector.acting)
    mats = _complex(rng, (sector.acting, K, N, N))
    t = _embed(sector, _complex(rng, (sector.dim,) + batch))

    def alone(a, k):
        return [mats[a, k] if b == a else np.zeros((N, N)) for b in factors]

    columns = [_all_axes_one_body(sector, alone(a, k), t) for a in factors for k in range(K)]
    want = np.stack([_project(sector, column) for column in columns], axis=-1)
    got = _project(sector, _factor_images(sector, mats, t))
    assert got.shape == (sector.dim,) + batch + (sector.acting * K,)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("sector", ACTION_SECTORS + WIDE_IDENTICAL, ids=str)
def test_one_body_matrix_is_the_one_body_sum(rng, sector):
    # Column by column against the all-axes sum applied to each basis ket.
    N = sector.local_dim
    mats = np.stack([_complex(rng, (N, N)) for _ in range(sector.acting)])
    eye = np.eye(sector.dim, dtype=complex)
    want = _project(sector, _all_axes_one_body(sector, mats, _embed(sector, eye)))
    assert np.max(np.abs(_one_body_matrix(sector, mats) - want)) < 1e-12


@pytest.mark.parametrize("sector", [bosonic(10, 2), fermionic(3, 6), bosonic(5, 3)], ids=str)
def test_frame_gram_is_the_gram_of_all_axes_columns(rng, sector):
    # ``m`` and ``Re C^H C`` from the one-axis images against full columns.
    t = _embed(sector, _complex(rng, sector.dim))
    frame = gell_mann_frame(sector.local_dim)
    cols = np.stack([_all_axes_one_body(sector, [xi], t).reshape(-1) for xi in frame], axis=1)
    want_m, want_gram = (t.reshape(-1).conj() @ cols).real, (cols.conj().T @ cols).real
    block = _generator_block(sector, t)
    m, gram = block.m, block.gram
    assert np.max(np.abs(m - want_m)) <= 1e-12 * np.max(np.abs(want_m))
    assert np.max(np.abs(gram - want_gram)) <= 1e-12 * np.max(np.abs(want_gram))


def test_identical_sectors_classify_through_one_axis(monkeypatch):
    # Every density, one-body image and frame column of an identical sector
    # reads the axis-0 matricization alone, never the all-axes gather.
    axes = []
    original = statespace._axis_views

    def counting(*args, **kwargs):
        views = original(*args, **kwargs)
        axes.append(len(views))
        return views

    for name in ("statespace", "momentum", "flow", "morse", "critical"):
        module = importlib.import_module(f"sloccflow.{name}")
        if getattr(module, "_axis_views", None) is original:
            monkeypatch.setattr(module, "_axis_views", counting)
    rng = np.random.default_rng(5)
    for state, index in ((dicke(2, 6), 6), (fermion_pair_state(6, 2), 2)):
        g = LocalOperator(0, random_special_linear(rng, state.sector.local_dim, 0.3))
        assert classify(apply_local(g, state)).morse_index == index
    assert axes and max(axes) == 1


def test_classify_sends_no_batch_to_the_one_body_sum(monkeypatch, rng):
    # The Morse block is read in the local eigenbasis, so no batch of tangent
    # columns goes through the one-body sum.
    batches = []
    original = statespace._one_body

    def counting(sector, mats, tensor):
        if tensor.ndim > sector.parties:
            batches.append(tensor.shape)
        return original(sector, mats, tensor)

    for name in ("statespace", "momentum", "flow", "morse", "critical"):
        # ``sloccflow.momentum`` is the function; the module is looked up by name.
        module = importlib.import_module(f"sloccflow.{name}")
        if getattr(module, "_one_body", None) is original:
            monkeypatch.setattr(module, "_one_body", counting)
    w8 = np.zeros(2**8, dtype=complex)
    w8[2 ** np.arange(8)] = 1.0
    moved = apply_local(LocalOperator(0, random_special_linear(rng, 2, 0.2)), dicke(1, 3))
    for state in (PureState(distinguishable(8, 2), w8), moved):
        assert classify(state).morse_index > 0
    assert batches == []


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
    # product and one-body primitives of ``statespace`` and never unfolds
    # tensor axes itself through the axis index maps.
    users = set()
    for path in sorted(Path(sloccflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            if "_axis_maps" in names:
                users.add(path.name)
    assert users == {"statespace.py"}


def test_one_gather_and_one_fold_in_statespace():
    # Inside ``statespace`` the axis index maps have two readers: the gather
    # of ``_axis_views`` and the fold of ``_factor_images``, which every
    # one-body image goes through.
    tree = ast.parse(Path(statespace.__file__).read_text())
    callers = {
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_axis_maps"
    }
    assert callers == {"_axis_views", "_factor_images"}
