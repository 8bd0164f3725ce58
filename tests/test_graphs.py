from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from decipher.graphs import (
    GraphSpec,
    Tiling,
    TransitionMatrix,
    assemble,
    build_circulant,
    build_debruijn,
    build_hypercube,
    build_subgraph,
    hamiltonian_cycle_matrix,
    interpolate_with_hamiltonian,
)
from decipher.spectral import symmetrized_form


def all_test_matrices():
    mats = [
        build_circulant(5, (-1, 1)),
        build_circulant(7, (1, 2)),
        build_circulant(4, (1,)),
        build_debruijn(2, 2),
        build_debruijn(3, 2),
        build_hypercube(1),
        build_hypercube(4),
        assemble(GraphSpec(family="circulant", n=5, action_set=(-1, 1)), 12),
        interpolate_with_hamiltonian(build_circulant(4, (-1, 1)), w=0.5),
    ]
    return mats


def test_every_matrix_row_stochastic():
    for T in all_test_matrices():
        rs = T.probs.sum(axis=1)
        npt.assert_allclose(rs, 1.0, atol=1e-12)
        assert T.probs.min() >= 0.0
        assert T.probs.max() <= 1.0


def test_reversible_matrices_symmetrize():
    for T in all_test_matrices():
        if not T.reversible:
            continue
        S = symmetrized_form(T.weights)
        assert np.max(np.abs(S - S.T)) <= 1e-10


def test_circulant_rows_c5():
    T = build_circulant(5, (-1, 1))
    for i in range(5):
        row = T.probs[i]
        assert row[(i + 1) % 5] == 0.5
        assert row[(i - 1) % 5] == 0.5
        assert row.sum() == pytest.approx(1.0)
    assert T.reversible


def test_circulant_directed_not_reversible():
    T = build_circulant(4, (1,))
    assert not T.reversible
    npt.assert_array_equal(np.argmax(T.probs, axis=1), [1, 2, 3, 0])


def test_circulant_rejects_bad_action_sets():
    with pytest.raises(ValueError):
        build_circulant(5, ())
    with pytest.raises(ValueError):
        build_circulant(5, (0,))
    with pytest.raises(ValueError):
        build_circulant(5, (5,))  # 5 mod 5 == 0
    with pytest.raises(ValueError):
        build_circulant(5, (1, 6))  # duplicate after mod
    with pytest.raises(ValueError):
        build_circulant(2, (1,))


def test_debruijn_basic_shift_structure():
    # DB(2,2): node 01 (index 1) shifts to 10 (index 2) and 11 (index 3).
    T = build_debruijn(2, 2)
    assert T.weights[1, 2] > 0
    assert T.weights[1, 3] > 0
    assert T.reversible
    # DB(2,1) keeps self-loops from the shift rule and still normalizes.
    T1 = build_debruijn(2, 1)
    npt.assert_allclose(T1.probs.sum(axis=1), 1.0, atol=1e-12)
    assert T1.weights[0, 0] > 0


def test_debruijn_rejects_cap_and_bad_params():
    with pytest.raises(ValueError):
        build_debruijn(1, 3)
    with pytest.raises(ValueError):
        build_debruijn(2, 0)
    with pytest.raises(ValueError):
        build_debruijn(2, 14)  # 2^14 over the state cap


def test_hypercube_rows_and_flags():
    T = build_hypercube(3)
    for i in range(8):
        nbrs = [i ^ (1 << b) for b in range(3)]
        for j in range(8):
            expected = 1.0 / 3.0 if j in nbrs else 0.0
            assert T.probs[i, j] == pytest.approx(expected)
    assert T.reversible

    T1 = build_hypercube(1)
    npt.assert_array_equal(T1.probs, [[0.0, 1.0], [1.0, 0.0]])

    with pytest.raises(ValueError):
        build_hypercube(14)


def test_assemble_two_c5_into_12():
    spec = GraphSpec(family="circulant", n=5, action_set=(-1, 1))
    T = assemble(spec, 12)
    assert T.n_states == 12
    assert T.tiling.copies == 2
    assert T.tiling.fillers.size == 2
    sub = build_subgraph(spec)
    npt.assert_array_equal(T.probs[:5, :5], sub.probs)
    npt.assert_array_equal(T.probs[5:10, 5:10], sub.probs)
    # off-diagonal blocks empty, fillers are probability-1 self-loops
    assert np.all(T.probs[:5, 5:] == 0.0)
    assert T.probs[10, 10] == 1.0
    assert T.probs[11, 11] == 1.0


def test_assemble_single_copy_is_subgraph():
    spec = GraphSpec(family="hypercube", dim=3)
    T = assemble(spec, 8)
    npt.assert_array_equal(T.probs, build_hypercube(3).probs)


@pytest.mark.parametrize("spec", [
    GraphSpec(family="circulant", n=5, action_set=(-1, 1)),  # reversible, two fillers
    GraphSpec(family="circulant", n=5, action_set=(1, 2)),  # directed: weights is None
])
def test_relabeled_assemble_is_permuted_consecutive_layout(spec):
    relabel = np.random.default_rng(3).permutation(12)
    plain = assemble(spec, 12)
    T = assemble(spec, 12, relabel=relabel)
    ix = np.ix_(relabel, relabel)
    assert np.array_equal(T.probs, plain.probs[ix])
    if plain.weights is None:
        assert T.weights is None and not T.reversible
    else:
        assert np.array_equal(T.weights, plain.weights[ix])
    assert (T.tiling.copies, T.tiling.fillers.size) == (2, 2)
    assert T.spec == plain.spec


@pytest.mark.parametrize("relabel", [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10],  # repeated index
    list(range(11)),  # too short
    list(range(13)),  # too long
    list(range(1, 13)),  # out of range
])
def test_assemble_rejects_non_permutation_relabel(relabel):
    spec = GraphSpec(family="circulant", n=5, action_set=(-1, 1))
    with pytest.raises(ValueError, match="permutation"):
        assemble(spec, 12, relabel=relabel)


def test_assemble_rejects_too_small_target():
    spec = GraphSpec(family="circulant", n=5, action_set=(-1, 1))
    with pytest.raises(ValueError):
        assemble(spec, 4)


TILED_SPECS = [
    GraphSpec(family="circulant", n=5, action_set=(-1, 1)),
    GraphSpec(family="circulant", n=5, action_set=(1, 2)),  # directed
    GraphSpec(family="de_bruijn", k=2, m=3),
    GraphSpec(family="hypercube", dim=3),
]


@pytest.mark.parametrize("spec", TILED_SPECS)
@pytest.mark.parametrize("relabel", [None, np.random.default_rng(5).permutation(27)])
def test_assembled_layouts_pass_the_dense_validator(spec, relabel):
    T = assemble(spec, 27, relabel=relabel)
    assert T.tiling.fillers.size > 0
    # rebuilt without its tiling, the layout goes through every dense check
    dense = TransitionMatrix(T.probs, reversible=T.reversible, weights=T.weights, spec=T.spec)
    assert dense.tiling is None
    assert np.max(np.abs(T.probs.sum(axis=1) - 1.0)) <= 1e-15
    if T.reversible:
        assert np.array_equal(T.weights, T.weights.T)


def test_malformed_tiling_is_rejected():
    T = assemble(GraphSpec(family="circulant", n=5, action_set=(-1, 1)), 12)
    sub, blocks, fillers = T.tiling.sub, T.tiling.blocks, T.tiling.fillers
    repeated, outside, negative = blocks.copy(), blocks.copy(), blocks.copy()
    repeated[1, 0] = blocks[0, 0]
    outside[0, 0] = 12
    negative[0, 0] = -1
    for tiling, match in [
        (Tiling(sub, blocks[:, :4], np.concatenate([fillers, blocks[:, 4]])), "blocks must be"),
        (Tiling(sub, repeated, fillers), "distinct"),
        (Tiling(sub, outside, fillers), "cover"),
        (Tiling(sub, negative, fillers), "cover"),
        (Tiling(sub, blocks, fillers[:1]), "cover"),  # a position missing
    ]:
        with pytest.raises(ValueError, match=match):
            TransitionMatrix(T.probs, reversible=True, weights=T.weights, spec=T.spec,
                             tiling=tiling)


def test_assemble_makes_no_dense_temporaries():
    relabel = np.random.default_rng(0).permutation(1024)
    tracemalloc.start()
    try:
        T = assemble(GraphSpec(family="hypercube", dim=7), 1024, relabel=relabel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sub = T.tiling.sub
    # one 1024 x 1024 float array would be 8 MB
    assert peak <= sub.probs.nbytes + sub.weights.nbytes + 2**20
    # the dense pair is laid out on first read, then kept
    assert T.probs.shape == T.weights.shape == (1024, 1024)
    assert T.probs is T.probs and T.weights is T.weights


def test_hamiltonian_cycle_matrix():
    C = hamiltonian_cycle_matrix(np.array([0, 1, 2, 3]))
    npt.assert_array_equal(np.argmax(C, axis=1), [1, 2, 3, 0])
    npt.assert_allclose(C.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        hamiltonian_cycle_matrix(np.array([0, 0, 1]))


def test_interpolation_endpoints_and_midpoint():
    base = build_circulant(4, (-1, 1))
    same = interpolate_with_hamiltonian(base, w=0.0)
    npt.assert_array_equal(same.probs, base.probs)
    assert same.reversible

    cyc = interpolate_with_hamiltonian(base, w=1.0)
    npt.assert_array_equal(np.sort(cyc.probs, axis=1)[:, -1], np.ones(4))
    assert not cyc.reversible

    half = interpolate_with_hamiltonian(base, w=0.5)
    # 0.5 * (0.5 at +-1) + 0.5 * (1 at +1)
    npt.assert_allclose(half.probs[0], [0.0, 0.75, 0.0, 0.25], atol=1e-15)
    assert not half.reversible

    with pytest.raises(ValueError):
        interpolate_with_hamiltonian(base, w=1.5)
    with pytest.raises(ValueError):
        interpolate_with_hamiltonian(base, w=-0.1)


def test_graph_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        GraphSpec(family="torus", n=5)
