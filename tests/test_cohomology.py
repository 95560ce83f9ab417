import random

import numpy as np
import pytest

from primetop import (
    FactorSieve,
    GraphKind,
    InvalidArgumentError,
    ResourceLimitError,
    barycentric_morse_complex,
    barycentric_refinement,
    betti_numbers,
    boundary_matrices,
    build_graph,
    euler_characteristic,
    graph_product,
    hodge_nullity,
    inductive_dimension,
    kummer_involution,
    lefschetz_number,
    morse_betti,
    whitney_complex,
    witten_nullity,
    wu_characteristic,
)
from primetop.cohomology import (
    SimplicialComplex,
    rank_exact,
    rank_gf,
    reduce_exact,
    reduce_gf,
    wu_characteristic_bruteforce,
)
from primetop.errors import RankDiscrepancyError
from primetop.graphs import Graph, complete_graph, cycle_graph

from conftest import betti_float_oracle, projective_plane_behind_star, projective_plane_faces, random_connected_graphs


def projective_plane_complex() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane (has 2-torsion)."""
    return SimplicialComplex(projective_plane_faces())


def test_whitney_examples(sieve):
    assert whitney_complex(build_graph(GraphKind.prime(6), sieve)).f_vector == (4, 2)
    K30 = whitney_complex(build_graph(GraphKind.prime(30), sieve))
    assert (2, 6, 30) in K30.simplices[2]
    assert whitney_complex(complete_graph(4)).f_vector == (4, 6, 4, 1)


def test_euler_characteristic(sieve):
    assert euler_characteristic(whitney_complex(build_graph(GraphKind.prime(10), sieve))) == 2
    assert euler_characteristic(whitney_complex(build_graph(GraphKind.divisor(210), sieve))) == 2
    for k in (1, 2, 3, 5):
        assert euler_characteristic(whitney_complex(complete_graph(k))) == 1


def test_boundary_single_edge():
    K = whitney_complex(Graph([1, 2], [(1, 2)]))
    chain = boundary_matrices(K)
    col = chain.boundaries[0][0]
    assert col == {0: -1, 1: 1}


def test_boundary_squares_to_zero(sieve, small_corpus):
    graphs = list(small_corpus.values()) + [
        build_graph(GraphKind.prime(30), sieve),
        build_graph(GraphKind.divisor(210), sieve),
        barycentric_refinement(small_corpus["K3"]),
    ]
    for G in graphs:
        K = whitney_complex(G)
        chain = boundary_matrices(K)
        for k in range(2, K.dim + 1):
            prod = chain.dense(k - 1) @ chain.dense(k)
            assert not prod.any()


def test_boundary_prime30_triangles(sieve):
    K = whitney_complex(build_graph(GraphKind.prime(30), sieve))
    chain = boundary_matrices(K)
    # one column per divisor-chain triangle
    assert len(chain.boundaries[1]) == K.f_vector[2]
    for s in K.simplices[2]:
        a, b, c = s
        assert b % a == 0 and c % b == 0


def test_rank_engines_agree_with_numpy():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        dense = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        columns = [{i: dense[i][j] for i in range(rows) if dense[i][j]} for j in range(cols)]
        want = int(np.linalg.matrix_rank(np.array(dense, dtype=float)))
        assert rank_gf(columns, 2**31 - 1) == want
        assert rank_exact(columns) == want


def test_betti_examples(sieve):
    assert betti_numbers(whitney_complex(build_graph(GraphKind.prime(10), sieve))).b == (2, 0)
    assert betti_numbers(whitney_complex(build_graph(GraphKind.prime(15), sieve))).b == (3, 1)
    bv = betti_numbers(whitney_complex(build_graph(GraphKind.divisor(210), sieve)))
    assert bv.b == (1, 0, 1)
    assert bv.verified_rational
    # 4,682 simplices: the exact witness runs at every size
    K = whitney_complex(build_graph(GraphKind.divisor(30030), FactorSieve(30030)))
    assert K.total == 4682
    bv = betti_numbers(K)
    assert bv.b == (1, 0, 0, 0, 1)
    assert bv.verified_rational


def test_betti_numbers_of_large_labels():
    # the reduction keys its changes by vertex label, so no array is sized by one
    big = 10**12
    K = whitney_complex(Graph([1, 2, big, big + 1], [(1, 2), (2, big), (big, big + 1), (1, big + 1)]))
    assert betti_numbers(K).b == (1, 1) == betti_float_oracle(K)
    K = whitney_complex(Graph([3, big], []))
    assert betti_numbers(K, field_prime=3).b == (2,)


def test_betti_against_float_oracle(sieve):
    for G in random_connected_graphs(80, seed=23):
        K = whitney_complex(G)
        assert tuple(betti_numbers(K).b) == betti_float_oracle(K)
    for n in (15, 30, 60, 105):
        K = whitney_complex(build_graph(GraphKind.prime(n), sieve))
        assert tuple(betti_numbers(K).b) == betti_float_oracle(K)


def test_betti_euler_poincare(sieve):
    for n in (10, 30, 105, 210):
        K = whitney_complex(build_graph(GraphKind.prime(n), sieve))
        bv = betti_numbers(K)
        assert sum((-1) ** k * b for k, b in enumerate(bv.b)) == euler_characteristic(K)


def test_betti_basis_independence(sieve):
    # relabeling vertices permutes the chosen simplex orientations; b must not move
    G = build_graph(GraphKind.prime(60), sieve)
    want = betti_numbers(whitney_complex(G)).b
    for seed in (1, 2):
        rng = random.Random(seed)
        perm = list(range(1, G.n_vertices + 1))
        rng.shuffle(perm)
        relabel = dict(zip(G.labels, perm))
        H = Graph(perm, [(relabel[a], relabel[b]) for a, b in G.edges()])
        assert betti_numbers(whitney_complex(H)).b == want


def test_betti_barycentric_invariance(sieve):
    corpus = random_connected_graphs(40, seed=7)
    corpus += [build_graph(GraphKind.prime(n), sieve) for n in (15, 30, 60)]
    for G in corpus:
        b1 = betti_numbers(whitney_complex(G)).b
        b2 = betti_numbers(whitney_complex(barycentric_refinement(G))).b
        length = max(len(b1), len(b2))
        assert list(b1) + [0] * (length - len(b1)) == list(b2) + [0] * (length - len(b2))


def test_empty_complex():
    K = whitney_complex(Graph([], []))
    assert K.f_vector == ()
    assert euler_characteristic(K) == 0
    assert betti_numbers(K).b == ()


def test_hodge_nullity(sieve, small_corpus):
    assert hodge_nullity(whitney_complex(small_corpus["C4"]), 1) == 1
    assert hodge_nullity(whitney_complex(small_corpus["K3"]), 0) == 1
    K30 = whitney_complex(build_graph(GraphKind.prime(30), sieve))
    bv = betti_numbers(K30)
    for k in range(K30.dim + 1):
        assert hodge_nullity(K30, k) == bv[k]
    K13 = whitney_complex(complete_graph(13))
    assert K13.total == 8191  # above the dense budget of 6000
    with pytest.raises(ResourceLimitError):
        hodge_nullity(K13, 1)


def test_witten_nullity(sieve, small_corpus):
    K30 = whitney_complex(build_graph(GraphKind.prime(30), sieve))
    f = {v: v / 30 for v in build_graph(GraphKind.prime(30), sieve).labels}
    base = witten_nullity(K30, f, 0.0)
    assert base == [hodge_nullity(K30, k) for k in range(K30.dim + 1)]
    assert witten_nullity(K30, f, 1.0) == base
    K2 = whitney_complex(small_corpus["K2"])
    assert witten_nullity(K2, {1: 0.3, 2: 0.9}, 0.5) == [1, 0]
    with pytest.raises(ResourceLimitError):
        witten_nullity(whitney_complex(complete_graph(13)), {v: v / 13 for v in range(1, 14)}, 1.0)
    with pytest.raises(InvalidArgumentError):
        witten_nullity(K2, {1: 0.0}, 0.5)


def test_wu_characteristic(small_corpus):
    assert wu_characteristic(whitney_complex(small_corpus["K1"])) == 1
    assert wu_characteristic(whitney_complex(small_corpus["K2"])) == -1
    assert wu_characteristic(whitney_complex(small_corpus["K3"])) == 1
    # 3^17 - 2^17 = 129,009,091 (simplex, face) pairs, above the budget of 5 * 10^7
    with pytest.raises(ResourceLimitError, match="129009091 subset terms"):
        wu_characteristic(whitney_complex(complete_graph(17)))


def wu_pair_loop(K):
    """The ordered-pair definition as a plain double loop, the reference for the vectorized oracle."""
    sims = [frozenset(s) for s in K.all_simplices()]
    return sum((-1) ** (len(x) + len(y)) for x in sims for y in sims if x & y)


def test_wu_matches_bruteforce(sieve):
    for G in random_connected_graphs(30, seed=9):
        K = whitney_complex(G)
        assert wu_characteristic(K) == wu_characteristic_bruteforce(K) == wu_pair_loop(K)
    for n in (10, 30, 60):
        K = whitney_complex(build_graph(GraphKind.prime(n), sieve))
        assert wu_characteristic(K) == wu_characteristic_bruteforce(K) == wu_pair_loop(K)
    assert wu_characteristic(SimplicialComplex([])) == wu_characteristic_bruteforce(SimplicialComplex([])) == 0


def test_lefschetz_identity_is_euler(sieve, small_corpus):
    for G in (small_corpus["C5"], small_corpus["octahedron"], build_graph(GraphKind.prime(30), sieve)):
        K = whitney_complex(G)
        ident = {v: v for v in G.labels}
        st, br = lefschetz_number(K, ident)
        assert st == br == euler_characteristic(K)


def test_lefschetz_kummer_involution(sieve):
    for m in (30, 210):
        G = build_graph(GraphKind.divisor(m), sieve)
        K = whitney_complex(G)
        perm = kummer_involution(m, sieve)
        assert lefschetz_number(K, perm) == (0, 0)


def test_lefschetz_rejects_non_automorphism(small_corpus):
    K = whitney_complex(small_corpus["K2"])
    with pytest.raises(InvalidArgumentError):
        lefschetz_number(K, {1: 1})  # undefined on 2
    P = whitney_complex(Graph([1, 2, 3], [(1, 2)]))
    with pytest.raises(InvalidArgumentError):
        lefschetz_number(P, {1: 1, 2: 3, 3: 2})  # sends edge (1,2) to non-edge (1,3)
    with pytest.raises(InvalidArgumentError):
        lefschetz_number(K, {1: 1, 2: 1})  # collapses the edge (1,2)


def test_lefschetz_dense_budget():
    K = whitney_complex(cycle_graph(3100))
    assert K.total == 6200
    with pytest.raises(ResourceLimitError):
        lefschetz_number(K, {v: v for v in range(1, 3101)})


def test_lefschetz_rotation_of_cycle(small_corpus):
    # rotating C_5 fixes nothing; Lefschetz number 0 = chi of a circle
    K = whitney_complex(small_corpus["C5"])
    rot = {v: v % 5 + 1 for v in range(1, 6)}
    assert lefschetz_number(K, rot) == (0, 0)


def test_product_laws_sample(small_corpus):
    A, B = small_corpus["C4"], small_corpus["K3"]
    P = graph_product(A, B)
    KA, KB, KP = whitney_complex(A), whitney_complex(B), whitney_complex(P)
    assert euler_characteristic(KP) == euler_characteristic(KA) * euler_characteristic(KB)
    ba, bb = betti_numbers(KA).b, betti_numbers(KB).b
    bp = betti_numbers(KP).b
    conv = [0] * (len(ba) + len(bb) - 1)
    for i, x in enumerate(ba):
        for j, y in enumerate(bb):
            conv[i + j] += x * y
    assert list(bp)[: len(conv)] + [0] * max(0, len(conv) - len(bp)) == conv
    assert inductive_dimension(P) >= inductive_dimension(A) + inductive_dimension(B)


def test_rank_discrepancy_detected_on_torsion():
    # GF(2) sees the projective plane's 2-torsion; the rational oracle does not,
    # so an unlucky prime raises instead of silently returning wrong ranks
    K = projective_plane_complex()
    assert betti_numbers(K).b == (1, 0, 0)  # default large prime: rational answer
    with pytest.raises(RankDiscrepancyError) as exc:
        betti_numbers(K, field_prime=2)
    assert exc.value.field_prime == 2
    # the same torsion behind a star, 4,184 simplices in all: still witnessed
    G = projective_plane_behind_star()
    K = whitney_complex(G)
    assert K.total == 4184
    assert betti_numbers(K).b == (2, 0, 0)
    with pytest.raises(RankDiscrepancyError):
        betti_numbers(K, field_prime=2)
    with pytest.raises(RankDiscrepancyError):
        morse_betti(barycentric_morse_complex(G), field_prime=2)


def test_reducers_leave_rank_inputs_untouched_and_agree_with_rank():
    rng = random.Random(8)
    for _ in range(40):
        columns = [
            {i: v for i in range(6) if (v := rng.randint(-3, 3))} for _ in range(rng.randint(1, 7))
        ]
        copies = [dict(col) for col in columns]
        gf_pivots, exact_pivots = {}, {}
        gf_rows = [reduce_gf(dict(col), gf_pivots, 2**31 - 1) for col in columns]
        exact_rows = [reduce_exact(dict(col), exact_pivots) for col in columns]
        assert gf_rows == exact_rows  # the same columns survive, at the same pivot rows
        assert sorted(gf_pivots) == sorted(r for r in gf_rows if r is not None)
        assert all(gf_pivots[r][r] == 1 for r in gf_pivots)
        assert rank_gf(columns, 2**31 - 1) == rank_exact(columns) == len(gf_pivots)
        assert columns == copies
