import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primetop import (
    Filtration,
    Graph,
    GraphKind,
    betti_numbers,
    build_graph,
    induced_subgraph,
    inductive_dimension,
    is_contractible,
    sphere_dimension,
    whitney_complex,
)
from primetop.cohomology import wu_characteristic_bruteforce, wu_timeline
from primetop.graphs import cliques, complete_graph, cycle_graph
from primetop.topology import sphere_dimension_within

from conftest import dimension_timeline, divisibility_graph, graph_join, path_graph


def trimmed_betti(G):
    b = list(betti_numbers(whitney_complex(G)).b)
    while b and b[-1] == 0:
        b.pop()
    return tuple(b)


def test_contractible_base_cases(small_corpus):
    assert is_contractible(small_corpus["K1"])
    assert not is_contractible(Graph([], []))
    assert not is_contractible(small_corpus["C4"])
    assert is_contractible(small_corpus["wheel6"])
    assert is_contractible(complete_graph(5))
    assert is_contractible(path_graph(9))
    assert not is_contractible(Graph([1, 2], []))


def contractible_by_definition(G):
    """The recursive definition with no screen: some vertex has a contractible
    link and deleting it leaves a contractible graph; one point is
    contractible, the empty graph is not."""
    memo = {}

    def contractible(sub):
        if len(sub) <= 1:
            return len(sub) == 1
        if sub not in memo:
            memo[sub] = any(contractible(G.neighbor_set(v) & sub) and contractible(sub - {v}) for v in sub)
        return memo[sub]

    return contractible(frozenset(G.labels))


@st.composite
def small_graphs(draw, max_vertices=9):
    k = draw(st.integers(0, max_vertices))
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(1, k + 1), [e for e, keep in zip(pairs, present) if keep])


@settings(max_examples=300, deadline=None)
@given(G=small_graphs())
def test_contractible_matches_definition(G):
    assert is_contractible(G) == contractible_by_definition(G)


def test_contractible_large_screens():
    # screens answer far beyond the recursion cap (25) when certificates exist
    assert not is_contractible(cycle_graph(40), )
    star = Graph(range(1, 41), [(1, v) for v in range(2, 41)])
    assert is_contractible(star, )
    assert is_contractible(path_graph(40), )
    two_cliques = Graph(range(1, 61), [(a, b) for a in range(1, 31) for b in range(a + 1, 31)] + [(a, b) for a in range(31, 61) for b in range(a + 1, 61)])
    assert not is_contractible(two_cliques, )


def test_contractibility_screens_rank_over_one_field(monkeypatch):
    import primetop.cohomology as cohomology

    def no_exact(col, pivots):
        raise AssertionError("a contractibility screen ran exact elimination")

    monkeypatch.setattr(cohomology, "reduce_exact", no_exact)
    # 12 vertices take the exact recursion, 40 the screen after the stalled
    # collapse; labels from 10^12 would show an array sized by label
    for first in (1000, 10**12):
        for k in (12, 40):
            ring = Graph(range(first, first + k), [(first + i, first + (i + 1) % k) for i in range(k)])
            assert not is_contractible(ring)
    with pytest.raises(AssertionError, match="exact elimination"):
        betti_numbers(whitney_complex(cycle_graph(4)))  # the patch reaches the witness


def test_sphere_dimension_examples(sieve):
    assert sphere_dimension(Graph([], [])).dim == -1
    v = sphere_dimension(Graph([1, 2], []))
    assert v.is_sphere and v.dim == 0 and v.method == "exact"
    D210 = build_graph(GraphKind.divisor(210), sieve)
    v = sphere_dimension(D210)
    assert v.is_sphere and v.dim == 2 and v.method == "exact"


def test_sphere_dimension_cycles_and_nonspheres(small_corpus):
    for name in ("C4", "C5", "C6"):
        v = sphere_dimension(small_corpus[name])
        assert v.is_sphere and v.dim == 1
    assert sphere_dimension(small_corpus["octahedron"]).dim == 2
    assert sphere_dimension(small_corpus["K1"]).status == "contractible"
    assert sphere_dimension(small_corpus["K4"]).status == "contractible"
    assert sphere_dimension(Graph([1, 2, 3], [])).status == "neither"
    # a 0-graph needs exactly two vertices to be a 0-sphere
    assert not sphere_dimension(Graph([1, 2, 3], [])).is_sphere


def test_sphere_chi_consistency(sieve, small_corpus):
    # chi of a k-sphere is 1 + (-1)^k, cross-checked on every sphere verdict here
    cases = [small_corpus["C4"], small_corpus["C6"], small_corpus["octahedron"]]
    cases += [build_graph(GraphKind.divisor(m), sieve) for m in (6, 30, 210)]
    for G in cases:
        v = sphere_dimension(G)
        assert v.is_sphere
        chi = sum((-1) ** k * c for k, c in enumerate(whitney_complex(G).f_vector))
        assert chi == 1 + (-1) ** v.dim


def test_divisor_primorial_spheres(sieve):
    for m, dim, methods in ((30, 1, {"exact"}), (210, 2, {"exact"}), (2310, 3, {"exact", "fast"})):
        v = sphere_dimension(build_graph(GraphKind.divisor(m), sieve))
        assert v.is_sphere and v.dim == dim
        assert v.method in methods


def test_fast_screen_on_large_sphere(sieve):
    D = build_graph(GraphKind.divisor(2310), sieve)
    v = sphere_dimension(D)
    assert v.is_sphere and v.dim == 3 and v.method == "fast"


def test_sphere_dimension_within_shares_ambient(sieve):
    G = build_graph(GraphKind.prime(30), sieve)
    v = sphere_dimension_within(G, [2, 3])
    assert v.is_sphere and v.dim == 0


def test_inductive_dimension(small_corpus, sieve):
    assert inductive_dimension(small_corpus["K4"]) == 3
    assert inductive_dimension(small_corpus["C6"]) == 1
    assert inductive_dimension(Graph([], [])) == -1
    assert inductive_dimension(build_graph(GraphKind.prime(6), sieve)) == Fraction(3, 4)


def test_inductive_dimension_within(sieve):
    G = build_graph(GraphKind.prime(30), sieve)
    sub = [v for v in G.labels if v <= 6]
    assert inductive_dimension(induced_subgraph(G, sub)) == Fraction(3, 4)


def test_inductive_dimension_within_looks_up_memo_once(sieve, monkeypatch):
    # the tables belong to the call, so no graph is ever looked up by
    # structural comparison (a memo keyed on graphs would call Graph.__eq__)
    G = build_graph(GraphKind.prime(100), sieve)
    calls = []
    real_eq = Graph.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return real_eq(self, other)

    monkeypatch.setattr(Graph, "__eq__", counting_eq)
    inductive_dimension(induced_subgraph(G, [v for v in G.labels if v <= 60]))
    assert len(calls) <= 1


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 150))
@example(kind="divisor", n=7)
def test_timelines_match_from_scratch_any_n(sieve, kind, n):
    # the running passes, and Filtration.dimension read from the divisor poset, against G(m)
    # rebuilt for every m, by the literal definitions
    G = build_graph(GraphKind(kind, n), sieve)
    simplices = cliques(G)
    dims = dimension_timeline(simplices, n)
    wus = wu_timeline(simplices, n)
    assert len(dims) == len(wus) == n + 1
    assert Filtration(GraphKind(kind, n), sieve).dimension == dims
    for m in range(n + 1):
        Gm = induced_subgraph(G, [v for v in G.labels if v <= m])
        assert dims[m] == inductive_dimension(Gm), m
        assert wus[m] == wu_characteristic_bruteforce(whitney_complex(Gm)), m


@st.composite
def kindless_graphs(draw):
    """Graphs without a kind on at most 9 labels <= 60, one later vertex with no smaller neighbour."""
    labels = sorted(draw(st.sets(st.integers(1, 60), min_size=2, max_size=9)))
    lonely = labels[draw(st.integers(1, len(labels) - 1))]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :] if b != lonely]
    return Graph(labels, [p for p in pairs if draw(st.booleans())]), lonely


@settings(max_examples=60, deadline=None)
@given(graph=kindless_graphs())
def test_dimension_timeline_on_kindless_graphs(graph):
    # the pass over cliques(G) against inductive_dimension of every prefix G(n)
    G, lonely = graph
    assert all(u > lonely for u in G.neighbor_set(lonely))
    dims = dimension_timeline(cliques(G), max(G.labels))
    assert len(dims) == max(G.labels) + 1
    for n, d in enumerate(dims):
        assert d == inductive_dimension(induced_subgraph(G, [v for v in G.labels if v <= n])), n


def random_graph(rng, first):
    """A graph on 0-5 labels from first on, each edge present with probability 1/2."""
    labels = range(first, first + rng.randint(0, 5))
    return Graph(labels, [(a, b) for a in labels for b in labels if a < b and rng.random() < 0.5])


def test_join_adds_the_dimensions_plus_one():
    # dim(A * B) = dim A + dim B + 1, with dim of the empty graph -1: Filtration.dimension rests on it
    rng = random.Random(7)
    pairs = [(Graph([], []), Graph([], [])), (Graph([], []), complete_graph(3))]
    pairs += [(random_graph(rng, 1), random_graph(rng, 11)) for _ in range(300)]
    assert sum(1 for A, B in pairs if not A.n_vertices or not B.n_vertices) > 2
    for A, B in pairs:
        assert inductive_dimension(graph_join(A, B)) == inductive_dimension(A) + inductive_dimension(B) + 1, (A, B)


@pytest.mark.parametrize("kind, n", [("prime", 120), ("integer", 90), ("divisor", 2310), ("divisor", 60)])
def test_unit_sphere_is_the_join_of_divisors_and_multiples(sieve, kind, n):
    # in G(m) the unit sphere of x is its divisors 1 < d < x joined with its multiples x < w <= m
    G = build_graph(GraphKind(kind, n), sieve)
    for m in (n, n // 2):
        Gm = induced_subgraph(G, [v for v in G.labels if v <= m])
        for x in Gm.labels:
            below = divisibility_graph(d for d in range(2, x) if not x % d)
            above = divisibility_graph(w for w in Gm.labels if w > x and not w % x)
            assert induced_subgraph(Gm, Gm.neighbors(x)) == graph_join(below, above), (m, x)


def test_integer_and_prime_betti_agree(sieve):
    for n in range(2, 301):
        bP = trimmed_betti(build_graph(GraphKind.prime(n), sieve))
        bI = trimmed_betti(build_graph(GraphKind.integer(n), sieve))
        assert bP == bI, n


def test_removing_square_vertex_is_homotopy(sieve):
    # dropping 9 from Integer(12) keeps the Betti vector
    G = build_graph(GraphKind.integer(12), sieve)
    H = induced_subgraph(G, [v for v in G.labels if v != 9])
    assert trimmed_betti(G) == trimmed_betti(H)
