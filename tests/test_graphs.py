import json
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primetop import (
    FactorSieve,
    Graph,
    GraphKind,
    InvalidArgumentError,
    barycentric_refinement,
    build_graph,
    cli,
    components,
    euler_characteristic,
    graph_product,
    graphs,
    heteroclinic,
    induced_subgraph,
    kummer_involution,
    primorial,
    whitney_complex,
)
from primetop.errors import InternalConsistencyError
from primetop.graphs import (
    _certified_joins,
    _neighbour_source,
    kind_labels,
    proper_divisors,
    bfs_distances,
    cliques,
    complete_graph,
    cycle_graph,
    verify_component_diameter_bound,
)

from conftest import component_diameter, diameter_bound_oracle, is_prime_label, path_graph


def test_build_graph_examples(sieve):
    G = build_graph(GraphKind.prime(6), sieve)
    assert G.labels == (2, 3, 5, 6)
    assert G.edges() == [(2, 6), (3, 6)]
    GI = build_graph(GraphKind.integer(6), sieve)
    assert GI.labels == (2, 3, 4, 5, 6)
    assert GI.edges() == [(2, 4), (2, 6), (3, 6)]
    D = build_graph(GraphKind.divisor(30), sieve)
    assert D.labels == (2, 3, 5, 6, 10, 15)
    assert all(D.degree(v) == 2 for v in D.labels)
    assert len(components(D)) == 1  # a 6-cycle


def test_build_graph_validation(sieve):
    with pytest.raises(InvalidArgumentError):
        GraphKind.prime(1)
    with pytest.raises(InvalidArgumentError, match="unknown graph kind 'foo'"):
        GraphKind("foo", 4)
    with pytest.raises(InvalidArgumentError):
        build_graph(GraphKind.prime(sieve.limit + 1), sieve)


def test_induced_subgraph(sieve):
    G = build_graph(GraphKind.prime(10), sieve)
    H = induced_subgraph(G, {2, 6, 3})
    assert H.labels == (2, 3, 6)
    assert H.edges() == [(2, 6), (3, 6)]
    assert induced_subgraph(G, set()).labels == ()
    assert induced_subgraph(G, G.labels) == G
    with pytest.raises(InvalidArgumentError):
        induced_subgraph(G, {4})


def test_components(sieve):
    G = build_graph(GraphKind.prime(10), sieve)
    assert components(G) == [{2, 3, 5, 6, 10}, {7}]
    assert components(Graph([], [])) == []
    assert components(build_graph(GraphKind.prime(3), sieve)) == [{2}, {3}]


def test_component_diameter(sieve):
    assert component_diameter(build_graph(GraphKind.prime(15), sieve), 2) == 5
    assert component_diameter(build_graph(GraphKind.prime(10), sieve), 7) == 0
    assert component_diameter(build_graph(GraphKind.prime(6), sieve), 2) == 2


def test_diameter_bound_sweep_small(sieve):
    assert verify_component_diameter_bound(GraphKind.prime(500), sieve, 500) is None
    # the sweep's conclusion matches brute-force diameters at a few n
    G = build_graph(GraphKind.prime(500), sieve)
    for n in (15, 60, 120):
        sub = induced_subgraph(G, [v for v in G.labels if v <= n])
        assert component_diameter(sub, 2) <= 5


@pytest.mark.parametrize("kind, n_max", [("prime", 400), ("integer", 200), ("divisor", 2310)])
def test_diameter_bound_matches_literal_sweep(sieve, kind, n_max):
    G = build_graph(GraphKind(kind, n_max), sieve)
    # the shorter sweeps end before some of the first failures
    for stop in (5, 9, 14, n_max):
        for bound in range(1, 6):
            got = verify_component_diameter_bound(GraphKind(kind, n_max), sieve, stop, bound)
            assert got == diameter_bound_oracle(G, stop, bound), (stop, bound)


def test_diameter_bound_disconnection_error(sieve):
    # Divisor(14) is the two labels 2 and 7 with no edge, and 7 joins at n = 14;
    # with anchor 3, the prime 2 joins Prime(30)'s component alone at n = 4
    for kind, anchor, n in ((GraphKind.divisor(14), 2, 14), (GraphKind.prime(30), 3, 4)):
        with pytest.raises(InternalConsistencyError, match=f"disconnected at n={n}$"):
            verify_component_diameter_bound(kind, sieve, kind.param, anchor=anchor)
        with pytest.raises(InternalConsistencyError, match=f"disconnected at n={n}$"):
            diameter_bound_oracle(build_graph(kind, sieve), kind.param, anchor=anchor)


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except InternalConsistencyError as exc:
        return str(exc)


def sieve_sweep_outcome(sieve, kind, n, bound):
    """The sweep on the kind's graph read from the sieve, with no Graph built."""
    return _outcome(verify_component_diameter_bound, GraphKind(kind, n), sieve, n, bound)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400), bound=st.integers(1, 5))
def test_diameter_bound_matches_literal_sweep_any_n(sieve, kind, n, bound):
    if kind == "divisor":  # Divisor(m) has the anchor 2 only for an even m > 2; Divisor(2p) is disconnected
        n = max(4, n - n % 2)
    G = build_graph(GraphKind(kind, n), sieve)
    assert sieve_sweep_outcome(sieve, kind, n, bound) == _outcome(diameter_bound_oracle, G, n, bound)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(4, 400), bound=st.integers(2, 5))
@example(kind="prime", n=400, bound=3)
@example(kind="integer", n=200, bound=4)
@example(kind="divisor", n=210, bound=2)
def test_sieve_diameter_sweep_matches_the_kindless_copy(sieve, kind, n, bound):
    if kind == "divisor":  # Divisor(m) has the anchor 2 only for an even m > 2
        n -= n % 2
    G = build_graph(GraphKind(kind, n), sieve)
    copy = Graph(G.labels, G.edges())  # the same labels and edges, and nothing of the kind they came from
    assert sieve_sweep_outcome(sieve, kind, n, bound) == _outcome(diameter_bound_oracle, copy, n, bound)


@pytest.mark.parametrize("kind, n", [("prime", 2310), ("integer", 520), ("divisor", 2310), ("divisor", 30030)])
def test_diameter_bound_matches_literal_sweep_at_benchmark_sizes(kind, n):
    sieve = FactorSieve(n)
    G = build_graph(GraphKind(kind, n), sieve)
    for bound in range(2, 6):
        assert sieve_sweep_outcome(sieve, kind, n, bound) == _outcome(diameter_bound_oracle, G, n, bound), bound


@pytest.mark.parametrize("kind, n_max", [("prime", 2310), ("integer", 520), ("divisor", 30030)])
def test_diameter_certificates_are_upper_bounds(kind, n_max):
    sieve = FactorSieve(n_max)
    K = GraphKind(kind, n_max)
    G = build_graph(K, sieve)
    joined = []
    joins = _certified_joins(kind_labels(K, sieve), _neighbour_source(K, sieve), sieve.spf, n_max, 2)
    for n, x, certified, far in joins:
        members = set(far)
        to_anchor = bfs_distances(G, 2, within=members)
        assert to_anchor.keys() == members, n
        assert all(bound >= to_anchor[v] for v, bound in far.items()), n
        assert certified >= max(bfs_distances(G, x, within=members).values()), (n, x)
        joined.append(x)
    assert sorted(joined) == [v for v in G.labels if v != 2 and (2 * v if is_prime_label(v) else v) <= n_max]


def _count_bfs(monkeypatch):
    """Patch graphs._distances, the BFS of the diameter sweep, to record the source label of every run."""
    calls = []
    bfs = graphs._distances

    def counted(neighbours, source, within=None):
        calls.append(source)
        return bfs(neighbours, source, within)

    monkeypatch.setattr(graphs, "_distances", counted)
    return calls


def test_diameter_certificates_settle_every_join(monkeypatch):
    calls = _count_bfs(monkeypatch)
    sieve = FactorSieve(20000)
    for kind, n_max in (("prime", 2310), ("integer", 520), ("prime", 20000)):
        assert verify_component_diameter_bound(GraphKind(kind, n_max), sieve, n_max) is None
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 3000))
@example(x=1)
@example(x=2310)
@example(x=2048)
def test_proper_divisors_by_trial_division(sieve, x):
    assert proper_divisors(x, sieve) == [d for d in range(2, x) if not x % d]


def test_diameter_bfs_fallback_on_a_kind(sieve, monkeypatch):
    calls = _count_bfs(monkeypatch)
    assert verify_component_diameter_bound(GraphKind.prime(2310), sieve, 2310, bound=3) == 10
    # the far bounds settle every even joiner; a BFS runs from the primes 3 and 5, and the second finds ecc 4
    assert calls == [3, 5]
    assert diameter_bound_oracle(build_graph(GraphKind.prime(2310), sieve), 2310, bound=3) == 10


def test_prime_is_squarefree_restriction_of_integer(sieve):
    for n in range(2, 501):
        GP = build_graph(GraphKind.prime(n), sieve)
        GI = build_graph(GraphKind.integer(n), sieve)
        restricted = induced_subgraph(GI, GP.labels)
        assert restricted.labels == GP.labels
        assert restricted.edges() == GP.edges()


def test_divisor_vertex_count(sieve):
    # squarefree m with d+1 prime factors: 2^(d+1) - 2 vertices
    for m, count in ((6, 2), (30, 6), (210, 14), (2310, 30)):
        assert build_graph(GraphKind.divisor(m), sieve).n_vertices == count


def cliques_by_definition(G):
    """Every vertex subset whose pairs are all edges, by dimension, each dimension in lexicographic order."""
    by_dim = []
    for size in range(1, G.n_vertices + 1):
        dim = [s for s in combinations(G.labels, size) if all(G.has_edge(a, b) for a, b in combinations(s, 2))]
        if not dim:
            break
        by_dim.append(dim)
    return by_dim


@st.composite
def small_graphs(draw):
    labels = sorted(draw(st.sets(st.integers(1, 10**9), max_size=8)))
    pairs = list(combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(labels, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(G=small_graphs())
@example(G=path_graph(3))  # (1, 2) ends at the neighbour 2 of 3 but leaves N(3)
@example(G=Graph([40, 7, 1000003, 5], [(5, 40), (7, 40), (5, 1000003), (40, 1000003)]))  # (7, 40) leaves N(1000003)
@example(G=Graph([], []))
def test_cliques_are_the_complete_vertex_subsets(G):
    assert cliques(G) == cliques_by_definition(G)


def test_barycentric_refinement_small():
    P = barycentric_refinement(complete_graph(2))
    assert P.labels == (1, 2, 3)
    assert P.edges() == [(1, 2), (2, 3)]
    B = barycentric_refinement(cycle_graph(4))
    assert B.n_vertices == 8
    assert sorted(B.degree(v) for v in B.labels) == [2] * 8
    assert len(components(B)) == 1  # C_8
    W = barycentric_refinement(complete_graph(3))
    assert W.n_vertices == 7
    assert sorted(W.degree(v) for v in W.labels) == [3, 3, 3, 3, 3, 3, 6]


def test_graph_product(sieve):
    G = build_graph(GraphKind.prime(10), sieve)
    assert graph_product(G, complete_graph(1)) == barycentric_refinement(G)
    assert graph_product(complete_graph(1), complete_graph(1)).labels == (1,)
    P = graph_product(complete_graph(2), complete_graph(2))
    assert euler_characteristic(whitney_complex(P)) == 1


def test_graph_product_vertex_count(sieve):
    for A in (complete_graph(3), cycle_graph(4)):
        for B in (complete_graph(2), cycle_graph(5)):
            na = sum(len(d) for d in cliques(A))
            nb = sum(len(d) for d in cliques(B))
            assert graph_product(A, B).n_vertices == na * nb


def test_kummer_involution(sieve):
    assert kummer_involution(30, sieve) == {2: 15, 15: 2, 3: 10, 10: 3, 5: 6, 6: 5}
    assert kummer_involution(6, sieve) == {2: 3, 3: 2}
    perm = kummer_involution(210, sieve)
    assert len(perm) == 14
    assert all(perm[v] != v for v in perm)
    assert all(perm[perm[v]] == v for v in perm)
    with pytest.raises(InvalidArgumentError):
        kummer_involution(12, sieve)
    with pytest.raises(InvalidArgumentError):
        kummer_involution(5, sieve)


def test_heteroclinic(sieve):
    G210 = build_graph(GraphKind.prime(210), sieve)
    assert heteroclinic(G210, 6, 210) == {6, 30, 42, 210}
    assert heteroclinic(G210, 6, 6) == {6}
    G209 = build_graph(GraphKind.prime(209), sieve)
    assert heteroclinic(G209, 2, 70) == {2, 10, 14, 70}
    with pytest.raises(InvalidArgumentError):
        heteroclinic(G209, 1, 70)


def test_graph_constructor_validation():
    with pytest.raises(InvalidArgumentError):
        Graph([1, 1], [])
    with pytest.raises(InvalidArgumentError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(InvalidArgumentError):
        Graph([1, 2], [(1, 3)])
    with pytest.raises(InvalidArgumentError):
        Graph([0, 1], [])


def divisibility_pairs(labels):
    return [(a, b) for a, b in combinations(sorted(labels), 2) if b % a == 0]


def test_a_graph_has_no_kind(sieve):
    # a kind is a GraphKind, which fixes its graph; these labels are not Prime(91)'s, and their anchor
    # component has diameter 6 (55 - 5 - 10 - 2 - 14 - 7 - 91) while Prime(91)'s stays within 5
    labels = [2, 5, 7, 10, 11, 13, 14, 22, 26, 55, 91]
    with pytest.raises(TypeError):
        Graph(labels, divisibility_pairs(labels), kind="prime", param=91)
    G = Graph(labels, divisibility_pairs(labels))
    assert component_diameter(G, 2) == 6
    assert diameter_bound_oracle(G, 91) == 91
    assert verify_component_diameter_bound(GraphKind.prime(91), sieve, 91) is None
    for H in (G, build_graph(GraphKind.prime(91), sieve)):
        assert not any(hasattr(H, name) for name in ("kind", "param", "to_json"))


def assert_build_graph_is_its_definition(sieve, kind, n):
    squarefree = [x for x in range(2, n + 1) if all(e == 1 for _, e in sieve.factorization(x))]
    labels = {"integer": list(range(2, n + 1)), "prime": squarefree, "divisor": [d for d in squarefree if n % d == 0 and d != n]}
    G = build_graph(GraphKind(kind, n), sieve)
    assert list(G.labels) == labels[kind]
    # the label rule that build_graph and morse.Filtration read
    assert kind_labels(GraphKind(kind, n), sieve).tolist() == labels[kind]
    assert G.edges() == divisibility_pairs(labels[kind])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400))
def test_build_graph_is_its_definition_any_n(sieve, kind, n):
    assert_build_graph_is_its_definition(sieve, kind, n)


# the m of test_betti_matches_the_subdivision_on_divisor_graphs
@pytest.mark.parametrize("m", [2, 4, 6, 7, 9, 30, 45, 105, 210, 1155, 2310])
def test_build_graph_is_its_definition_on_divisor_graphs(sieve, m):
    assert_build_graph_is_its_definition(sieve, "divisor", m)


def test_build_graph_keeps_one_adjacency_copy():
    sieve = FactorSieve(20000)
    tracemalloc.start()
    try:
        G = build_graph(GraphKind.prime(20000), sieve)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.n_vertices == 12159
    assert retained <= 11_000_000, retained
    # each mutable row is frozen and dropped in one step, not copied
    assert peak <= 13_000_000, peak


def test_json_schema(capsys):
    assert cli.main(["build", "--kind", "prime", "--n", "30", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "prime"
    assert data["param"] == 30
    assert data["vertices"] == sorted(data["vertices"])
    edges = [tuple(e) for e in data["edges"]]
    assert all(a < b for a, b in edges)
    assert edges == sorted(edges)


def test_dot_export(sieve):
    D = build_graph(GraphKind.divisor(210), sieve)
    dot = D.to_dot()
    assert dot.startswith("graph G {")
    assert dot.count(";") == 14 + len(D.edges())
    assert "2 -- 6;" in dot


def test_adjacency_is_sorted_indices(sieve):
    for kind, n in (("prime", 30), ("integer", 60), ("divisor", 210)):
        G = build_graph(GraphKind(kind, n), sieve)
        for H in (G, Graph(G.labels, G.edges())):
            for v in H.labels:
                row = H.neighbors(v)
                assert list(row) == sorted(H.neighbor_set(v))
                assert all(H.has_edge(u, v) and v in H.neighbors(u) for u in row)


def test_kummer_involution_on_primorials(sieve):
    for d in (2, 3, 4, 5):
        m = primorial(d)
        perm = kummer_involution(m, sieve)
        assert all(perm[perm[v]] == v for v in perm)
