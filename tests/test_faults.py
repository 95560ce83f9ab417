"""Planted faults: each fast path that stands in for a slower definition must be caught when it is wrong.

Every case monkeypatches one fault into a fast path and asserts that a check
sharing no code with that path rejects it: a guard raising with the expected
first n, or an oracle comparison coming out unequal.  A fault no guard catches
is a finding, not a case to drop.
"""

from array import array
from types import SimpleNamespace

import pytest

import primetop.graphs as graphs
import primetop.morse as morse
from primetop import Filtration, Graph, GraphKind, RankDiscrepancyError, build_graph, classify_vertex
from primetop.cli import check_mertens
from primetop.errors import InternalConsistencyError


def _outcome(G, n, bound, sieve=None):
    try:
        return graphs.verify_component_diameter_bound(G, n, bound, sieve=sieve)
    except InternalConsistencyError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "kind, n, bound, faulted, oracle",
    [
        ("prime", 400, 2, "anchor component disconnected at n=6", 10),
        ("integer", 200, 4, "anchor component disconnected at n=9", 10),
    ],
)
def test_a_neighbour_source_dropping_a_multiple_is_caught_by_the_kindless_copy(
    sieve, monkeypatch, kind, n, bound, faulted, oracle
):
    # the sieve's neighbours of 3 lose its multiple 6; the kindless copy reads the graph's own edges
    source = graphs._neighbour_source

    def dropping(G, sieve):
        labels, neighbours, composite, bridge = source(G, sieve)
        if isinstance(G, Graph):
            return labels, neighbours, composite, bridge
        return labels, lambda v, m: [w for w in neighbours(v, m) if (v, w) != (3, 6)], composite, bridge

    G = build_graph(GraphKind(kind, n), sieve)
    copy = Graph(G.labels, G.edges())
    assert _outcome(GraphKind(kind, n), n, bound, sieve) == _outcome(copy, n, bound) == oracle
    monkeypatch.setattr(graphs, "_neighbour_source", dropping)
    assert _outcome(GraphKind(kind, n), n, bound, sieve) == faulted
    assert _outcome(copy, n, bound) == oracle


def test_a_divisor_sphere_missing_a_divisor_is_caught_by_classify_vertex(sieve, monkeypatch):
    # the sphere of 30, a hexagon, loses 6 and becomes a contractible path
    divisors = morse.proper_divisors
    monkeypatch.setattr(morse, "proper_divisors", lambda x, sieve: [d for d in divisors(x, sieve) if (x, d) != (30, 6)])
    G = build_graph(GraphKind.prime(30), sieve)
    F = Filtration(GraphKind.prime(30), sieve)
    oracle = classify_vertex(G, 30, sieve)
    assert oracle.kind == "critical" and oracle.morse_index == 2
    assert F.representatives[(1, 1, 1)].kind == "homotopy"
    assert F.events != [classify_vertex(G, x, sieve) for x in G.labels]


def test_an_f_entry_off_by_one_is_caught_by_mertens_euler_and_euler_poincare(sieve):
    # f_1(60) one too large, at n = 60 alone: chi(60) moves off 1 - M(60) and off the Betti numbers' chi
    F = Filtration(GraphKind.prime(100), sieve)
    assert check_mertens(SimpleNamespace(n_max=100), F)[0] and F.betti
    faulted = Filtration(GraphKind.prime(100), sieve)
    faulted.f = [array("q", row) for row in F.f]
    faulted.f[1][60] += 1
    assert check_mertens(SimpleNamespace(n_max=100), faulted) == (False, "first counterexample n=60")
    with pytest.raises(RankDiscrepancyError, match=r"disagree with Euler-Poincare first at n=60$"):
        faulted.betti
