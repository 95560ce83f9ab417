import math
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primetop import (
    ClassificationError,
    Filtration,
    GraphKind,
    InvalidArgumentError,
    RankDiscrepancyError,
    barycentric_morse_complex,
    barycentric_refinement,
    betti_numbers,
    betti_timeline,
    build_graph,
    chi_timeline,
    classify_vertex,
    critical_counts,
    divisor_sphere,
    euler_characteristic,
    induced_subgraph,
    morse_betti,
    morse_inequality_check,
    stable_sphere,
    whitney_complex,
)
from primetop.arithmetic import FactorSieve, mertens, pi_k, pi_k_tables
from primetop.cli import check_formulas, check_hopf
from primetop.graphs import Graph, cliques, complete_graph, cycle_graph
from primetop.cohomology import _betti_timeline, _f_vector, _simplicial, reduce_exact, reduce_gf
from primetop.morse import _bjorner_partner, betti_formulas

from conftest import betti_rank_oracle, dimension_timeline, projective_plane_behind_star, projective_plane_subdivision


def column(rows, n):
    """[row[n] for row in rows] without its trailing zeros: one n of the timelines rows[k][n]."""
    col = [row[n] for row in rows]
    while col and not col[-1]:
        col.pop()
    return col


def rows(timeline):
    """The rows [k][n] of a timeline as lists, to compare with a list oracle."""
    return [list(row) for row in timeline]


def test_stable_sphere_examples(sieve):
    G30 = build_graph(GraphKind.prime(30), sieve)
    assert stable_sphere(G30, 6).labels == (2, 3)
    for p in (7, 11, 29):
        assert stable_sphere(G30, p).labels == ()
    G105 = build_graph(GraphKind.prime(105), sieve)
    assert stable_sphere(G105, 105).labels == (3, 5, 7, 15, 21, 35)


def test_classify_vertex_examples(sieve):
    GI = build_graph(GraphKind.integer(12), sieve)
    ev = classify_vertex(GI, 9, sieve=sieve)
    assert ev.kind == "homotopy" and ev.mu == 0 and ev.ph_index == 0
    G30 = build_graph(GraphKind.prime(30), sieve)
    ev30 = classify_vertex(G30, 30, sieve=sieve)
    assert ev30.kind == "critical" and ev30.morse_index == 2 and ev30.ph_index == 1
    ev7 = classify_vertex(G30, 7, sieve=sieve)
    assert ev7.kind == "critical" and ev7.morse_index == 0 and ev7.ph_index == 1
    assert ev7.stable_sphere_dim == -1


def test_classify_vertex_rejects_neither(sieve):
    # three pairwise-nonadjacent neighbours below 31: three points, neither a sphere
    # nor contractible
    from primetop.graphs import Graph

    G = Graph([2, 3, 5, 31], [(2, 31), (3, 31), (5, 31)])
    with pytest.raises(ClassificationError):
        classify_vertex(G, 31, sieve=sieve)


def test_event_invariants(sieve):
    for ev in Filtration(GraphKind.integer(60), sieve).events:
        if ev.kind == "critical":
            assert ev.ph_index in (-1, 1)
            assert ev.ph_index == (-1) ** ev.morse_index == -ev.mu
            assert ev.morse_index == ev.stable_sphere_dim + 1
        else:
            assert ev.mu == 0 and ev.ph_index == 0
            assert ev.morse_index is None


def test_run_filtration_b1_timeline(sieve):
    F = Filtration(GraphKind.prime(30), sieve)
    points = (14, 15, 21, 29, 30)
    assert {n: F.betti[1][n] for n in points} == {14: 0, 15: 1, 21: 2, 29: 2, 30: 1}
    for n in points:
        assert F.mertens_euler[n] and [row[n] for row in F.poincare_hopf] == [1, 1], n
        assert [row[n] for row in F.morse_inequalities] == [1, 1] and [row[n] for row in F.formulas] == [1] * 4, n


def test_run_filtration_b2_at_105(sieve):
    b2 = Filtration(GraphKind.prime(105), sieve).betti[2]
    assert (b2[104], b2[105]) == (0, 1)


def test_filtration_reads_no_n_outside_its_range(sieve):
    F = Filtration(GraphKind.prime(30), sieve)
    assert [row[30] for row in F.betti] == [5, 1, 0] and column(F.critical, 30) == [10, 7, 1]
    # every row spans n = 0..top and no further
    for rows in (F.f, F.betti, F.critical):
        assert column(rows, 0) == [] and {len(row) for row in rows} == {31}
        with pytest.raises(IndexError):
            column(rows, 31)


def test_critical_counts(sieve):
    events = Filtration(GraphKind.prime(30), sieve).events
    assert critical_counts(events, 10) == [4, 2]
    assert critical_counts(events, 30)[2] == 1
    assert critical_counts(events, 2) == [1]


def test_critical_counts_monotone(sieve):
    events = Filtration(GraphKind.prime(120), sieve).events
    prev = []
    for n in range(2, 121):
        c = critical_counts(events, n)
        padded_prev = prev + [0] * (len(c) - len(prev))
        assert all(c[m] >= padded_prev[m] for m in range(len(c)))
        prev = c


def test_morse_inequality_check():
    assert morse_inequality_check([[3], [1]], [[6], [4]], 1) == [b"\1", b"\1"]
    assert morse_inequality_check([[2], [1]], [[2], [1]], 1) == [b"\1", b"\1"]
    assert morse_inequality_check([[2]], [[1]], 1) == [b"\0", b"\0"]
    assert morse_inequality_check([[2, 0]], [[1, 1]], 2) == [b"\0\1", b"\0\0"]  # column 1 fails Euler-Poincare alone


def as_rows(columns, width, as_numpy):
    """The columns as rows [k][i], k < width, zero past a column's end; numpy arrays if as_numpy."""
    rows = [[col[k] if k < len(col) else 0 for col in columns] for k in range(width)]
    return [np.array(row, dtype=np.int64) for row in rows] if as_numpy else rows


column_lists = st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=6)


@settings(max_examples=200, deadline=None)
@given(b=column_lists, c=column_lists, b_rows=st.integers(0, 4), c_rows=st.integers(0, 4), as_numpy=st.booleans())
# column 0 breaks the weak inequality (so the strong one too), column 1 only the strong one
@example(b=[[2], [0, 1]], c=[[1], [1, 1]], b_rows=2, c_rows=2, as_numpy=False)
@example(b=[[0]], c=[[1]], b_rows=1, c_rows=1, as_numpy=True)  # partial sums hold, Euler-Poincare fails
@example(b=[[0, 0]] * 3, c=[[0, 0]] * 3, b_rows=2, c_rows=2, as_numpy=True)  # zero rows
@example(b=[[]] * 3, c=[[]] * 3, b_rows=0, c_rows=0, as_numpy=False)  # no rows at all
def test_morse_inequality_check_matches_literal_at_every_column(b, c, b_rows, c_rows, as_numpy):
    # columns of unequal width, read as zero past their end, as are rows one side lacks
    width = max(len(b), len(c))
    b, c = (b + [[]] * width)[:width], (c + [[]] * width)[:width]
    got = morse_inequality_check(as_rows(b, b_rows, as_numpy), as_rows(c, c_rows, as_numpy), width)
    want = [literal_morse_inequalities(bi[:b_rows], ci[:c_rows]) for bi, ci in zip(b, c)]
    assert all(type(row) is bytes and len(row) == width for row in got)
    assert list(zip(*got)) == want


def test_betti_formulas_read_b4():
    sieve = FactorSieve(15015)
    tables = pi_k_tables(sieve, 15015, 5)
    # 15015 = 3*5*7*11*13 is the first odd number with five prime factors
    assert int(tables[(5, True)][15015]) - int(tables[(5, True)][7507]) == 1
    b = [1 + int(tables[(1, False)][15015] - tables[(1, False)][7507])]
    b += [int(tables[(k + 1, True)][15015] - tables[(k + 1, True)][7507]) for k in (1, 2, 3)]
    assert betti_formulas([15015], tables, [[x] for x in b + [1]]) == [b"\1"] * 5
    assert betti_formulas([15015], tables, [[x] for x in b + [0]]) == [b"\1"] * 4 + [b"\0"]
    assert betti_formulas([15015], tables, [[x] for x in b]) == [b"\1"] * 4


def literal_betti_formulas(n, b, count):
    """(H1, holding below n = 4; H3 at k = 1, 2, ...) at n as stated, count(k, x, odd) counting pi_k(x)."""
    b = list(b) + [0] * (4 - len(b))
    h1 = n < 4 or b[0] == 1 + count(1, n, False) - count(1, n // 2, False)
    return (h1, *(b[k] == count(k + 1, n, True) - count(k + 1, n // 2, True) for k in range(1, len(b))))


@settings(max_examples=100, deadline=None)
@given(
    ns=st.lists(st.integers(0, 400), max_size=8),
    offsets=st.lists(st.lists(st.integers(-1, 1), min_size=8, max_size=8), max_size=6),
    as_numpy=st.booleans(),
)
@example(ns=[2, 3, 4, 30, 105, 400], offsets=[[0] * 8] * 4, as_numpy=True)  # H1 and H3 hold
@example(ns=[3, 4, 210], offsets=[], as_numpy=False)  # no rows: b reads zero
def test_betti_formulas_match_pi_k_counted_literally(sieve, ns, offsets, as_numpy):
    # b_k(n) is the formula's value plus an offset, so a zero offset makes it hold
    count = cache(lambda k, x, odd: pi_k(k, x, odd, sieve))
    tables = pi_k_tables(sieve, 400, 4)

    def formula(k, n):  # the value H1 (k = 0) or H3 gives b_k(n)
        if k == 0:
            return 1 + count(1, n, False) - count(1, n // 2, False)
        return count(k + 1, n, True) - count(k + 1, n // 2, True)

    b = [[formula(k, n) + offsets[k][i] for i, n in enumerate(ns)] for k in range(len(offsets))]
    rows = [np.array(row, dtype=np.int64) for row in b] if as_numpy else b
    want = [literal_betti_formulas(n, [row[i] for row in b], count) for i, n in enumerate(ns)]
    got = betti_formulas(ns, tables, rows)
    assert len(got) == max(len(b), 4) and all(type(row) is bytes and len(row) == len(ns) for row in got)
    assert list(zip(*got)) == want


@pytest.mark.parametrize("evaluator", ["betti_formulas", "morse_inequality_check"])
def test_a_failing_column_costs_an_evaluator_no_more_than_a_passing_one(evaluator):
    # on a divisor graph H1 and H3 fail at almost every n: rows that fail everywhere must peak
    # no higher than rows of the same width that pass everywhere
    top = 100_000
    ns = range(top + 1)
    ones, zeros = b"\1" * (top + 1), bytes(top + 1)
    if evaluator == "betti_formulas":
        tables = pi_k_tables(FactorSieve(top), top, 4)
        passing = [[1 + tables[(1, False)][n] - tables[(1, False)][n // 2] for n in ns]]
        passing += [[tables[(k + 1, True)][n] - tables[(k + 1, True)][n // 2] for n in ns] for k in (1, 2, 3)]
        run = partial(betti_formulas, ns, tables)
        # each b_k one off its formula: H1 holds below n = 4 all the same, H3 nowhere
        want = [ones] * 4, [b"\1" * 4 + bytes(top - 3)] + [zeros] * 3
    else:
        passing = [[n % 5 for n in ns], [n % 3 for n in ns], [n % 2 for n in ns]]
        run = partial(morse_inequality_check, c=passing, width=top + 1)
        # b = c: every inequality tight; b_k = c_k + 1: b_0 > c_0 and r_0 = -1
        want = [ones] * 2, [zeros] * 2
    failing = [[x + 1 for x in row] for row in passing]
    peaks, verdicts = [], []
    for b in (passing, failing):
        tracemalloc.start()
        try:
            verdicts.append(run(b))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
    assert tuple(verdicts) == want


def test_check_formulas_reads_every_dimension(sieve):
    F = Filtration(GraphKind.prime(30), sieve)
    top = np.zeros(31, dtype=np.int64)
    top[20:] = 1  # no odd number up to 30 has five prime factors
    tampered = Filtration(F.kind, sieve)
    tampered.betti = [*F.betti, np.zeros(31, dtype=np.int64), top]
    ok, message = check_formulas(SimpleNamespace(n_max=30), tampered)
    assert not ok and message == "H3(k=4) fails first at n=20"
    ok, _ = check_formulas(SimpleNamespace(n_max=30), F)
    assert ok


def test_check_hopf_names_a_wrong_index_before_a_wrong_sum(sieve):
    def hopf(index_from, sum_from):  # Prime(30) with the index and sum rows failing from these n on
        tampered = Filtration(GraphKind.prime(30), sieve)
        tampered.poincare_hopf = [b"\1" * n + bytes(31 - n) for n in (index_from, sum_from)]
        return check_hopf(SimpleNamespace(n_max=30), tampered)

    assert hopf(31, 31) == (True, "indices sum to chi and equal -mu up to n=30")
    assert hopf(20, 12) == (False, "first counterexample n=12 (sum != chi)")
    assert hopf(12, 12) == hopf(12, 31) == (False, "first counterexample n=12 (index != -mu)")
    assert Filtration(GraphKind.prime(30), sieve).poincare_hopf == [b"\1" * 31] * 2


def test_barycentric_morse_complex_examples():
    M = barycentric_morse_complex(complete_graph(2))
    assert M.counts == (2, 1)
    assert morse_betti(M) == (1, 0)
    assert morse_betti(barycentric_morse_complex(cycle_graph(5))) == (1, 1)
    assert morse_betti(barycentric_morse_complex(complete_graph(3))) == (1, 0, 0)


def test_morse_betti_octahedron(small_corpus):
    assert morse_betti(barycentric_morse_complex(small_corpus["octahedron"])) == (1, 0, 1)
    for k in (2, 4, 5):
        b = morse_betti(barycentric_morse_complex(complete_graph(k)))
        assert b[0] == 1 and not any(b[1:])


def test_morse_betti_matches_refinement(sieve):
    G = build_graph(GraphKind.prime(30), sieve)
    got = morse_betti(barycentric_morse_complex(G))
    want = betti_numbers(whitney_complex(barycentric_refinement(G))).b
    length = max(len(got), len(want))
    assert list(got) + [0] * (length - len(got)) == list(want) + [0] * (length - len(want))


def test_morse_derivative_entries(small_corpus):
    M = barycentric_morse_complex(small_corpus["K3"])
    # index-1 cells are edges; the column of vertex (1,) hits edges (1,2) and (1,3)
    col = M.derivatives[0][0]
    rows = {M.cells[1][r]: v for r, v in col.items()}
    assert rows == {(1, 2): -1, (1, 3): -1}


def test_chi_timeline(sieve):
    G = build_graph(GraphKind.prime(120), sieve)
    chi = chi_timeline(G, 120)
    for n in (2, 10, 30, 105, 120):
        K = whitney_complex(induced_subgraph(G, [v for v in G.labels if v <= n]))
        assert chi[n] == euler_characteristic(K)


def test_betti_timeline_matches_from_scratch(sieve):
    G = build_graph(GraphKind.prime(120), sieve)
    tl = betti_timeline(G, 120)
    for n in range(2, 121):
        K = whitney_complex(induced_subgraph(G, [v for v in G.labels if v <= n]))
        bv = betti_numbers(K)
        for k, row in enumerate(tl):
            assert row[n] == bv[k], (n, k)


def reduce_without_clearing(simplices, top, reduce):
    """b[k, n] by reducing every column, all dimensions mixed in entry order (top vertex, then dimension)."""
    order = sorted((s for dim in simplices for s in dim), key=lambda s: (s[-1], len(s)))
    position = {s: j for j, s in enumerate(order)}
    delta = np.zeros((len(simplices), top + 1), dtype=np.int64)
    pivots = {}
    for s in order:
        dim = len(s) - 1
        col = {position[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))} if dim else {}
        if reduce(col, pivots) is None:
            delta[dim, s[-1]] += 1
        else:
            delta[dim - 1, s[-1]] -= 1
    return np.cumsum(delta, axis=1)


@pytest.mark.parametrize("kind, n", [("prime", 2310), ("integer", 520), ("divisor", 2310)])
def test_clearing_leaves_the_betti_timeline_unchanged(sieve, kind, n):
    simplices = cliques(build_graph(GraphKind(kind, n), sieve))
    for reduce in (lambda col, pivots: reduce_gf(col, pivots, 2), reduce_exact):
        reduced = []
        got = _betti_timeline(_simplicial(simplices), n, lambda col, pivots: reduced.append(col) or reduce(col, pivots))
        assert np.array_equal(got, reduce_without_clearing(simplices, n, reduce))
        # each of the rank(boundary) nonzero columns clears the column of its pivot row
        total = sum(map(len, simplices))
        assert len(reduced) == total - (total - sum(row[n] for row in got)) // 2


@settings(max_examples=25, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(["prime", "divisor"]), st.integers(2, 400)),
        st.tuples(st.just("integer"), st.integers(2, 300)),
    )
)
def test_prime_complex_has_the_betti_timeline_of_the_subdivision(sieve, case):
    kind, n = case
    G = build_graph(GraphKind(kind, n), sieve)
    F = Filtration(GraphKind(kind, n), sieve)
    delta = F._delta
    assert sorted(x for dim in delta[0] for x in dim) == [x for x in G.labels if sieve.is_squarefree(x)]
    got = rows(_betti_timeline(delta, n, reduce_exact))
    want = rows(_betti_timeline(_simplicial(cliques(G)), n, reduce_exact))
    # the integer graph has chains such as 2 | 4 | 8, longer than any face of Delta(n)
    assert len(got) <= len(want)
    assert got + [[0] * (n + 1)] * (len(want) - len(got)) == want
    if kind == "integer":
        # the theorem the witness rests on there: no non-squarefree arrival is critical
        events = F.events
        assert all(ev.kind == "homotopy" for ev in events if not sieve.is_squarefree(ev.n))


@pytest.mark.parametrize("kind, n, squarefree", [("prime", 2310, 1404), ("integer", 520, 318)])
def test_exact_witness_reduces_one_column_per_squarefree_label(sieve, monkeypatch, kind, n, squarefree):
    import primetop.cohomology as cohomology

    calls = []
    oracle = cohomology.reduce_exact
    monkeypatch.setattr(cohomology, "reduce_exact", lambda col, pivots: calls.append(len(col)) or oracle(col, pivots))
    G = build_graph(GraphKind(kind, n), sieve)
    assert sum(map(sieve.is_squarefree, G.labels)) == squarefree
    betti = Filtration(GraphKind(kind, n), sieve).betti
    # the subdivisions have 11,830 (prime) and 15,850 (integer) simplices
    assert 0 < len(calls) <= squarefree
    assert rows(betti) == rows(betti_timeline(G, n))


@pytest.mark.parametrize("kind, n, squarefree", [("prime", 2310, 1404), ("integer", 520, 318)])
def test_betti_reduces_no_simplex_of_the_subdivision(sieve, monkeypatch, kind, n, squarefree):
    import primetop.cohomology as cohomology

    calls = []
    oracle = cohomology.reduce_gf
    monkeypatch.setattr(cohomology, "reduce_gf", lambda col, pivots, p: calls.append(col) or oracle(col, pivots, p))
    G = build_graph(GraphKind(kind, n), sieve)
    betti = Filtration(GraphKind(kind, n), sieve).betti
    # the GF(p) pass reduces Delta(n), not the 11,830 (prime) or 15,850 (integer) simplices
    assert 0 < len(calls) <= squarefree
    assert rows(betti) == rows(betti_timeline(G, n))


def assert_betti_matches_the_subdivision(kind, sieve):
    F = Filtration(kind, sieve)
    assert rows(F.betti) == rows(betti_timeline(build_graph(kind, sieve), kind.param))
    # the critical cells of Bjorner's matching are Delta(n)'s Betti numbers, and Delta(n) has no more dimensions
    assert rows(F.matching) == rows(F.betti[: len(F.matching)])
    assert not any(any(F.betti[k]) for k in range(len(F.matching), len(F.betti)))


@settings(max_examples=15, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("prime"), st.integers(2, 2000)),
        st.tuples(st.just("integer"), st.integers(2, 600)),
    )
)
@example(case=("prime", 2000))
@example(case=("integer", 600))
def test_betti_matches_the_subdivision_at_every_n(sieve, case):
    assert_betti_matches_the_subdivision(GraphKind(*case), sieve)


# 2 and 7 have no label, 4 and 9 one; 9, 45, 105 and 1155 are odd, so q is 3
@pytest.mark.parametrize("m", [2, 4, 6, 7, 9, 30, 45, 105, 210, 1155, 2310])
def test_betti_matches_the_subdivision_on_divisor_graphs(sieve, m):
    assert_betti_matches_the_subdivision(GraphKind.divisor(m), sieve)


def _tampered_delta(monkeypatch, faces_of):
    import primetop.morse as morse

    oracle = morse._prime_complex

    def tampered(*args):
        cells, key, faces = oracle(*args)
        return cells, key, lambda x: faces_of(x, faces(x))

    monkeypatch.setattr(morse, "_prime_complex", tampered)


def _flip(cell, face):
    return lambda x, faces: [(y, -s if (x, y) == (cell, face) else s) for y, s in faces]


@pytest.mark.parametrize(
    "cell, face, message",
    [
        # a flipped edge reroutes the path from 5 through 10 to the vertex 2 with the wrong sign
        (10, 2, r"first at n=15: cell 15 is critical with Morse boundary \{2: -2\}$"),
        (15, 5, r"first at n=15: cell 15 is critical with Morse boundary \{2: -2\}$"),
        (105, 35, r"first at n=105: cell 105 has a boundary whose boundary is not zero$"),
    ],
    ids=["edge-10", "edge-15", "triangle-105"],
)
def test_matching_rejects_a_flipped_face_sign(sieve, monkeypatch, cell, face, message):
    _tampered_delta(monkeypatch, _flip(cell, face))
    with pytest.raises(RankDiscrepancyError, match=message):
        Filtration(GraphKind.prime(300), sieve).betti


@pytest.mark.parametrize(
    "partner, message",
    [
        # x paired with qx while qx > n
        (lambda x, q, n, is_cell: q * x if x % q and is_cell(q * x) else None,
         r"first at n=3: cell 3 is matched with 6, not a coface in Delta\(3\)$"),
        # a cell divisible by q matched up: pairing by 3 in place of q = 2 matches 2 with 6
        (lambda x, q, n, is_cell: _bjorner_partner(x, 3, n, is_cell),
         r"first at n=6: cell 2 is matched up with 6, but 2 divides it$"),
        # 6, matched down with 3 at n = 6, matched up again with 30
        (lambda x, q, n, is_cell: 30 if (x, n) == (6, 30) else _bjorner_partner(x, q, n, is_cell),
         r"first at n=30: cell 30 is matched with each of \[15, 6\]$"),
    ],
    ids=["past-n", "q-divides", "twice"],
)
def test_matching_rejects_a_wrong_pairing(sieve, monkeypatch, partner, message):
    import primetop.morse as morse

    monkeypatch.setattr(morse, "_bjorner_partner", partner)
    with pytest.raises(RankDiscrepancyError, match=message):
        Filtration(GraphKind.prime(300), sieve).betti


def test_integer_betti_checks_its_deformations(sieve, monkeypatch):
    # Delta(n) gives the Betti numbers of Integer(n) only if every non-squarefree x is a deformation
    import primetop.morse as morse

    oracle = morse._classify

    def four_critical(sphere, x, sieve):
        event = oracle(sphere, x, sieve)
        return event.replace(kind="critical") if x == 4 else event

    monkeypatch.setattr(morse, "_classify", four_critical)
    with pytest.raises(RankDiscrepancyError, match=r"first at n=4: 4 is not squarefree but critical$"):
        Filtration(GraphKind.integer(60), sieve).betti


def test_betti_delta_at_checkpoints(sieve):
    b1 = Filtration(GraphKind.prime(30), sieve).betti[1]
    assert not any(b1[:15]) and b1[15] == 1  # the first loop appears at 15
    assert b1[30] - b1[29] == -1  # and one dies at 30


def test_sphere_birth_death_rule(sieve):
    # b2 jumps exactly at odd 3-fold products and drops exactly at their doubles
    n_max = 2310
    G = build_graph(GraphKind.prime(n_max), sieve)
    tl = betti_timeline(G, n_max)
    for n in range(3, n_max + 1):
        delta = int(tl[2][n] - tl[2][n - 1])
        exponents = [e for _, e in sieve.factorization(n)]
        if exponents == [1, 1, 1] and n % 2 == 1:
            assert delta == 1, n
        elif exponents == [1, 1, 1, 1] and n % 2 == 0:
            assert delta == -1, n
        else:
            assert delta == 0, n


def assert_filtration_matches_oracles(kind, sieve, field_prime=2_147_483_647):
    G, F = build_graph(kind, sieve), Filtration(kind, sieve, field_prime)
    top = kind.param
    assert np.array_equal(F.chi, chi_timeline(G, top))
    want = betti_timeline(G, top, field_prime)
    assert len(F.betti) == len(want)
    for k, row in enumerate(want):
        assert np.array_equal(F.betti[k], row), k
    events = [classify_vertex(G, x, sieve=sieve) for x in G.labels]
    assert F.events == events
    for n in range(top + 1):
        assert column(F.critical, n) == critical_counts(events, n), n


@pytest.mark.parametrize("kind, n", [("prime", 300), ("integer", 200)])
def test_filtration_fields_match_oracles(sieve, kind, n):
    assert_filtration_matches_oracles(GraphKind(kind, n), sieve)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["prime", "integer"]),
    n=st.integers(2, 250),
    field_prime=st.sampled_from([3, 7, 2_147_483_647]),
)
def test_filtration_fields_match_oracles_any_n(sieve, kind, n, field_prime):
    assert_filtration_matches_oracles(GraphKind(kind, n), sieve, field_prime)


@pytest.mark.parametrize("kind, n", [("prime", 300), ("integer", 200), ("divisor", 210), ("divisor", 7)])
def test_timelines_hold_python_ints(sieve, kind, n):
    # each row is an array('q'), read as Python ints; a value past 64 bits raises OverflowError, it does not wrap
    G = build_graph(GraphKind(kind, n), sieve)
    F = Filtration(GraphKind(kind, n), sieve)
    rows = [*F.f, F.chi, *F.betti, *F.critical, chi_timeline(G, n), *betti_timeline(G, n)]
    for row in rows:
        assert len(row) == n + 1 and all(type(v) is int for v in row)


def test_filtration_is_lazy_and_computes_once(sieve, monkeypatch):
    import primetop.morse as morse

    calls = {"cliques": 0, "classify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # no field of a prime graph's filtration enumerates its simplices
    monkeypatch.setattr(morse, "cliques", counting("cliques", morse.cliques))
    monkeypatch.setattr(morse, "_classify", counting("classify", morse._classify))
    F = Filtration(GraphKind.prime(60), sieve)
    assert calls == {"cliques": 0, "classify": 0}
    # f and chi count the chains per exponent signature, and betti reduces Delta(n)
    assert F.chi is F.chi and F.betti is F.betti
    assert calls == {"cliques": 0, "classify": 0}
    assert column(F.critical, 60) == [17, 17, 2]  # pi(60), squarefree pairs and triples
    assert F.events is F.events
    # one classification per exponent signature: primes, pairs and triples
    assert calls == {"cliques": 0, "classify": 3}


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400))
@example(kind="prime", n=400)
@example(kind="integer", n=400)
@example(kind="divisor", n=210)
def test_counted_f_equals_the_enumerated_chains(sieve, kind, n):
    import primetop.morse as morse

    G = build_graph(GraphKind(kind, n), sieve)
    want = _f_vector(cliques(G), n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morse, "cliques", lambda G: pytest.fail("counted f enumerated the chains"))
        assert rows(Filtration(GraphKind(kind, n), sieve).f) == rows(want)


def oracle_events(G, sieve):
    return [classify_vertex(G, x, sieve=sieve) for x in G.labels]


@pytest.mark.parametrize("kind, n", [("integer", 520), ("prime", 2310)])
def test_events_run_no_betti_screen(sieve, kind, n, monkeypatch):
    # every stable sphere here is a sphere or collapses to a point
    import primetop.topology as topology

    screens = []
    oracle = topology._betti_gf_of_subset
    monkeypatch.setattr(topology, "_betti_gf_of_subset", lambda amb, sub: screens.append(sub) or oracle(amb, sub))
    F = Filtration(GraphKind(kind, n), sieve)
    assert len(F.events) == len(F.labels)
    assert screens == []


def sorted_exponents(x, sieve):
    return tuple(sorted((e for _, e in sieve.factorization(x)), reverse=True))


@pytest.mark.parametrize("kind, n, signatures", [("prime", 2310, 5), ("integer", 520, 31), ("divisor", 2310, 4)])
def test_events_classify_once_per_signature(sieve, kind, n, signatures):
    G = build_graph(GraphKind(kind, n), sieve)
    F = Filtration(GraphKind(kind, n), sieve)
    assert F.events == oracle_events(G, sieve)
    assert len(F.representatives) == signatures
    first = {}
    for x in G.labels:
        first.setdefault(sorted_exponents(x, sieve), x)
    assert {key: rep.n for key, rep in F.representatives.items()} == first


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400))
def test_events_match_oracle_any_n(sieve, kind, n):
    G = build_graph(GraphKind(kind, n), sieve)
    F = Filtration(GraphKind(kind, n), sieve)
    assert F.events == oracle_events(G, sieve)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400))
@example(kind="prime", n=2310)
@example(kind="integer", n=520)
@example(kind="divisor", n=2310)
def test_stable_spheres_relabel_onto_their_signatures_first(sieve, kind, n):
    # the theorem events rest on: the exponent-vector map from x to the first label r
    # with x's sorted exponents carries the stable sphere of x onto that of r
    G = build_graph(GraphKind(kind, n), sieve)
    first = {}
    for x in G.labels:
        r = first.setdefault(sorted_exponents(x, sieve), x)
        # the primes of x and of r, paired in the order (exponent descending, prime ascending)
        pairs = zip(*(sorted(sieve.factorization(z), key=lambda pe: -pe[1]) for z in (x, r)))
        to_r = {p: q for (p, _), (q, _) in pairs}

        def image(y):
            return math.prod(to_r[p] ** e for p, e in sieve.factorization(y))

        S = stable_sphere(G, x)
        assert Graph(map(image, S.labels), [(image(a), image(b)) for a, b in S.edges()]) == stable_sphere(G, r), x


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 600))
@example(kind="prime", n=2310)
@example(kind="integer", n=520)
@example(kind="divisor", n=2310)
def test_divisor_spheres_are_the_stable_spheres(sieve, kind, n):
    G = build_graph(GraphKind(kind, n), sieve)
    for x in G.labels:
        assert divisor_sphere(x, sieve) == stable_sphere(G, x), x


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["prime", "integer", "divisor"]), n=st.integers(2, 400))
@example(kind="prime", n=400)
@example(kind="integer", n=300)
@example(kind="divisor", n=210)
@example(kind="divisor", n=7)
def test_array_timelines_equal_their_list_oracles(sieve, kind, n):
    G = build_graph(GraphKind(kind, n), sieve)
    F = Filtration(GraphKind(kind, n), sieve)
    assert tuple(F.labels) == G.labels
    timelines = [*F.f, F.chi, *F.betti, *F.matching, *F.critical, F.mertens, *F.pi.values()]
    assert {(row.typecode, len(row)) for row in timelines} <= {("q", n + 1)}
    assert rows(F.f) == rows(_f_vector(cliques(G), n))
    assert list(F.chi) == [sum((-1) ** k * row[m] for k, row in enumerate(rows(F.f))) for m in range(n + 1)]
    assert rows(F.betti) == rows(betti_timeline(G, n))
    assert rows(F.matching) == rows(F.betti[: len(F.matching)])
    for m in range(n + 1):
        assert column(F.critical, m) == critical_counts(F.events, m), m
    assert list(F.mertens) == [0] + [mertens(m, sieve) for m in range(1, n + 1)]
    for (k, odd), row in F.pi.items():
        assert list(row) == [pi_k(k, x, odd, sieve) for x in range(n + 1)], (k, odd)


def test_filtration_reads_only_graphs_with_a_kind(sieve):
    # it takes the kind itself, and builds the graph only when F.G is read
    G = build_graph(GraphKind.prime(30), sieve)
    assert Filtration(GraphKind.prime(30), sieve).G == G
    for H in (G, barycentric_refinement(cycle_graph(5))):
        with pytest.raises(InvalidArgumentError, match="use chi_timeline and betti_timeline"):
            Filtration(H, sieve)


def test_representative_raises_where_the_oracle_does(sieve, monkeypatch):
    # three incomparable divisors below 30: its stable sphere is neither
    G = Graph([2, 3, 5, 30], [(2, 30), (3, 30), (5, 30)])
    with pytest.raises(ClassificationError, match="stable sphere of 30 "):
        classify_vertex(G, 30, sieve=sieve)
    # the same verdict on the hexagon of Prime(30) stops the events at its representative
    import primetop.morse as morse

    oracle = morse.sphere_dimension_within
    neither = SimpleNamespace(is_sphere=False, status="neither")
    monkeypatch.setattr(morse, "sphere_dimension_within", lambda S, W: neither if len(W) == 6 else oracle(S, W))
    G = build_graph(GraphKind.prime(30), sieve)
    for classify in (lambda: classify_vertex(G, 30, sieve=sieve), lambda: Filtration(GraphKind.prime(30), sieve).events):
        with pytest.raises(ClassificationError, match="stable sphere of 30 is neither"):
            classify()


def test_filtration_witness_names_first_torsion_step():
    G = projective_plane_subdivision()
    assert G.n_vertices == 31
    # GF(2) sees the 2-torsion that closes up at the last triangle; Q does not
    with pytest.raises(RankDiscrepancyError, match=r"first at n=31$") as exc:
        betti_timeline(G, 31, 2)
    assert exc.value.field_prime == 2
    betti = betti_timeline(G, 31, 3)
    assert tuple(int(row[31]) for row in betti) == (1, 0, 0)
    assert [int(betti[1][n]) for n in (30, 31)] == [1, 0]  # Moebius band, then the closed surface


def test_filtration_witness_beyond_2000_simplices():
    # a star on labels 1..2002 (4003 simplices) enters before the projective plane
    G = projective_plane_behind_star()
    with pytest.raises(RankDiscrepancyError, match=r"first at n=2033$"):
        betti_timeline(G, 2033, 2)
    betti = betti_timeline(G, 2033, 3)
    assert tuple(int(row[2033]) for row in betti) == (2, 0, 0)


def test_run_filtration_reads_the_filtration(sieve):
    G = build_graph(GraphKind.prime(120), sieve)
    F = Filtration(GraphKind.prime(120), sieve)

    def complex_below(n):
        return whitney_complex(induced_subgraph(G, [v for v in G.labels if v < n]))

    for n in (2, 15, 30, 100, 105, 120):  # 100 and 120 are not vertices
        K = complex_below(n + 1)
        now, prev = betti_rank_oracle(K), betti_rank_oracle(complex_below(n))
        betti = [row[n] for row in F.betti][: len(column(F.f, n))]  # one entry per dimension of G(n)
        assert tuple(betti) == now and F.chi[n] == euler_characteristic(K), n
        assert column(F.critical, n) == critical_counts(F.events, n), n
        prev += (0,) * (len(now) - len(prev))
        assert [F.betti[k][n] - F.betti[k][n - 1] for k in range(len(now))] == [a - b for a, b in zip(now, prev)], n


def literal_morse_inequalities(b, c):
    """(weak, strong) as stated: b_k <= c_k; every sum_{j<=k} (-1)^(k-j) (c_j - b_j) >= 0, the full one 0."""
    width = max(len(b), len(c))
    b, c = list(b) + [0] * (width - len(b)), list(c) + [0] * (width - len(c))
    partial = [sum((-1) ** (k - j) * (c[j] - b[j]) for j in range(k + 1)) for k in range(width)]
    euler = sum((-1) ** k * (c[k] - b[k]) for k in range(width)) == 0
    return all(bk <= ck for bk, ck in zip(b, c)), all(r >= 0 for r in partial) and euler


@pytest.mark.parametrize("kind, n_max", [("prime", 300), ("integer", 300), ("divisor", 210)])
def test_identity_verdicts_match_literal_definitions(sieve, kind, n_max):
    # every verdict against the identity as stated: M(n) summed from mu, pi_k counted
    # for each x, critical counts and index sums read from the events
    F = Filtration(GraphKind(kind, n_max), sieve)
    count = cache(lambda k, x, odd: pi_k(k, x, odd, sieve))
    seen = set()
    for n in range(2, n_max + 1):
        m = mertens(n, sieve)
        assert F.mertens[n] == m and F.mertens_euler[n] == (F.chi[n] == 1 - m), n
        below = [ev for ev in F.events if ev.n <= n]
        index_ok = all(ev.ph_index == -ev.mu for ev in below if ev.kind == "critical")
        sum_ok = sum(ev.ph_index for ev in below) == F.chi[n]
        assert tuple(row[n] for row in F.poincare_hopf) == (index_ok, sum_ok), n
        b = [row[n] for row in F.betti]
        assert tuple(row[n] for row in F.morse_inequalities) == literal_morse_inequalities(b, critical_counts(F.events, n)), n
        assert tuple(row[n] for row in F.formulas) == literal_betti_formulas(n, b, count), n
        if kind != "divisor":  # H2, c_m(n) = pi_{m+1}(n), fails at most n of a divisor graph
            c = column(F.critical, n)
            assert c + [0] == [count(m + 1, n, False) for m in range(len(c) + 1)], n
        seen.add((F.mertens_euler[n], F.formulas[0][n]))
    # the divisor graph breaks Mertens-Euler and H1 at many n, so both verdicts occur
    assert seen >= ({(1, 1)} if kind != "divisor" else {(1, 1), (0, 0)})


@pytest.mark.parametrize("kind, n", [("prime", 2310), ("integer", 600), ("divisor", 30030)])
def test_poset_dimension_equals_the_clique_pass(kind, n):
    # F.dimension reads the divisor poset, the oracle one pass over the simplices of G
    sieve = FactorSieve(n)
    got = Filtration(GraphKind(kind, n), sieve).dimension
    assert len(got) == n + 1 and all(type(d) is Fraction for d in got)
    assert got == dimension_timeline(cliques(build_graph(GraphKind(kind, n), sieve)), n)
