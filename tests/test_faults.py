"""Planted faults: each fast path that stands in for a slower definition must be caught when it is wrong.

Every case monkeypatches one fault into a fast path and asserts that a check
sharing no code with that path rejects it: a guard raising with the expected
first n, or an oracle comparison coming out unequal.  A fault no guard catches
is a finding, not a case to drop.
"""

from array import array
from functools import cache
from types import SimpleNamespace

import pytest

import primetop.cli as cli
import primetop.graphs as graphs
import primetop.morse as morse
import primetop.topology as topology
from primetop import Filtration, GraphKind, RankDiscrepancyError, build_graph, classify_vertex, pi_k
from primetop.graphs import cliques
from primetop.cli import check_mertens
from primetop.errors import InternalConsistencyError

from conftest import diameter_bound_oracle, dimension_timeline
from test_morse import literal_betti_formulas, literal_morse_inequalities


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except InternalConsistencyError as exc:
        return str(exc)


def _sweep_and_oracle(sieve, kind, n, bound):
    """The diameter sweep on the kind, and the literal sweep on its graph: trial division and a BFS at every join."""
    K = GraphKind(kind, n)
    sweep = _outcome(graphs.verify_component_diameter_bound, K, sieve, n, bound)
    return sweep, _outcome(diameter_bound_oracle, build_graph(K, sieve), n, bound)


@pytest.mark.parametrize(
    "kind, n, bound, faulted, oracle",
    [
        ("prime", 400, 2, "anchor component disconnected at n=6", 10),
        ("integer", 200, 4, "anchor component disconnected at n=9", 10),
    ],
)
def test_a_neighbour_source_dropping_a_multiple_is_caught_by_the_literal_sweep(
    sieve, monkeypatch, kind, n, bound, faulted, oracle
):
    # the sieve's neighbours of 3 lose its multiple 6; the literal sweep reads the built graph's edges
    source = graphs._neighbour_source

    def dropping(kind, sieve):
        neighbours = source(kind, sieve)
        return lambda v, m: [w for w in neighbours(v, m) if (v, w) != (3, 6)]

    assert _sweep_and_oracle(sieve, kind, n, bound) == (oracle, oracle)
    monkeypatch.setattr(graphs, "_neighbour_source", dropping)
    assert _sweep_and_oracle(sieve, kind, n, bound) == (faulted, oracle)


@pytest.mark.parametrize(
    "kind, n, bound, faulted, oracle",
    [("prime", 400, 3, 15, 10), ("prime", 400, 4, None, 15), ("integer", 200, 4, None, 10)],
)
def test_a_diameter_certificate_one_too_small_is_caught_by_the_literal_sweep(
    sieve, monkeypatch, kind, n, bound, faulted, oracle
):
    # every eccentricity certificate claims one less than it proves, so joins that need a BFS skip it
    joins = graphs._certified_joins

    def lowered(*args):
        for m, x, certified, far in joins(*args):
            yield m, x, certified - 1, far

    assert _sweep_and_oracle(sieve, kind, n, bound) == (oracle, oracle)
    monkeypatch.setattr(graphs, "_certified_joins", lowered)
    assert _sweep_and_oracle(sieve, kind, n, bound) == (faulted, oracle)


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


def test_a_filtration_event_equal_whatever_its_method_is_caught_by_the_dataclass_mirror(monkeypatch):
    # events whose spheres were recognized by the exact recursion and by the screened path compare equal
    from test_records import test_records_match_their_dataclass_mirrors

    def ignoring_method(a, b):
        if b.__class__ is not a.__class__:
            return NotImplemented
        return a._values()[:-1] == b._values()[:-1]

    monkeypatch.setattr(morse.FiltrationEvent, "__eq__", ignoring_method)
    exact, fast = (morse.FiltrationEvent(6, 1, 0, 1, -1, "critical", method) for method in ("exact", "fast"))
    assert exact == fast
    with pytest.raises(AssertionError):
        test_records_match_their_dataclass_mirrors()


def _planted(sieve, top, at):
    """The filtration of Prime(top) with b_0 and b_1 ten too large at n = at alone.

    There the weak and strong Morse inequalities fail, H1 too from n = 4 on,
    and H3 at k = 1; everything else holds everywhere.
    """
    F = Filtration(GraphKind.prime(top), sieve)
    F.betti = [array("q", row) for row in F.betti]
    for row in F.betti[:2]:
        row[at] += 10
    return F


def _verdicts_and_literal(F):
    """[(Morse verdicts, formula verdicts)] at n = 2..top from F's rows, and from the literal per-column oracles."""
    count = cache(lambda k, x, odd: pi_k(k, x, odd, F.sieve))
    got, want = [], []
    for n in range(2, F.top + 1):
        b, c = [row[n] for row in F.betti], [row[n] for row in F.critical]
        got.append((tuple(row[n] for row in F.morse_inequalities), tuple(row[n] for row in F.formulas)))
        want.append((literal_morse_inequalities(b, c), literal_betti_formulas(n, b, count)))
    return got, want


def _literal_reports(want):
    """What the morse-weak, morse-strong and formulas checks must print, read from the literal verdicts."""

    def first(j, k):  # the first n at which verdict k of want's j-th tuple fails, or None
        return next((n for n, verdicts in enumerate(want, 2) if not verdicts[j][k]), None)

    reports = [f"first counterexample n={n}" if n else "pass" for n in (first(0, 0), first(0, 1))]
    k, n = next(((k, first(1, k)) for k in range(len(want[0][1])) if first(1, k)), (None, None))
    return reports + ["pass" if k is None else f"H3(k={k}) fails first at n={n}" if k else f"H1 fails first at n={n}"]


def _reports(F):
    config = SimpleNamespace(n_max=F.top)
    checks = (cli._morse_sweep(config, F, 0), cli._morse_sweep(config, F, 1), cli.check_formulas(config, F))
    return ["pass" if ok else detail for ok, detail in checks]


@pytest.mark.parametrize("evaluator", ["morse_inequality_check", "betti_formulas"])
def test_an_evaluator_whose_last_column_reads_1_is_caught_by_the_literal_oracles(sieve, monkeypatch, evaluator):
    # the planted failure is in the last column, n = 30, which the faulted evaluator reports as holding
    got, want = _verdicts_and_literal(_planted(sieve, 30, 30))
    assert got == want and _reports(_planted(sieve, 30, 30)) == _literal_reports(want)
    real = getattr(morse, evaluator)
    monkeypatch.setattr(morse, evaluator, lambda *args: [row[:-1] + b"\1" for row in real(*args)])
    got, want = _verdicts_and_literal(_planted(sieve, 30, 30))
    assert got[:-1] == want[:-1] and got[-1] != want[-1]


def test_a_first_failure_search_from_n_3_is_caught_by_the_literal_oracles(sieve, monkeypatch):
    # every verdict row is right, and fails at n = 2 alone; the faulted search starts past it
    F = _planted(sieve, 30, 2)
    got, want = _verdicts_and_literal(F)
    assert got == want
    reports = _literal_reports(want)
    assert reports == ["first counterexample n=2"] * 2 + ["H3(k=1) fails first at n=2"] and _reports(F) == reports
    monkeypatch.setattr(cli, "_first", lambda row: row.find(0, 3))
    assert _reports(F) != reports


def _first_wrong_dimension(sieve, kind, n):
    """The first n at which Filtration.dimension differs from the clique pass over G's simplices, or None."""
    got = Filtration(GraphKind(kind, n), sieve).dimension
    want = dimension_timeline(cliques(build_graph(GraphKind(kind, n), sieve)), n)
    return next((m for m, (a, b) in enumerate(zip(got, want, strict=True)) if a != b), None)


@pytest.mark.parametrize("kind, signature, first", [("prime", (1, 1), 6), ("integer", (2,), 4), ("divisor", (1, 1), 6)])
def test_a_wrong_interval_dimension_is_caught_by_the_clique_pass(sieve, monkeypatch, kind, signature, first):
    # L of one signature is one too large; every later signature's L is memoised from it, so the memo
    # is emptied before and after
    real = topology._interval_dimension
    assert _first_wrong_dimension(sieve, kind, 210) is None
    real.cache_clear()
    monkeypatch.setattr(topology, "_interval_dimension", lambda key: real(key) + (key == signature))
    try:
        assert _first_wrong_dimension(sieve, kind, 210) == first
    finally:
        real.cache_clear()


@pytest.mark.parametrize("kind, first", [("prime", 30), ("integer", 12), ("divisor", 30)])
def test_a_settle_step_skipping_a_divisor_is_caught_by_the_clique_pass(sieve, monkeypatch, kind, first):
    # each time U(6) is settled its change never reaches the sum of 2; 6 is first settled when a multiple arrives
    real = topology._settle
    assert _first_wrong_dimension(sieve, kind, 210) is None

    def skipping(w, below, *sums):
        real(w, [v for v in below if (w, v) != (6, 2)], *sums)

    monkeypatch.setattr(topology, "_settle", skipping)
    assert _first_wrong_dimension(sieve, kind, 210) == first
