"""Morse filtration of the counting function on divisibility graphs.

Vertices enter in ascending label order; each arrival either attaches a
topological handle (a ball over a stable sphere) or is a homotopy deformation.
This module classifies those events, tallies critical points, and carries the
simplex-level Morse complex whose cohomology matches the simplicial one.  It
checks two identities of the Betti numbers, each with one evaluator that reads
whole timelines, rows [k][i] over the columns i, and returns a verdict per
column: the Morse inequalities against the critical counts
(morse_inequality_check, which needs the classification) and the
counting-function formulas H1/H3 against the pi_k tables (betti_formulas).
On the divisibility graphs the Betti numbers are those of the prime complex
Delta(n), certified without elimination by Bjorner's matching at every n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import accumulate, compress, count, product, repeat
from operator import gt, lt, ne

from .arithmetic import FactorSieve, mertens_table, moebius, pi_k_tables, primorial
from .cohomology import (
    DEFAULT_FIELD_PRIME,
    Column,
    _chi,
    _cumulative,
    _f_vector,
    _faces,
    _simplicial,
    _verified_betti,
    euler_characteristic,
    rank_exact,
    rank_gf,
    whitney_complex,
)
from .errors import (
    ClassificationError,
    InternalConsistencyError,
    InvalidArgumentError,
    RankDiscrepancyError,
)
from .graphs import Graph, cliques, induced_subgraph
from .topology import sphere_dimension_within


@dataclass(frozen=True)
class FiltrationEvent:
    """One record per vertex entering the filtration."""

    n: int
    mu: int
    stable_sphere_dim: int | None
    morse_index: int | None
    ph_index: int
    kind: str  # "critical" | "homotopy"
    method: str = "exact"


@dataclass
class MorseComplex:
    """Critical cells per index plus the intersection-number derivatives.

    cells[m] lists the index-m critical cells (the m-simplices of the source
    graph).  derivatives[m] is the matrix of d: functions on index-m cells to
    functions on index-(m+1) cells, stored column-wise per index-m cell with
    rows indexed by index-(m+1) cells.
    """

    cells: tuple[tuple[tuple[int, ...], ...], ...]
    derivatives: list[list[Column]]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def stable_sphere(G: Graph, x: int) -> Graph:
    """Subgraph of the unit sphere of x on the neighbours below x, the stable sphere under f(x) = x."""
    neighbors = G.neighbors(x)
    return induced_subgraph(G, neighbors[: bisect_left(neighbors, x)])


def classify_vertex(G: Graph, x: int, sieve: FactorSieve) -> FiltrationEvent:
    """Classify the filtration step at x from its stable sphere.

    A sphere verdict makes x critical with morse_index = sphere dim + 1; a
    contractible stable sphere makes the step a homotopy deformation.  Any
    other verdict is a genuine finding and raises ClassificationError.
    """
    sphere = stable_sphere(G, x)
    ph = 1 - euler_characteristic(whitney_complex(sphere))
    verdict = sphere_dimension_within(sphere, sphere.labels)
    mu = moebius(x, sieve)
    if verdict.is_sphere:
        return FiltrationEvent(
            n=x,
            mu=mu,
            stable_sphere_dim=verdict.dim,
            morse_index=verdict.dim + 1,
            ph_index=ph,
            kind="critical",
            method=verdict.method,
        )
    if verdict.status == "contractible":
        return FiltrationEvent(
            n=x, mu=mu, stable_sphere_dim=None, morse_index=None,
            ph_index=ph, kind="homotopy", method=verdict.method,
        )
    raise ClassificationError(
        f"stable sphere of {x} is {verdict.status}; expected sphere or contractible"
    )


def critical_counts(events, n: int) -> list[int]:
    """c_m = number of critical events with label <= n and Morse index m."""
    counts = Counter(ev.morse_index for ev in events if ev.n <= n and ev.kind == "critical")
    return [counts[m] for m in range(max(counts, default=-1) + 1)]


def morse_inequality_check(b, c, width: int) -> list[tuple[bool, bool]]:
    """(weak, strong) of the Morse inequalities in every column i < width of Betti rows b[k][i] and counts c[k][i].

    weak: b_k <= c_k for all k.  strong: every alternating partial sum
    r_k = sum_{j<=k} (-1)^(k-j) (c_j - b_j) is nonnegative and the last is
    zero (Euler-Poincare).  A row k >= len(b) or len(c) reads as zeros.  One k
    is read at a time: the state is one row of r and the failed columns.
    """
    zero = [0] * width
    r, weak_fails, strong_fails = zero, set(), set()
    for k in range(max(len(b), len(c))):
        bk, ck = b[k] if k < len(b) else zero, c[k] if k < len(c) else zero
        r = [y - x - rk for x, y, rk in zip(bk, ck, r)]
        weak_fails.update(compress(count(), map(gt, bk, ck)))
        strong_fails.update(compress(count(), map(lt, r, zero)))
    strong_fails.update(compress(count(), r))
    verdicts = [(True, True)] * width
    for i in weak_fails | strong_fails:
        verdicts[i] = (i not in weak_fails, i not in strong_fails)
    return verdicts


def betti_formulas(ns, tables, b) -> list[tuple[bool | None, tuple[int, ...]]]:
    """(H1, the k where H3 fails) at every n of ns for the Betti rows b[k][i] of ns[i].

    H1: b_0 = 1 + pi(n) - pi(n//2), None below n = 4.  H3: b_k =
    pi_{k+1}(n, odd) - pi_{k+1}(n//2, odd) for k = 1..len(b) - 1, and at
    least for k = 1..3; a row k >= len(b) reads as zeros.  tables is
    pi_k_tables(sieve, N, k_max) for some N >= max(ns).  A k above k_max
    counts zero, which is exact when k_max >= max(len(b), 4) or no
    squarefree number up to N has more than k_max primes.
    """
    ns = list(ns)
    zero = [0] * len(ns)

    def diff(k, odd):
        row = tables.get((k, odd))
        return [row[n] - row[n // 2] for n in ns] if row else zero

    def mismatches(k, want):  # the columns i where b_k differs from want[i]
        return compress(count(), map(ne, b[k] if k < len(b) else zero, want))

    h1_fails = set(mismatches(0, [1 + d for d in diff(1, False)]))
    h3_fails: dict[int, tuple[int, ...]] = {}
    for k in range(1, max(len(b), 4)):
        for i in mismatches(k, diff(k + 1, True)):
            h3_fails[i] = h3_fails.get(i, ()) + (k,)
    verdicts = [(True, ())] * len(ns)
    for i in h1_fails | h3_fails.keys() | set(compress(count(), map(lt, ns, repeat(4)))):
        verdicts[i] = (None if ns[i] < 4 else i not in h1_fails, h3_fails.get(i, ()))
    return verdicts


# --- simplex-level Morse complex (f = dim on the refinement) ----------------


def barycentric_morse_complex(G: Graph) -> MorseComplex:
    """Morse complex of the dimension function on the simplex graph of G.

    Critical cells at index m are the m-simplices of G; the intersection
    number n(x, y) is (-1)^i when y omits the i-th vertex of x and 0 else.
    The composition of consecutive derivatives is verified to vanish.
    """
    cells = tuple(tuple(dim) for dim in cliques(G))
    derivatives: list[list[Column]] = [[{} for _ in dim] for dim in cells[:-1]]
    for m, cols in enumerate(derivatives):
        index = {s: pos for pos, s in enumerate(cells[m])}
        for row, x in enumerate(cells[m + 1]):
            for y, sign in _faces(x):
                cols[index[y]][row] = sign
    _verify_dd_zero(derivatives)
    return MorseComplex(cells=cells, derivatives=derivatives)


def _verify_dd_zero(derivatives) -> None:
    for d, nxt in zip(derivatives, derivatives[1:]):
        for col in d:
            acc = Counter()
            for row, v in col.items():
                for row2, w in nxt[row].items():
                    acc[row2] += v * w
            if any(acc.values()):
                raise InternalConsistencyError("Morse derivative does not square to zero")


def morse_betti(M: MorseComplex, field_prime: int = DEFAULT_FIELD_PRIME) -> tuple[int, ...]:
    """Betti vector of the Morse complex from the ranks of its derivatives, over GF(field_prime) and exactly."""
    counts = M.counts
    ranks = [rank_gf(cols, field_prime) for cols in M.derivatives]
    if [rank_exact(cols) for cols in M.derivatives] != ranks:
        raise RankDiscrepancyError("Morse complex rank mismatch", field_prime)
    ranks = [0] + ranks + [0]
    return tuple(counts[m] - ranks[m] - ranks[m + 1] for m in range(len(counts)))


# --- filtration-wide invariants ---------------------------------------------


def _timeline_top(G: Graph) -> int:
    return G.param if G.kind else max(G.labels, default=0)


def chi_timeline(G: Graph) -> list[int]:
    """chi(G(n)) for every n, from cumulative per-top-vertex simplex counts."""
    top = _timeline_top(G)
    return _chi(_f_vector(cliques(G), top), top)


def betti_timeline(G: Graph, field_prime: int = DEFAULT_FIELD_PRIME) -> list[list[int]]:
    """b_k(G(n)) for every n at once, rows [k][n], by one filtration-ordered reduction.

    The columns of each dimension enter in the order of their top vertex
    label, through _verified_betti, the witness that also gives
    betti_numbers: exact over GF(field_prime), and checked against exact
    rational elimination of the same simplices and Euler-Poincare at every
    n.  It reads the Whitney complex of any graph, and is the oracle of
    Filtration.betti on the divisibility graphs.
    """
    simplices, top = cliques(G), _timeline_top(G)
    return _verified_betti(_simplicial(simplices), _f_vector(simplices, top), top, field_prime)


class Filtration:
    """The filtration of a prime, integer or divisor graph by the counting function, computed lazily and once.

    G is a graph of build_graph, so its labels are closed under division (x
    -> x/p for every prime p of x, x/p = 1 aside); a graph without a kind is
    rejected, and read by the module functions instead.  Each field is
    computed on first use and then kept, so every check that reads the same
    field shares one computation.  Each label is factored once: the f-vector
    and chi count the chains of the divisor poset per exponent signature,
    and the Betti timeline is that of the prime complex Delta(n), reduced
    over GF(field_prime) and over Q and witnessed without elimination by
    Bjorner's matching.  The critical counts and the Poincare-Hopf sums read
    each label's representative, the event of the first vertex of its
    exponent signature, and build no per-vertex event.  Each of the paper's
    identities is evaluated here by one call over every n, in a field that
    reads only that identity's inputs.  A timeline is a list of Python ints
    over n = 0..top, where top is G.param, or a list of such rows [k][n].
    """

    def __init__(self, G: Graph, sieve: FactorSieve, field_prime: int = DEFAULT_FIELD_PRIME):
        if G.kind is None:
            raise InvalidArgumentError("Filtration reads build_graph's graphs; use chi_timeline and betti_timeline")
        self.G = G
        self.sieve = sieve
        self.field_prime = field_prime
        self.top = G.param

    @cached_property
    def _factored(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """{x: _exponent_signature(x, sieve)} for every label x in label order."""
        return {x: _exponent_signature(x, self.sieve) for x in self.G.labels}

    @cached_property
    def f(self) -> list[list[int]]:
        """f[k][n] = number of k-simplices of G(n), for n = 0..top.

        The k-simplices with top vertex x are the k-chains of divisors of x,
        counted once per exponent signature by _chain_counts.
        """
        rows: list[list[int]] = []
        for x, (exponents, _) in self._factored.items():
            counts = _chain_counts(exponents)
            rows += [[0] * (self.top + 1) for _ in range(len(counts) - len(rows))]
            for row, c in zip(rows, counts):
                row[x] = c
        return [list(accumulate(row)) for row in rows]

    @cached_property
    def chi(self) -> list[int]:
        """chi_timeline(G): chi(G(n)) for n = 0..top, the alternating sum of f."""
        return _chi(self.f, self.top)

    @cached_property
    def betti(self) -> list[list[int]]:
        """betti_timeline(G, field_prime): rows b[k][n] for n = 0..top, checked against f by Euler-Poincare.

        Both passes reduce Delta(n) (_prime_complex), whose subdivision is
        the Whitney complex of G(n) on its squarefree labels, and matching is
        the third witness.  On the integer graph the result also rests on a
        theorem, checked here by reading each label's representative: each
        non-squarefree x arrives as a homotopy deformation, its divisors
        1 < d < x forming a contractible poset.
        """
        if self.G.kind == "integer":
            reps, mu = self.representatives, self.sieve.mu
            x = next((x for x, (key, _) in self._factored.items() if not mu[x] and reps[key].kind != "homotopy"), None)
            if x is not None:
                raise RankDiscrepancyError(
                    f"Integer(n) is not a deformation of Delta(n) first at n={x}: {x} is not squarefree but critical",
                    self.field_prime,
                )
        return _verified_betti(self._delta, self.f, self.top, self.field_prime, self.matching)

    @cached_property
    def matching(self) -> list[list[int]]:
        """c[k][n], the critical k-cells of Bjorner's matching on Delta(n), each n certified."""
        cells, _, faces = self._delta
        return _bjorner_matching(cells, faces, self.top, self.field_prime)

    @cached_property
    def _delta(self):
        """_prime_complex(_factored)."""
        return _prime_complex(self._factored)

    @cached_property
    def representatives(self) -> dict[tuple[int, ...], FiltrationEvent]:
        """{sorted exponents: classify_vertex(G, x, sieve)}, x the first label with those exponents."""
        reps: dict[tuple[int, ...], FiltrationEvent] = {}
        for x, (key, _) in self._factored.items():
            if key not in reps:
                reps[key] = classify_vertex(self.G, x, self.sieve)
        return reps

    @cached_property
    def events(self) -> list[FiltrationEvent]:
        """classify_vertex(G, x, sieve) for every vertex x of G, in label order.

        Under f(x) = x the stable sphere of a vertex x of a prime, integer or
        divisor graph is, by build_graph's construction, the poset of its
        divisors 1 < d < x, and the exponent-vector map is an isomorphism of
        the posets of any two numbers with the same sorted exponents.  So each
        vertex takes the event of its signature's representative, with its own
        n and mu read from the sieve, on the same two facts that f and
        Delta(n) rest on.
        """
        reps, mu = self.representatives, self.sieve.mu
        return [replace(reps[key], n=x, mu=mu[x]) for x, (key, _) in self._factored.items()]

    @cached_property
    def critical(self) -> list[list[int]]:
        """critical[m][n] = c_m(n), the critical events of index m up to n, each read from its representative."""
        reps = self.representatives
        width = 1 + max((ev.morse_index for ev in reps.values() if ev.kind == "critical"), default=-1)
        counts = [Counter() for _ in range(width)]
        for x, (key, _) in self._factored.items():
            if reps[key].kind == "critical":
                counts[reps[key].morse_index][x] += 1
        return [_cumulative(c, self.top) for c in counts]

    @cached_property
    def mertens(self) -> list[int]:
        """mertens_table(sieve, top): M(n) for n = 0..top."""
        return mertens_table(self.sieve, self.top)

    @cached_property
    def pi(self) -> dict[tuple[int, bool], list[int]]:
        """pi_k_tables(sieve, top, k_max), k_max the most primes of a squarefree number up to top."""
        return pi_k_tables(self.sieve, self.top, next(k for k in count(1) if primorial(k + 1) > self.top))

    @cached_property
    def mertens_euler(self) -> list[bool]:
        """Whether chi(G(n)) = 1 - M(n), for n = 0..top."""
        return [chi == 1 - m for chi, m in zip(self.chi, self.mertens)]

    @cached_property
    def poincare_hopf(self) -> list[str | None]:
        """For n = 0..top, None where every critical index up to n is -mu and all indices sum to chi(G(n)).

        Else "index != -mu" (reported first) or "sum != chi".
        """
        reps, mu = self.representatives, self.sieve.mu
        index, wrong = Counter(), Counter()
        for x, (key, _) in self._factored.items():
            index[x] += reps[key].ph_index
            wrong[x] += reps[key].kind == "critical" and reps[key].ph_index != -mu[x]
        total, bad = _cumulative(index, self.top), _cumulative(wrong, self.top)
        return ["index != -mu" if w else None if t == chi else "sum != chi" for w, t, chi in zip(bad, total, self.chi)]

    @cached_property
    def morse_inequalities(self) -> list[tuple[bool, bool]]:
        """(weak, strong) for n = 0..top: morse_inequality_check(betti, critical, top + 1)."""
        return morse_inequality_check(self.betti, self.critical, self.top + 1)

    @cached_property
    def formulas(self) -> list[tuple[bool | None, tuple[int, ...]]]:
        """(H1, None below n = 4; the k where H3 fails) for n = 0..top: betti_formulas(range(top + 1), pi, betti)."""
        return betti_formulas(range(self.top + 1), self.pi, self.betti)


def _prime_complex(factored):
    """The prime complex Delta(n) on the squarefree labels of Filtration._factored, as (cells, key, faces).

    cells[k] lists the labels with k + 1 primes, each keyed by itself; x =
    p_0 p_1 ... p_k, primes ascending, has the boundary sum_i (-1)^i x / p_i,
    built once as its (face, sign) list, which faces(x) returns (a vertex's
    is empty).
    """
    cells: list[list[int]] = []
    boundary: dict[int, list[tuple[int, int]]] = {}
    for x, (exponents, primes) in factored.items():
        if exponents[0] == 1:  # all exponents are 1, and primes ascend
            cells += [[] for _ in range(len(primes) - len(cells))]
            cells[len(primes) - 1].append(x)
            boundary[x] = [(x // p, -1 if i % 2 else 1) for i, p in enumerate(primes)] if len(primes) > 1 else []
    return cells, lambda x: x, boundary.__getitem__


def _bjorner_partner(x: int, q: int, n: int, is_cell) -> int | None:
    """The coface x is matched up with in Delta(n): qx, when q does not divide x and qx is a cell up to n."""
    return q * x if x % q and q * x <= n and is_cell(q * x) else None


def _bjorner_matching(cells, faces, top: int, field_prime: int) -> list[list[int]]:
    """c[k][n], the critical k-cells of Bjorner's matching on Delta(n), for n = 0..top, each n certified.

    cells and faces are those of _prime_complex; q is their smallest prime.
    When n arrives (in label order), n and each face y of n ask
    _bjorner_partner for their coface in Delta(n).  The boundary of n must
    have zero boundary.  A pair (y, n) must be a cell-coface pair, neither
    matched yet, with q dividing every face of n but y and not y itself:
    then no matched-up cell is divisible by q, so no face of a matched-down
    cell other than its partner is ever matched up, every gradient path
    stops after one step, and the matching is acyclic.  An
    unmatched arrival is critical, and its Morse boundary, found by following
    Forman's gradient paths over Z, must be zero.  A new pair only reroutes
    paths that ended at its critical face with coefficients summing to zero,
    so the Morse differential vanishes at every n and c[k][n] = b_k(Delta(n))
    over every field.  Nothing is assumed from Bjorner's theorem: the first
    failed check raises RankDiscrepancyError naming n and the cell.
    """
    dims = {x: k for k, row in enumerate(cells) for x in row}
    q = cells[0][0] if cells else 0
    partner: dict[int, int] = {}
    changes = [Counter() for _ in cells]

    def fail(n, x, what):
        raise RankDiscrepancyError(f"Bjorner's matching fails first at n={n}: cell {x} {what}", field_prime)

    for n in sorted(dims):
        up = _bjorner_partner(n, q, n, dims.__contains__)
        if up is not None:
            fail(n, n, f"is matched with {up}, not a coface in Delta({n})")
        boundary = faces(n)
        twice: dict[int, int] = {}
        for y, s in boundary:
            for v, t in faces(y):
                twice[v] = twice.get(v, 0) + s * t
        if any(twice.values()):
            fail(n, n, "has a boundary whose boundary is not zero")
        pairs = [y for y, _ in boundary if _bjorner_partner(y, q, n, dims.__contains__) == n]
        if not pairs:
            changes[dims[n]][n] += 1
            flow = _morse_boundary(boundary, partner, faces)
            if flow:
                fail(n, n, f"is critical with Morse boundary {flow}")
            continue
        if len(pairs) > 1:
            fail(n, n, f"is matched with each of {pairs}")
        y = pairs[0]
        if y in partner:
            fail(n, y, f"is matched with {n} and with {partner[y]}")
        if not y % q:
            fail(n, y, f"is matched up with {n}, but {q} divides it")
        if any(z % q for z, _ in boundary if z != y):
            fail(n, n, f"is matched with {y} and has a face that {q} does not divide")
        partner[y], partner[n] = n, y
        changes[dims[y]][n] -= 1
    return [_cumulative(c, top) for c in changes]


def _morse_boundary(boundary, partner: dict[int, int], faces) -> dict[int, int]:
    """The Morse boundary of a cell with this boundary, as {critical face: coefficient} without zeros.

    A face y matched up with z = partner[y] > y flows to -[z:y] times the
    other faces of z; a face matched down ends its path; a critical face is
    an end point.  Incidences are +-1, so [z:y] is its own inverse.
    """
    total: dict[int, int] = {}
    paths = list(boundary)
    while paths:
        y, w = paths.pop()
        z = partner.get(y)
        if z is None:
            total[y] = total.get(y, 0) + w
        elif z > y:
            up = faces(z)
            s = next(t for v, t in up if v == y)
            paths += [(v, -w * s * t) for v, t in up if v != y]
    return {y: w for y, w in total.items() if w}


def _exponent_signature(x: int, sieve: FactorSieve) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(exponents of x, descending; primes of x, ascending)."""
    pairs = sieve.factorization(x)
    return tuple(sorted((e for _, e in pairs), reverse=True)), tuple(p for p, _ in pairs)


@cache
def _chain_counts(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """c[k], the k-chains d_0 < d_1 < ... < d_k = x of divisors d > 1 of any x with these sorted exponents.

    c[0] = 1, and c[k] sums c[k - 1] over the proper divisors d > 1 of x,
    each given by its exponent vector below x's and counted by its own
    sorted exponents.
    """
    below: list[int] = []
    for sub in product(*(range(e + 1) for e in exponents)):
        if any(sub) and sub != exponents:
            counts = _chain_counts(tuple(sorted(filter(None, sub), reverse=True)))
            below += [0] * (len(counts) - len(below))
            for k, c in enumerate(counts):
                below[k] += c
    return (1, *below)
