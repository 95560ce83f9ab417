"""Morse filtration of the counting function on divisibility graphs.

Vertices enter in ascending label order; each arrival either attaches a
topological handle (a ball over a stable sphere) or is a homotopy deformation.
This module classifies those events, tallies critical points, and carries the
simplex-level Morse complex whose cohomology matches the simplicial one.  It
checks two identities of the Betti numbers, each with one evaluator that reads
whole timelines, rows [k][i] over the columns i, and returns bytes rows, 1 in
each column where a condition holds: the Morse inequalities against the
critical counts (morse_inequality_check, which needs the classification) and
the counting-function formulas H1/H3 against the pi_k tables (betti_formulas).
On the divisibility graphs the Betti numbers are those of the prime complex
Delta(n), certified without elimination by Bjorner's matching at every n.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from functools import cache, cached_property
from itertools import compress, count, product, repeat
from operator import and_, eq, ge, le, lt, not_, or_

from .arithmetic import FactorSieve, mertens_table, moebius, pi_k_tables, primorial
from .cohomology import (
    DEFAULT_FIELD_PRIME,
    Column,
    _Record,
    _chi,
    _cumulative,
    _f_vector,
    _faces,
    _marks,
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
from .graphs import Graph, GraphKind, build_graph, cliques, induced_subgraph, kind_labels, proper_divisors
from .topology import poset_dimension_timeline, sphere_dimension_within


class FiltrationEvent(_Record):
    """One record per vertex entering the filtration; kind is "critical" or "homotopy"."""

    __slots__ = ("n", "mu", "stable_sphere_dim", "morse_index", "ph_index", "kind", "method")
    __hash__ = _Record._hash

    def __init__(self, n, mu, stable_sphere_dim, morse_index, ph_index, kind, method="exact"):
        self.n, self.mu, self.stable_sphere_dim, self.morse_index = n, mu, stable_sphere_dim, morse_index
        self.ph_index, self.kind, self.method = ph_index, kind, method

    def replace(self, **changes) -> FiltrationEvent:
        """A copy with the named fields changed, as dataclasses.replace makes it."""
        return FiltrationEvent(**dict(zip(self.__slots__, self._values()), **changes))


class MorseComplex(_Record):
    """Critical cells per index plus the intersection-number derivatives.

    cells[m] lists the index-m critical cells (the m-simplices of the source
    graph).  derivatives[m] is the matrix of d: functions on index-m cells to
    functions on index-(m+1) cells, stored column-wise per index-m cell with
    rows indexed by index-(m+1) cells.
    """

    __slots__ = ("cells", "derivatives")

    def __init__(self, cells: tuple[tuple[tuple[int, ...], ...], ...], derivatives: list[list[Column]]):
        self.cells, self.derivatives = cells, derivatives

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def stable_sphere(G: Graph, x: int) -> Graph:
    """Subgraph of the unit sphere of x on the neighbours below x, the stable sphere under f(x) = x."""
    neighbors = G.neighbors(x)
    return induced_subgraph(G, neighbors[: bisect_left(neighbors, x)])


def divisor_sphere(x: int, sieve: FactorSieve) -> Graph:
    """stable_sphere(G, x) for a label x of a prime, integer or divisor graph G, built without G.

    Its vertices are the divisors 1 < d < x, all labels of G since the labels
    are closed under division, and its edges their divisibility pairs.
    """
    divisors = proper_divisors(x, sieve)
    return Graph(divisors, [(a, b) for i, a in enumerate(divisors) for b in divisors[i + 1 :] if not b % a])


def classify_vertex(G: Graph, x: int, sieve: FactorSieve) -> FiltrationEvent:
    """Classify the filtration step at x from its stable sphere in G: _classify(stable_sphere(G, x), x, sieve)."""
    return _classify(stable_sphere(G, x), x, sieve)


def _classify(sphere: Graph, x: int, sieve: FactorSieve) -> FiltrationEvent:
    """The filtration step at x, classified from its stable sphere.

    A sphere verdict makes x critical with morse_index = sphere dim + 1; a
    contractible stable sphere makes the step a homotopy deformation.  Any
    other verdict is a genuine finding and raises ClassificationError.
    """
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


def morse_inequality_check(b, c, width: int) -> list[bytes]:
    """[weak, strong], one byte per column i < width, 1 where the Morse inequalities hold.

    The columns are those of the Betti rows b[k][i] and the counts c[k][i].
    weak: b_k <= c_k for all k.  strong: every alternating partial sum
    r_k = sum_{j<=k} (-1)^(k-j) (c_j - b_j) is nonnegative and the last is
    zero (Euler-Poincare).  A row k >= len(b) or len(c) reads as zeros.  One k
    is read at a time: the state is one row of r and the two verdict rows, so
    a failing column costs no more than a passing one.
    """
    zero = bytes(width)
    r, weak, strong = zero, b"\1" * width, b"\1" * width
    for k in range(max(len(b), len(c))):
        bk, ck = b[k] if k < len(b) else zero, c[k] if k < len(c) else zero
        r = [y - x - rk for x, y, rk in zip(bk, ck, r)]
        # 1 & x is 1 or 0 for a bool x, and for numpy's bools too, which bytes() does not take
        weak = bytes(map(and_, weak, map(le, bk, ck)))
        strong = bytes(map(and_, strong, map(ge, r, zero)))
    return [weak, bytes(map(and_, strong, map(not_, r)))]


def betti_formulas(ns, tables, b) -> list[bytes]:
    """One row per Betti dimension k, one byte per n of ns, 1 where b[k][i], the Betti rows at ns[i], fit the formula.

    Row 0 is H1: b_0 = 1 + pi(n) - pi(n//2), holding below n = 4.  Row k >= 1
    is H3: b_k = pi_{k+1}(n, odd) - pi_{k+1}(n//2, odd), for k = 1..len(b) - 1
    and at least for k = 1..3; a row k >= len(b) reads as zeros.  tables is
    pi_k_tables(sieve, N, k_max) for some N >= max(ns).  A k above k_max
    counts zero, which is exact when k_max >= max(len(b), 4) or no
    squarefree number up to N has more than k_max primes.  Each row is built
    whole, so a failing column costs no more than a passing one.
    """
    zero = bytes(len(ns))

    def diff(k, odd):
        row = tables.get((k, odd))
        return [row[n] - row[n // 2] for n in ns] if row else zero

    def holds(k, want):  # 1 in the columns i where b_k equals want[i]; bool reads numpy's bools as 0 or 1
        return bytes(map(bool, map(eq, b[k] if k < len(b) else zero, want)))

    h1 = bytes(map(or_, holds(0, [1 + d for d in diff(1, False)]), map(lt, ns, repeat(4))))
    return [h1] + [holds(k, diff(k + 1, True)) for k in range(1, max(len(b), 4))]


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


def chi_timeline(G: Graph, top: int) -> array:
    """chi(G(n)) for n = 0..top, from cumulative per-top-vertex simplex counts."""
    return _chi(_f_vector(cliques(G), top), top)


def betti_timeline(G: Graph, top: int, field_prime: int = DEFAULT_FIELD_PRIME) -> list[array]:
    """b_k(G(n)) for n = 0..top at once, rows [k][n], by one filtration-ordered reduction.

    The columns of each dimension enter in the order of their top vertex
    label, through _verified_betti, the witness that also gives
    betti_numbers: exact over GF(field_prime), and checked against exact
    rational elimination of the same simplices and Euler-Poincare at every
    n.  It reads the Whitney complex of any graph, and is the oracle of
    Filtration.betti on the divisibility graphs.
    """
    simplices = cliques(G)
    return _verified_betti(_simplicial(simplices), _f_vector(simplices, top), top, field_prime)


class Filtration:
    """The filtration of a prime, integer or divisor graph by the counting function, computed lazily and once.

    kind is a GraphKind; the labels are kind_labels(kind, sieve), the label
    rule build_graph uses, and are closed under division (x -> x/p for every
    prime p of x, x/p = 1 aside).  A Graph is rejected, and read by the
    module functions instead.  Each field is computed on first use and then
    kept, so every check that reads the same field shares one computation.
    Every field but G reads the sieve and the labels alone: G, the graph
    build_graph makes, is built only when read.  Each label is factored once,
    into the index of its exponent signature, and every per-signature value
    is computed once: the f-vector and chi count the chains of the divisor
    poset, and the critical counts and the Poincare-Hopf sums read each
    label's representative, the event of the first label of its signature,
    classified on a stable sphere built from its divisors.  The Betti
    timeline is that of the prime complex Delta(n), reduced over
    GF(field_prime) and over Q and witnessed without elimination by
    Bjorner's matching.  Each of the paper's identities is evaluated here by
    one call over every n, in a field that reads only that identity's inputs,
    into bytes rows over n, 1 where it holds.  A timeline is an array('q')
    over n = 0..top, where top is kind.param, or a list of such rows [k][n].
    """

    def __init__(self, kind: GraphKind, sieve: FactorSieve, field_prime: int = DEFAULT_FIELD_PRIME):
        if not isinstance(kind, GraphKind):
            raise InvalidArgumentError("Filtration reads a GraphKind; for a Graph use chi_timeline and betti_timeline")
        self.kind = kind
        self.sieve = sieve
        self.field_prime = field_prime
        self.top = kind.param
        self.labels = kind_labels(kind, sieve)

    @cached_property
    def G(self) -> Graph:
        """build_graph(kind, sieve), built on first use."""
        return build_graph(self.kind, self.sieve)

    @cached_property
    def _signatures(self) -> tuple[array, dict[tuple[int, ...], int]]:
        """(index, first), the signature of each label as an index into one table per signature.

        first maps each sorted exponent signature to its first label, in
        label order, and index[i] is the position in first of the signature
        of labels[i].
        """
        slots: dict[tuple[int, ...], tuple[int, int]] = {}  # signature: (position, first label)
        index = array("H")
        for x in self.labels:
            key = tuple(sorted((e for _, e in self.sieve.factorization(x)), reverse=True))
            index.append(slots.setdefault(key, (len(slots), x))[0])
        return index, {key: x for key, (_, x) in slots.items()}

    def _per_label(self, values):
        """(x, the value of its signature) for every label x, in label order; values lists one per signature."""
        index, _ = self._signatures
        return zip(self.labels, map(list(values).__getitem__, index))

    @cached_property
    def f(self) -> list[array]:
        """f[k][n] = number of k-simplices of G(n), for n = 0..top.

        The k-simplices with top vertex x are the k-chains of divisors of x,
        counted once per exponent signature by _chain_counts.
        """
        counts = [_chain_counts(key) for key in self._signatures[1]]
        marks = ((k, x, c) for x, chains in self._per_label(counts) for k, c in enumerate(chains))
        return _cumulative(marks, max(map(len, counts), default=0), self.top)

    @cached_property
    def dimension(self) -> list:
        """dim G(n) as a Fraction for n = 0..top, from the divisor poset: topology.poset_dimension_timeline."""
        return poset_dimension_timeline(self.labels, self.sieve, dict(self._per_label(self._signatures[1])), self.top)

    @cached_property
    def chi(self) -> array:
        """chi_timeline(G, top): chi(G(n)) for n = 0..top, the alternating sum of f."""
        return _chi(self.f, self.top)

    @cached_property
    def betti(self) -> list[array]:
        """betti_timeline(G, top, field_prime): rows b[k][n] for n = 0..top, checked against f by Euler-Poincare.

        Both passes reduce Delta(n) (_prime_complex), whose subdivision is
        the Whitney complex of G(n) on its squarefree labels, and matching is
        the third witness.  On the integer graph the result also rests on a
        theorem, checked here on each signature's representative: each
        non-squarefree x arrives as a homotopy deformation, its divisors
        1 < d < x forming a contractible poset.
        """
        if self.kind.name == "integer":
            reps = self.representatives.items()
            x = min((ev.n for key, ev in reps if key[0] > 1 and ev.kind != "homotopy"), default=None)
            if x is not None:
                raise RankDiscrepancyError(
                    f"Integer(n) is not a deformation of Delta(n) first at n={x}: {x} is not squarefree but critical",
                    self.field_prime,
                )
        return _verified_betti(self._delta, self.f, self.top, self.field_prime, self.matching)

    @cached_property
    def matching(self) -> list[array]:
        """c[k][n], the critical k-cells of Bjorner's matching on Delta(n), each n certified."""
        cells, _, faces = self._delta
        return _bjorner_matching(cells, faces, self.top, self.field_prime)

    @cached_property
    def _delta(self):
        """_prime_complex(labels, sieve)."""
        return _prime_complex(self.labels, self.sieve)

    @cached_property
    def representatives(self) -> dict[tuple[int, ...], FiltrationEvent]:
        """{sorted exponents: the event of x}, x the first label with those exponents.

        Each x is classified on divisor_sphere(x, sieve); classify_vertex(G,
        x, sieve), the same _classify on stable_sphere(G, x), is its oracle.
        """
        return {key: _classify(divisor_sphere(x, self.sieve), x, self.sieve) for key, x in self._signatures[1].items()}

    @cached_property
    def events(self) -> list[FiltrationEvent]:
        """classify_vertex(G, x, sieve) for every vertex x of G, in label order.

        Under f(x) = x the stable sphere of a vertex x of a prime, integer or
        divisor graph is the poset of its divisors 1 < d < x, and the
        exponent-vector map is an isomorphism of the posets of any two
        numbers with the same sorted exponents.  So each vertex takes the
        event of its signature's representative, with its own n and mu read
        from the sieve, on the same two facts that f and Delta(n) rest on.
        """
        mu = self.sieve.mu
        return [ev.replace(n=x, mu=mu[x]) for x, ev in self._per_label(self.representatives.values())]

    @cached_property
    def critical(self) -> list[array]:
        """critical[m][n] = c_m(n), the critical events of index m up to n, each read from its representative."""
        reps = self.representatives.values()
        width = 1 + max((ev.morse_index for ev in reps if ev.kind == "critical"), default=-1)
        marks = ((ev.morse_index, x, 1) for x, ev in self._per_label(reps) if ev.kind == "critical")
        return _cumulative(marks, width, self.top)

    @cached_property
    def mertens(self) -> array:
        """mertens_table(sieve, top): M(n) for n = 0..top."""
        return mertens_table(self.sieve, self.top)

    @cached_property
    def pi(self) -> dict[tuple[int, bool], array]:
        """pi_k_tables(sieve, top, k_max), k_max the most primes of a squarefree number up to top."""
        return pi_k_tables(self.sieve, self.top, next(k for k in count(1) if primorial(k + 1) > self.top))

    @cached_property
    def mertens_euler(self) -> bytes:
        """One byte per n = 0..top, 1 where chi(G(n)) = 1 - M(n)."""
        return bytes(chi == 1 - m for chi, m in zip(self.chi, self.mertens))

    @cached_property
    def poincare_hopf(self) -> list[bytes]:
        """[index, sum], one byte per n = 0..top each.

        index is 1 where every critical index up to n is -mu, sum where all
        indices sum to chi(G(n)).
        """
        mu = self.sieve.mu
        marks = (
            mark
            for x, ev in self._per_label(self.representatives.values())
            for mark in ((0, x, ev.kind == "critical" and ev.ph_index != -mu[x]), (1, x, ev.ph_index))
        )
        bad, total = _cumulative(marks, 2, self.top)
        return [bytes(map(not_, bad)), bytes(map(eq, total, self.chi))]

    @cached_property
    def morse_inequalities(self) -> list[bytes]:
        """[weak, strong], one byte per n = 0..top each: morse_inequality_check(betti, critical, top + 1)."""
        return morse_inequality_check(self.betti, self.critical, self.top + 1)

    @cached_property
    def formulas(self) -> list[bytes]:
        """[H1, H3 at k = 1, 2, ...], one byte per n = 0..top each: betti_formulas(range(top + 1), pi, betti)."""
        return betti_formulas(range(self.top + 1), self.pi, self.betti)


def _prime_complex(labels, sieve: FactorSieve):
    """The prime complex Delta(n) on the squarefree labels, as (cells, key, faces).

    cells[k] is an array('q') of the labels with k + 1 primes, each keyed by
    itself; x = p_0 p_1 ... p_k, primes ascending, has the boundary
    sum_i (-1)^i x / p_i.  faces(x) builds it as a (face, sign) list from
    the sieve's spf on each call (a vertex's is empty), so no face is stored.
    """
    mu, omega, spf = sieve.mu, sieve.omega, sieve.spf
    cells: list[array] = []
    for x in compress(labels, map(mu.__getitem__, labels)):
        cells += [array("q") for _ in range(omega[x] - len(cells))]
        cells[omega[x] - 1].append(x)

    def faces(x):
        primes, m = [], x
        while m > 1:
            primes.append(spf[m])
            m //= spf[m]
        return [(x // p, -1 if i % 2 else 1) for i, p in enumerate(primes)] if len(primes) > 1 else []

    return cells, lambda x: x, faces


def _bjorner_partner(x: int, q: int, n: int, is_cell) -> int | None:
    """The coface x is matched up with in Delta(n): qx, when q does not divide x and qx is a cell up to n."""
    return q * x if x % q and q * x <= n and is_cell(q * x) else None


def _bjorner_matching(cells, faces, top: int, field_prime: int) -> list[array]:
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
    dims = bytearray(top + 1)  # 1 + the dimension of each cell, 0 off the cells
    for k, row in enumerate(cells):
        for x in row:
            dims[x] = k + 1
    is_cell = dims.__getitem__
    q = cells[0][0] if cells else 0
    partner: dict[int, int] = {}
    changes = [Counter() for _ in cells]

    def fail(n, x, what):
        raise RankDiscrepancyError(f"Bjorner's matching fails first at n={n}: cell {x} {what}", field_prime)

    for n in compress(count(), dims):
        up = _bjorner_partner(n, q, n, is_cell)
        if up is not None:
            fail(n, n, f"is matched with {up}, not a coface in Delta({n})")
        boundary = faces(n)
        twice: dict[int, int] = {}
        for y, s in boundary:
            for v, t in faces(y):
                twice[v] = twice.get(v, 0) + s * t
        if any(twice.values()):
            fail(n, n, "has a boundary whose boundary is not zero")
        pairs = [y for y, _ in boundary if _bjorner_partner(y, q, n, is_cell) == n]
        if not pairs:
            changes[dims[n] - 1][n] += 1
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
        changes[dims[y] - 1][n] -= 1
    return _cumulative(_marks(changes), len(changes), top)


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
