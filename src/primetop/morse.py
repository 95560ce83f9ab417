"""Morse filtration of the counting function on divisibility graphs.

Vertices enter in ascending label order; each arrival either attaches a
topological handle (a ball over a stable sphere) or is a homotopy deformation.
This module classifies those events, tallies critical points, checks the Morse
inequalities and the counting-function formulas, and carries the simplex-level
Morse complex whose cohomology matches the simplicial one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arithmetic import FactorSieve, mertens_table, pi_k_tables, prime_pi
from .cohomology import (
    DEFAULT_FIELD_PRIME,
    DEFAULT_RATIONAL_BUDGET,
    Column,
    betti_numbers,
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
from .graphs import Graph, GraphKind, build_graph, cliques, induced_subgraph
from .topology import DEFAULT_RECURSION_CAP, sphere_dimension_within


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
    betti_delta: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MorseReport:
    """Checkpoint summary: exact invariants and named checks at one n."""

    n: int
    mertens: int
    chi: int
    betti: tuple[int, ...]
    critical_counts: tuple[int, ...]
    checks: dict[str, bool | None] = field(default_factory=dict)


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


def stable_sphere(G: Graph, f, x: int) -> Graph:
    """Subgraph of the unit sphere of x on neighbors with smaller f-value.

    The unstable sphere is the same call with -f.  f must be locally injective
    at x (no neighbor shares its value).
    """
    fx = f(x)
    below = []
    for y in G.neighbors(x):
        fy = f(y)
        if fy == fx:
            raise InvalidArgumentError(f"f is not locally injective at {x}: f({y}) = f({x})")
        if fy < fx:
            below.append(y)
    return induced_subgraph(G, below)


def _mu_of_label(x: int, sieve: FactorSieve | None) -> int:
    if sieve is not None and x <= sieve.limit:
        sig = sieve.signature(x)
    else:
        factors = []
        m, p, square = x, 2, False
        while p * p <= m:
            if m % p == 0:
                factors.append(p)
                m //= p
                if m % p == 0:
                    square = True
                    while m % p == 0:
                        m //= p
            p += 1
        if m > 1:
            factors.append(m)
        if square:
            return 0
        return -1 if len(factors) % 2 else 1
    if not sig.squarefree:
        return 0
    return -1 if sig.nu % 2 else 1


def classify_vertex(
    G: Graph,
    f,
    x: int,
    sieve: FactorSieve | None = None,
    cap: int = DEFAULT_RECURSION_CAP,
) -> FiltrationEvent:
    """Classify the filtration step at x from its stable sphere.

    A sphere verdict makes x critical with morse_index = sphere dim + 1; a
    contractible stable sphere makes the step a homotopy deformation.  Any
    other verdict is a genuine finding and raises ClassificationError.
    """
    sphere = stable_sphere(G, f, x)
    ph = 1 - euler_characteristic(whitney_complex(sphere))
    verdict = sphere_dimension_within(sphere, sphere.labels, cap=cap)
    mu = _mu_of_label(x, sieve)
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
    counts: list[int] = []
    for ev in events:
        if ev.n > n or ev.kind != "critical":
            continue
        m = ev.morse_index
        while len(counts) <= m:
            counts.append(0)
        counts[m] += 1
    return counts


def morse_inequality_check(b, c) -> tuple[bool, bool, list[int]]:
    """Weak and strong Morse inequalities for Betti vector b and counts c.

    weak: b_k <= c_k for all k.  strong: every alternating partial sum
    r_k = sum_{j<=k} (-1)^(k-j) (c_j - b_j) is nonnegative and the full
    alternating sum telescopes to zero (Euler-Poincare).
    """
    b = list(b)
    c = list(c)
    length = max(len(b), len(c), 1)
    b += [0] * (length - len(b))
    c += [0] * (length - len(c))
    weak = all(b[k] <= c[k] for k in range(length))
    r: list[int] = []
    acc = 0
    for k in range(length):
        acc = (c[k] - b[k]) - acc
        r.append(acc)
    strong = all(x >= 0 for x in r) and sum((-1) ** k * (c[k] - b[k]) for k in range(length)) == 0
    return weak, strong, r


def formula_hypotheses(n: int, sieve: FactorSieve, betti, critical=None) -> dict:
    """Evaluate the counting-function formulas for the Betti numbers at n.

    H1: b_0 = 1 + pi(n) - pi(n//2), meaningful for n >= 4 (None below).
    H2: c_m = pi_{m+1}(n) over all prime tuples, when counts are supplied.
    H3: b_k = pi_{k+1}(n, odd) - pi_{k+1}(n//2, odd) for k = 1..3.
    Raw columns of every pi variant are included for manual comparison.
    """
    b = list(betti.b if hasattr(betti, "b") else betti)
    c = list(critical) if critical is not None else None
    kmax = max(4, len(b), (len(c) + 1) if c else 0)
    tabs = pi_k_tables(sieve, max(n, 2), kmax)
    half = n // 2
    pi_all = {k: int(tabs[(k, False)][n]) for k in range(1, kmax + 1)}
    pi_all_half = {k: int(tabs[(k, False)][half]) for k in range(1, kmax + 1)}
    pi_odd = {k: int(tabs[(k, True)][n]) for k in range(1, kmax + 1)}
    pi_odd_half = {k: int(tabs[(k, True)][half]) for k in range(1, kmax + 1)}

    def bk(k):
        return b[k] if k < len(b) else 0

    h1 = None if n < 4 else bk(0) == 1 + prime_pi(n, sieve) - prime_pi(half, sieve)
    h2 = None
    if c is not None:
        h2 = all(
            (c[m] if m < len(c) else 0) == pi_all[m + 1] for m in range(max(len(c), 3))
        )
    h3 = {k: bk(k) == pi_odd[k + 1] - pi_odd_half[k + 1] for k in (1, 2, 3)}
    return {
        "n": n,
        "h1": h1,
        "h2": h2,
        "h3": h3,
        "pi": pi_all,
        "pi_half": pi_all_half,
        "pi_odd": pi_odd,
        "pi_odd_half": pi_odd_half,
    }


def run_filtration(
    n_max: int,
    kind: str = "prime",
    checkpoints=(),
    sieve: FactorSieve | None = None,
    field_prime: int = DEFAULT_FIELD_PRIME,
    cap: int = DEFAULT_RECURSION_CAP,
) -> tuple[list[FiltrationEvent], list[MorseReport]]:
    """Classify every vertex of the kind-(n_max) graph; report at checkpoints.

    Checkpoint Betti vectors are recomputed from scratch on the induced
    subgraph at each checkpoint.
    """
    if sieve is None:
        sieve = FactorSieve(max(n_max, 2))
    G = build_graph(GraphKind(kind, n_max), sieve)
    f = lambda v: v
    events = [classify_vertex(G, f, x, sieve=sieve, cap=cap) for x in G.labels]
    position = {ev.n: i for i, ev in enumerate(events)}
    mert = mertens_table(sieve, n_max)
    reports = []
    for n in sorted(set(checkpoints)):
        if n > n_max:
            raise InvalidArgumentError(f"checkpoint {n} beyond n_max {n_max}")
        sub = [v for v in G.labels if v <= n]
        K = whitney_complex(induced_subgraph(G, sub))
        bv = betti_numbers(K, field_prime=field_prime)
        chi = euler_characteristic(K)
        c = critical_counts(events, n)
        if n in position:
            prev = betti_numbers(
                whitney_complex(induced_subgraph(G, [v for v in sub if v < n])),
                field_prime=field_prime,
            )
            width = max(len(bv.b), len(prev.b))
            delta = tuple(bv.padded(width)[k] - prev.padded(width)[k] for k in range(width))
            i = position[n]
            events[i] = dataclasses.replace(events[i], betti_delta=delta)
        weak, strong, _ = morse_inequality_check(bv.b, c)
        hyp = formula_hypotheses(n, sieve, bv, critical=c)
        ph_sum = sum(ev.ph_index for ev in events if ev.n <= n)
        ph_pointwise = all(
            ev.ph_index == -ev.mu for ev in events if ev.n <= n and ev.kind == "critical"
        )
        checks = {
            "mertens_euler": chi == 1 - int(mert[n]),
            "poincare_hopf": ph_sum == chi and ph_pointwise,
            "weak": weak,
            "strong": strong,
            "b0_formula": hyp["h1"],
            "bk_formula": all(hyp["h3"].values()),
        }
        reports.append(
            MorseReport(
                n=n, mertens=int(mert[n]), chi=chi, betti=tuple(bv.b),
                critical_counts=tuple(c), checks=checks,
            )
        )
    return events, reports


def events_to_csv(events) -> str:
    """Events as CSV with columns n, mu, sphere_dim, morse_index, ph_index, kind."""
    lines = ["n,mu,sphere_dim,morse_index,ph_index,kind"]
    for ev in events:
        sphere_dim = "" if ev.stable_sphere_dim is None else str(ev.stable_sphere_dim)
        morse_index = "" if ev.morse_index is None else str(ev.morse_index)
        lines.append(f"{ev.n},{ev.mu},{sphere_dim},{morse_index},{ev.ph_index},{ev.kind}")
    return "\n".join(lines) + "\n"


# --- simplex-level Morse complex (f = dim on the refinement) ----------------


def barycentric_morse_complex(G: Graph) -> MorseComplex:
    """Morse complex of the dimension function on the simplex graph of G.

    Critical cells at index m are the m-simplices of G; the intersection
    number n(x, y) is (-1)^i when y omits the i-th vertex of x and 0 else.
    The composition of consecutive derivatives is verified to vanish.
    """
    by_dim = cliques(G)
    cells = tuple(tuple(dim) for dim in by_dim)
    index = {}
    for m, dim in enumerate(cells):
        for pos, s in enumerate(dim):
            index[s] = pos
    derivatives: list[list[Column]] = []
    for m in range(len(cells) - 1):
        cols: list[Column] = [{} for _ in cells[m]]
        for row, x in enumerate(cells[m + 1]):
            for i in range(len(x)):
                y = x[:i] + x[i + 1 :]
                cols[index[y]][row] = -1 if i % 2 else 1
        derivatives.append(cols)
    _verify_dd_zero(cells, derivatives)
    return MorseComplex(cells=cells, derivatives=derivatives)


def _verify_dd_zero(cells, derivatives) -> None:
    for m in range(len(derivatives) - 1):
        nxt = derivatives[m + 1]
        for col in derivatives[m]:
            acc: Column = {}
            for row, v in col.items():
                for row2, w in nxt[row].items():
                    acc[row2] = acc.get(row2, 0) + v * w
            if any(acc.values()):
                raise InternalConsistencyError("Morse derivative does not square to zero")


def morse_betti(
    M: MorseComplex,
    field_prime: int = DEFAULT_FIELD_PRIME,
    rational_budget: int = DEFAULT_RATIONAL_BUDGET,
) -> tuple[int, ...]:
    """Betti vector of the Morse complex, via the shared rank engines."""
    counts = M.counts
    if not counts:
        return ()
    ranks = [rank_gf(cols, field_prime) for cols in M.derivatives]
    if sum(counts) <= rational_budget:
        exact = [rank_exact(cols) for cols in M.derivatives]
        if exact != ranks:
            raise RankDiscrepancyError("Morse complex rank mismatch", field_prime)
    ranks = [0] + ranks + [0]
    return tuple(counts[m] - ranks[m] - ranks[m + 1] for m in range(len(counts)))


# --- filtration-wide invariants ---------------------------------------------


def _timeline_top(G: Graph, n_max: int | None) -> int:
    if n_max is not None:
        return n_max
    if G.param is not None:
        return G.param
    return max(G.labels) if G.labels else 0


def _chi_from_simplices(simplices, top: int) -> np.ndarray:
    out = np.zeros(top + 1, dtype=np.int64)
    for k, dim in enumerate(simplices):
        sign = -1 if k % 2 else 1
        for s in dim:
            if s[-1] <= top:
                out[s[-1]] += sign
    np.cumsum(out, out=out)
    return out


def _betti_from_simplices(simplices, top: int, field_prime: int) -> dict[int, np.ndarray]:
    order = sorted((s[-1], len(s) - 1, s) for k in simplices for s in k if s[-1] <= top)
    position = {entry[2]: i for i, entry in enumerate(order)}
    max_dim = max((e[1] for e in order), default=-1)
    births = {k: np.zeros(top + 1, dtype=np.int64) for k in range(max_dim + 1)}
    deaths = {k: np.zeros(top + 1, dtype=np.int64) for k in range(max_dim + 1)}
    reduced: dict[int, Column] = {}
    pivot_of_row: dict[int, int] = {}
    for j, (time, dim, s) in enumerate(order):
        col: Column = {}
        if dim > 0:
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                col[position[face]] = -1 if i % 2 else 1
        while col:
            low = max(col)
            owner = pivot_of_row.get(low)
            if owner is None:
                break
            piv = reduced[owner]
            factor = (col[low] * pow(piv[low], field_prime - 2, field_prime)) % field_prime
            for i, v in piv.items():
                nv = (col.get(i, 0) - factor * v) % field_prime
                if nv:
                    col[i] = nv
                else:
                    col.pop(i, None)
        if col:
            low = max(col)
            pivot_of_row[low] = j
            reduced[j] = col
            deaths[dim - 1][time] += 1
        else:
            births[dim][time] += 1
    out = {}
    for k in range(max_dim + 1):
        out[k] = np.cumsum(births[k] - deaths[k])
    return out


def chi_timeline(G: Graph, n_max: int | None = None) -> np.ndarray:
    """chi(G(n)) for every n, from cumulative per-top-vertex simplex counts."""
    return _chi_from_simplices(cliques(G), _timeline_top(G, n_max))


def betti_timeline(
    G: Graph, field_prime: int = DEFAULT_FIELD_PRIME, n_max: int | None = None
) -> dict[int, np.ndarray]:
    """b_k(G(n)) for every n at once, by one filtration-ordered reduction.

    Columns enter in the order their simplices appear (top vertex label, then
    dimension, then lexicographically); a column that reduces to zero over
    GF(p) creates a class in its dimension, otherwise it kills the class of
    its pivot row.  Exact over GF(field_prime).
    """
    return _betti_from_simplices(cliques(G), _timeline_top(G, n_max), field_prime)


class Filtration:
    """The filtration of G by the counting function, computed lazily and once.

    Each field is computed on first use and then kept, so every check that
    reads the same field shares one computation: both timelines read one
    clique enumeration, and the critical counts read one classification of
    every vertex.  Timelines run over n = 0..top, where top is G.param (the
    largest label when G has no parameter).
    """

    def __init__(
        self, G: Graph, sieve: FactorSieve | None = None, field_prime: int = DEFAULT_FIELD_PRIME
    ):
        self.G = G
        self.sieve = sieve
        self.field_prime = field_prime
        self.top = _timeline_top(G, None)

    @cached_property
    def simplices(self) -> list[list[tuple[int, ...]]]:
        """cliques(G): every simplex of the Whitney complex, by dimension."""
        return cliques(self.G)

    @cached_property
    def chi(self) -> np.ndarray:
        """chi_timeline(G): chi(G(n)) for n = 0..top."""
        return _chi_from_simplices(self.simplices, self.top)

    @cached_property
    def betti(self) -> dict[int, np.ndarray]:
        """betti_timeline(G, field_prime): b_k(G(n)) for n = 0..top."""
        return _betti_from_simplices(self.simplices, self.top, self.field_prime)

    @cached_property
    def events(self) -> list[FiltrationEvent]:
        """classify_vertex for every vertex of G under f(x) = x, in label order."""
        return [classify_vertex(self.G, _identity, x, sieve=self.sieve) for x in self.G.labels]

    @cached_property
    def critical(self) -> np.ndarray:
        """critical[m, n] = c_m(n), the critical events of index m up to n."""
        width = 1 + max((ev.morse_index for ev in self.events if ev.kind == "critical"), default=-1)
        out = np.zeros((width, self.top + 1), dtype=np.int64)
        for ev in self.events:
            if ev.kind == "critical":
                out[ev.morse_index, ev.n] += 1
        np.cumsum(out, axis=1, out=out)
        return out

    def critical_counts(self, n: int) -> list[int]:
        """critical_counts(events, n), read from the cumulative counts."""
        counts = self.critical[:, n].tolist()
        while counts and not counts[-1]:
            counts.pop()
        return counts


def _identity(x: int) -> int:
    return x
