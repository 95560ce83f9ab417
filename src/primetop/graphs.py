"""Finite simple graphs with integer vertex labels, and the divisibility graphs.

Graphs are immutable after construction.  Vertex identity is the integer label;
adjacency is stored once, as a dict from each label to the frozenset of its
neighbours, and neighbors() sorts on demand for the callers that need order.
All constructions are deterministic: vertices ascend, edges are emitted in
ascending lexicographic order, and derived graphs (refinement, product) label
their vertices by a canonical sort of the underlying simplices.  A graph
carries no kind: a divisibility graph is named by its GraphKind(name, n).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque, namedtuple
from heapq import merge
from itertools import groupby
from operator import itemgetter

from .arithmetic import FactorSieve
from .errors import InternalConsistencyError, InvalidArgumentError

DIVISIBILITY_KINDS = ("prime", "integer", "divisor")


class Graph:
    """Immutable finite simple graph on distinct positive-integer labels."""

    def __init__(self, labels, edges):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise InvalidArgumentError("duplicate vertex labels")
        if labels and labels[0] < 1:
            raise InvalidArgumentError("vertex labels must be positive integers")
        nbrs: dict[int, set[int]] = {v: set() for v in labels}
        for a, b in edges:
            if a == b:
                raise InvalidArgumentError(f"self-loop at {a}")
            if a not in nbrs or b not in nbrs:
                raise InvalidArgumentError(f"edge ({a},{b}) uses unknown labels")
            nbrs[a].add(b)
            nbrs[b].add(a)
        self.labels = labels
        # each mutable row is dropped as it is frozen, so no adjacency is held twice
        self._nbr_sets = {v: frozenset(nbrs.pop(v)) for v in labels}

    # --- basic queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def has_vertex(self, v: int) -> bool:
        return v in self._nbr_sets

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of v in ascending order."""
        return tuple(sorted(self.neighbor_set(v)))

    def neighbor_set(self, v: int) -> frozenset[int]:
        if v not in self._nbr_sets:
            raise InvalidArgumentError(f"unknown vertex label {v}")
        return self._nbr_sets[v]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._nbr_sets.get(a, ())

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, in ascending lexicographic order."""
        return [(v, u) for v in self.labels for u in self.neighbors(v) if v < u]

    def degree(self, v: int) -> int:
        return len(self.neighbor_set(v))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nbr_sets == other._nbr_sets

    def __repr__(self):
        return f"Graph({self.n_vertices} vertices, {len(self.edges())} edges)"

    # --- export ---------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.labels:
            lines.append(f"  {v};")
        for a, b in self.edges():
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class GraphKind(namedtuple("GraphKind", "name param")):
    """Family selector: the "integer" or "prime" divisibility graph of n = param, or "divisor" of m = param."""

    __slots__ = ()

    def __new__(cls, name: str, param: int):
        if name not in DIVISIBILITY_KINDS:
            raise InvalidArgumentError(f"unknown graph kind {name!r}")
        if param < 2:
            raise InvalidArgumentError(f"graph parameter must be >= 2, got {param}")
        return super().__new__(cls, name, param)

    @staticmethod
    def integer(n: int) -> "GraphKind":
        return GraphKind("integer", n)

    @staticmethod
    def prime(n: int) -> "GraphKind":
        return GraphKind("prime", n)

    @staticmethod
    def divisor(m: int) -> "GraphKind":
        return GraphKind("divisor", m)


def squarefree_divisors(m: int, sieve: FactorSieve) -> list[int]:
    """All squarefree divisors of m (including 1 and, if squarefree, m)."""
    divs = [1]
    for p, _ in sieve.factorization(m):
        divs += [d * p for d in divs]
    return sorted(divs)


def _divisibility_edges(vertices):
    """The pairs (a, b) of vertices with a | b and a < b, in ascending order."""
    present = set(vertices)
    top = max(vertices) if vertices else 0
    for a in vertices:
        for b in range(2 * a, top + 1, a):
            if b in present:
                yield a, b


def _label_rule(kind: GraphKind, sieve: FactorSieve):
    """is_label(y) for 1 < y <= kind.param: whether y is a label of the kind's graph.

    Integer(n) has every such y, Prime(n) the squarefree ones and Divisor(m)
    the squarefree divisors of m other than m.  The labels are closed under
    division: every divisor d > 1 of a label is a label.
    """
    m, mu = kind.param, sieve.mu
    if kind.name == "integer":
        return lambda y: True
    if kind.name == "prime":
        return mu.__getitem__
    return lambda y: y != m and mu[y] and not m % y


def kind_labels(kind: GraphKind, sieve: FactorSieve) -> array:
    """The labels of the kind's graph, ascending, as an array('q'), by _label_rule; build_graph's too."""
    if kind.param > sieve.limit:
        raise InvalidArgumentError(f"parameter {kind.param} exceeds sieve limit {sieve.limit}")
    n = kind.param
    candidates = squarefree_divisors(n, sieve)[1:] if kind.name == "divisor" else range(2, n + 1)
    return array("q", filter(_label_rule(kind, sieve), candidates))


def proper_divisors(x: int, sieve: FactorSieve) -> list[int]:
    """The divisors 1 < d < x of x, ascending, read from the sieve's spf chain."""
    spf = sieve.spf
    divisors, m = [1], x
    while m > 1:
        p, block = spf[m], len(divisors)
        while not m % p:
            m //= p
            divisors += [d * p for d in divisors[-block:]]
    divisors.sort()
    return divisors[1:-1]


def build_graph(kind: GraphKind, sieve: FactorSieve) -> Graph:
    """Divisibility graph of the requested kind on kind_labels; edge {a,b} iff a|b or b|a."""
    labels = kind_labels(kind, sieve)
    return Graph(labels, _divisibility_edges(labels))


def induced_subgraph(G: Graph, W) -> Graph:
    """Subgraph on W with every edge of G internal to W."""
    W = set(W)
    for w in W:
        if not G.has_vertex(w):
            raise InvalidArgumentError(f"unknown vertex label {w}")
    edges = [(a, b) for a in W for b in G.neighbor_set(a) & W if a < b]
    return Graph(W, edges)


def components(G: Graph) -> list[set[int]]:
    """Connected components as label sets, ordered by smallest member."""
    seen: set[int] = set()
    out = []
    for v in G.labels:
        if v not in seen:
            comp = set(bfs_distances(G, v))
            seen |= comp
            out.append(comp)
    return out


def bfs_distances(G: Graph, source: int, within: set[int] | None = None) -> dict[int, int]:
    """BFS distance map from source, optionally restricted to a vertex subset."""
    if not G.has_vertex(source):
        raise InvalidArgumentError(f"unknown vertex label {source}")
    return _distances(G.neighbor_set, source, within)


def _distances(neighbours, source: int, within=None) -> dict[int, int]:
    """BFS distance map from source over neighbours(v), optionally restricted to the vertices in within."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in neighbours(u):
            if w in dist or (within is not None and w not in within):
                continue
            dist[w] = dist[u] + 1
            queue.append(w)
    return dist


def cliques(G: Graph) -> list[list[tuple[int, ...]]]:
    """All complete subgraphs of G, grouped by dimension (size-1).

    Returns per-dimension lists of ascending vertex tuples, each list in
    lexicographic order.  Labels are walked in ascending order: the cliques
    with top vertex x are (x,) and c + (x,) for every clique c whose top
    vertex y is a smaller neighbour of x and whose vertices all neighbour x.
    Each clique is built once, from itself without its top vertex; each
    dimension is then sorted.
    """
    by_dim: list[list[tuple[int, ...]]] = []
    ending: dict[int, list[tuple[int, ...]]] = {}
    for x in G.labels:
        nbrs = G.neighbor_set(x)
        own = [(x,)]
        for y in nbrs:
            if y < x:
                own += [c + (x,) for c in ending[y] if nbrs.issuperset(c)]
        ending[x] = own
        for s in own:
            if len(s) > len(by_dim):
                by_dim.append([])
            by_dim[len(s) - 1].append(s)
    for dim in by_dim:
        dim.sort()
    return by_dim


def barycentric_refinement(G: Graph) -> Graph:
    """Graph on the simplices of G, joined by strict containment: the product of G with K_1.

    Labels 1..N follow the lexicographic order of the simplices, which is
    stable across runs.
    """
    return graph_product(G, complete_graph(1))


def graph_product(G: Graph, H: Graph) -> Graph:
    """Simplex-pair product: vertices are (simplex of G, simplex of H) pairs.

    An edge joins two pairs when one is coordinatewise contained in the other.
    Labels 1..N follow the lexicographic order of the tuple pairs.
    """
    sg = sorted(s for dim in cliques(G) for s in dim)
    sh = sorted(s for dim in cliques(H) for s in dim)
    pairs = [(a, b) for a in sg for b in sh]
    label_of = {p: i + 1 for i, p in enumerate(pairs)}
    psets = [(frozenset(a), frozenset(b)) for a, b in pairs]
    edges = []
    for i, (ai, bi) in enumerate(psets):
        for j in range(i + 1, len(psets)):
            aj, bj = psets[j]
            if (ai <= aj and bi <= bj) or (aj <= ai and bj <= bi):
                edges.append((label_of[pairs[i]], label_of[pairs[j]]))
    return Graph(range(1, len(pairs) + 1), edges)


def kummer_involution(m: int, sieve: FactorSieve) -> dict[int, int]:
    """The map k -> m/k on the vertices of Divisor(m), verified as an automorphism."""
    pairs = sieve.factorization(m)
    if any(e > 1 for _, e in pairs):
        raise InvalidArgumentError(f"{m} is not squarefree")
    if len(pairs) < 2:
        raise InvalidArgumentError(f"{m} needs at least 2 prime factors")
    G = build_graph(GraphKind.divisor(m), sieve)
    perm = {v: m // v for v in G.labels}
    if sorted(perm.values()) != list(G.labels):
        raise InternalConsistencyError("k -> m/k does not permute the divisor vertices")
    for a, b in G.edges():
        if not G.has_edge(perm[a], perm[b]):
            raise InternalConsistencyError("k -> m/k is not a graph automorphism")
    return perm


def heteroclinic(G: Graph, x: int, y: int) -> set[int]:
    """Vertices z of a divisibility graph with x | z and z | y."""
    for v in (x, y):
        if not G.has_vertex(v):
            raise InvalidArgumentError(f"unknown vertex label {v}")
    return {z for z in G.labels if z % x == 0 and y % z == 0}


def complete_graph(k: int) -> Graph:
    """K_k on labels 1..k."""
    vs = range(1, k + 1)
    return Graph(vs, [(a, b) for a in vs for b in vs if a < b])


def cycle_graph(k: int) -> Graph:
    """C_k on labels 1..k (k >= 3)."""
    if k < 3:
        raise InvalidArgumentError(f"cycle needs >= 3 vertices, got {k}")
    return Graph(range(1, k + 1), [(i, i % k + 1) for i in range(1, k + 1)])


def verify_component_diameter_bound(
    kind: GraphKind, sieve: FactorSieve, n_max: int, bound: int = 5, anchor: int = 2
) -> int | None:
    """First n in [4, n_max] where the anchor component's diameter exceeds bound.

    The kind's graph is read from the sieve, not built (_neighbour_source).
    Returns None when the bound holds everywhere.  A composite (a label with
    a smaller neighbour) attaches on arrival and a prime p when 2p arrives;
    the members are the vertices attached so far, all of them at most n.
    Distances between members only shrink as the filtration grows, so each
    pair needs checking only at the first n where both ends are members: an
    eccentricity check of every vertex at its own join time covers all
    pairs.  Two certificates bound that eccentricity; a BFS over the members
    runs only where they do not reach bound, and its connectivity check then
    applies.  No BFS runs at bound 5.

    Far bounds.  far[v] is an upper bound on the distance from v to the
    anchor.  A joiner x gets 1 + the least far of its member neighbours, and
    then each member neighbour y gets min(far[y], far[x] + 1), so an odd x
    drops from far 3 to far 2 once 2x arrives.  A far bound stays valid as
    distances shrink, and d(x, w) <= far[x] + far[w] for every member w, so
    ecc(x) <= far[x] + radius, the radius being the largest far of a member.
    A vertex with no known path to the anchor keeps an infinite bound.

    Smallest-divisor bridge.  The smallest neighbour s(v) of a composite v
    is its smallest prime factor, so s(v)**2 <= v.  Let v and w be composite
    members at n.  If s(v) = s(w), v - s(v) - w has length 2.  Otherwise
    v - s(v) - s(v)s(w) - s(w) - w has length 4.  Here s(v)s(w) <=
    sqrt(v)sqrt(w) <= n is a product of two distinct primes: a vertex of the
    prime and integer graphs, and a divisor of m other than m in Divisor(m),
    since Divisor(pq) has no composite.  It is composite, hence a member.
    Each s is the anchor or a prime with 2s <= s**2 <= n, hence a member
    too.  So d(v, w) <= 4, and a composite x has ecc(x) <= max(4, far[x] +
    the largest far of the anchor and the prime members), which can settle x
    only for bounds of 4 and up.
    """
    labels, neighbours = kind_labels(kind, sieve), _neighbour_source(kind, sieve)
    if anchor not in labels:
        raise InvalidArgumentError(f"unknown anchor {anchor}")
    for n, x, certified, far in _certified_joins(labels, neighbours, sieve.spf, n_max, anchor):
        if certified <= bound:
            continue
        dist = _distances(lambda v: neighbours(v, n), x, within=far)
        if len(dist) != len(far):
            raise InternalConsistencyError(f"anchor component disconnected at n={n}")
        if max(dist.values()) > bound:
            return n
    return None


def _neighbour_source(kind: GraphKind, sieve: FactorSieve):
    """neighbours(v, n) of the kind's graph for the diameter sweep, read from the sieve and storing no adjacency.

    The neighbours of v up to n are its divisors 1 < d < v and its multiples
    j*v <= n that are labels.  A composite joins at n = v and a prime p at
    n = 2p, so each join reads at most 2**omega(v) - 1 neighbours.
    """
    is_label = _label_rule(kind, sieve)

    def neighbours(v, n):
        return proper_divisors(v, sieve) + [y for y in range(2 * v, n + 1, v) if is_label(y)]

    return neighbours


def _certified_joins(labels, neighbours, spf, n_max: int, anchor: int):
    """(n, x, certified, far) for each label x joining at n in [4, n_max], neighbours a _neighbour_source.

    A label v is composite, with a smaller neighbour, when spf[v] != v.
    certified is the certificates' upper bound on the eccentricity of x among
    the members (math.inf when they give none); far maps each member to its
    live far bound, valid until the next n.
    """

    def composite(v):
        return v != anchor and spf[v] != v

    joins = merge(
        ((v, v) for v in labels if v == anchor or composite(v)),
        ((2 * v, v) for v in labels if v != anchor and not composite(v)),
    )
    far: dict[int, float] = {}
    members_at = Counter()  # members per far value
    primes_at = Counter()  # the same for the anchor and the primes
    for n, group in groupby(joins, itemgetter(0)):
        if n > n_max:
            break
        near = {v: neighbours(v, n) for _, v in group}
        for v in near:
            far[v] = 0 if v == anchor else math.inf
        for _ in near:  # joiners may reach the members only through each other
            for v, row in near.items():
                far[v] = min(far[v], 1 + min((far[w] for w in row if w in far), default=math.inf))
        for v in near:
            members_at[far[v]] += 1
            if not composite(v):
                primes_at[far[v]] += 1
        for v, row in near.items():
            closer = far[v] + 1
            for w in row:
                if w in far and closer < far[w]:
                    _recount(members_at, far[w], closer)
                    if not composite(w):
                        _recount(primes_at, far[w], closer)
                    far[w] = closer
        if n < 4:
            continue
        radius = max(members_at)
        for v in near:
            certified = far[v] + radius
            if composite(v):
                certified = min(certified, max(4, far[v] + max(primes_at)))
            yield n, v, certified, far


def _recount(counts: Counter, old, new) -> None:
    """Move one member from far value old to new."""
    counts[old] -= 1
    if not counts[old]:
        del counts[old]
    counts[new] += 1
