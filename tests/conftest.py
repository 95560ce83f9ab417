"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own rank/recursion engines:
moebius by trial division, Betti numbers by numpy floating-point matrix rank
or by the exact rank of each boundary matrix (no clearing, no filtration),
Wu characteristic by literal pair enumeration (lives in cohomology already),
tuple counts by direct enumeration, component diameters by a BFS from every
vertex, the diameter sweep literally, by trial division and a BFS at every
join, and the dimension of every G(n) by one pass over the simplices of G.
The package's seven record classes have dataclass mirrors here, their former
definitions, as the oracle of their equality, hash and repr.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from primetop import FactorSieve, Graph, boundary_matrices
from primetop.cohomology import rank_exact
from primetop.errors import InternalConsistencyError, InvalidArgumentError
from primetop.graphs import DIVISIBILITY_KINDS, bfs_distances, complete_graph, components, cycle_graph


@pytest.fixture(scope="session")
def sieve():
    return FactorSieve(3000)


@pytest.fixture(scope="session")
def sieve10k():
    return FactorSieve(10**4)


def moebius_bruteforce(x: int) -> int:
    if x == 1:
        return 1
    k = 0
    m = x
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            k += 1
        p += 1
    if m > 1:
        k += 1
    return (-1) ** k


def distinct_primes_bruteforce(x: int) -> tuple[list[int], bool]:
    factors = []
    squarefree = True
    m, p = x, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            m //= p
            if m % p == 0:
                squarefree = False
                while m % p == 0:
                    m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return factors, squarefree


def betti_float_oracle(K) -> tuple[int, ...]:
    """Betti numbers via numpy matrix_rank on dense boundaries (small complexes)."""
    fv = K.f_vector
    if not fv:
        return ()
    chain = boundary_matrices(K)
    ranks = [0]
    for k in range(1, len(fv)):
        ranks.append(int(np.linalg.matrix_rank(chain.dense(k).astype(float))))
    ranks.append(0)
    return tuple(fv[k] - ranks[k] - ranks[k + 1] for k in range(len(fv)))


def betti_rank_oracle(K) -> tuple[int, ...]:
    """b_k = f_k - rank d_k - rank d_{k+1}, each rank by exact elimination of one boundary matrix."""
    fv = K.f_vector
    ranks = [0] + [rank_exact(cols) for cols in boundary_matrices(K).boundaries] + [0]
    return tuple(fv[k] - ranks[k] - ranks[k + 1] for k in range(len(fv)))


# minimal 6-vertex triangulation of the projective plane (its H_1 over Z is Z/2)
PROJECTIVE_PLANE_TRIANGLES = (
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
)


def projective_plane_faces() -> list[list[tuple[int, ...]]]:
    """Vertices, edges and triangles of the 6-vertex projective plane."""
    triangles = list(PROJECTIVE_PLANE_TRIANGLES)
    edges = sorted({(s[i], s[j]) for s in triangles for i in range(3) for j in range(i + 1, 3)})
    return [[(v,) for v in range(1, 7)], edges, triangles]


def projective_plane_subdivision(first: int = 1) -> Graph:
    """Barycentric subdivision of the 6-vertex projective plane, as a graph.

    Its 31 vertices are the faces, numbered from first by dimension and then
    lexicographically (so the last one is a triangle), and two faces are
    joined when one contains the other.
    """
    faces = [s for dim in projective_plane_faces() for s in dim]
    label = {s: first + i for i, s in enumerate(faces)}
    edges = [(label[a], label[b]) for a in faces for b in faces if len(a) < len(b) and set(a) < set(b)]
    return Graph(label.values(), edges)


def projective_plane_behind_star() -> Graph:
    """A star on labels 1..2002 (4003 simplices), then the projective plane on 2003..2033: 4,184 simplices."""
    plane = projective_plane_subdivision(first=2003)
    return Graph(range(1, 2034), [(1, v) for v in range(2, 2003)] + plane.edges())


def path_graph(k: int) -> Graph:
    """Path on labels 1..k."""
    return Graph(range(1, k + 1), [(i, i + 1) for i in range(1, k)])


def component_diameter(G: Graph, anchor: int = 2) -> int:
    """Max BFS distance over vertex pairs in the anchor's component; the diameter sweep's oracle."""
    comp = bfs_distances(G, anchor).keys()
    best = 0
    for v in comp:
        ecc = max(bfs_distances(G, v).values())
        best = max(best, ecc)
    return best


def dimension_timeline(simplices, top: int) -> list[Fraction]:
    """inductive_dimension of G(n), the subgraph on the labels <= n, for n = 0..top.

    simplices are the cliques of G by dimension, as cliques(G) gives them.
    The unit sphere of u inside the common link L(s) of a simplex s is
    L(s + u), so dim L(s) is 1 + the mean of dim L(s + u) over u in L(s)
    (-1 when L(s) is empty), and dim G(n) is dim L(()).  Every simplex, the
    empty one included, keeps the size of L(s) in G(n) and that sum.  When x
    arrives, L(s) changes only for the new simplices (top vertex x) and their
    facets without x; these are closed under taking facets, so they are
    recomputed longest first, each handing its new term or its change to its
    facets.  Each simplex is settled on arrival and settles its facet without
    its top vertex, so the pass is linear in the (simplex, facet) pairs.
    It is the oracle of Filtration.dimension, which reads no simplex.
    """
    count: defaultdict = defaultdict(int)  # |L(s)|
    total: defaultdict = defaultdict(Fraction)  # sum of dim L(s + u) over u in L(s)
    value = {(): Fraction(-1)}  # dim L(s)

    def settle(s: tuple[int, ...]) -> None:
        """Recompute dim L(s), whose sum is complete, and hand the change to each facet of s."""
        new = 1 + total[s] / count[s] if count[s] else Fraction(-1)
        old = value.get(s)
        value[s] = new
        change = new if old is None else new - old
        if old is not None and not change:
            return
        for i in range(len(s)):
            facet = s[:i] + s[i + 1 :]
            total[facet] += change
            count[facet] += old is None

    order = sorted((s for dim in simplices for s in dim), key=lambda s: (s[-1], -len(s)))
    out, arrived = [], 0
    for n in range(top + 1):
        while arrived < len(order) and order[arrived][-1] == n:
            s = order[arrived]
            arrived += 1
            settle(s)
            settle(s[:-1])
        out.append(value[()])
    return out


def graph_join(A: Graph, B: Graph) -> Graph:
    """The join A * B of two graphs on disjoint labels: both, and every edge between them."""
    return Graph(A.labels + B.labels, A.edges() + B.edges() + [(a, b) for a in A.labels for b in B.labels])


def divisibility_graph(labels) -> Graph:
    """The comparability graph of the labels under divisibility, by trial of every pair."""
    labels = sorted(labels)
    return Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :] if not b % a])


def is_prime_label(v: int) -> bool:
    return v >= 2 and all(v % p for p in range(2, int(v**0.5) + 1))


def diameter_bound_oracle(G, n_max, bound=5, anchor=2):
    """The literal sweep: rebuild the member set by trial division at every join event."""

    def in_component(v, n):
        if v > n:
            return False
        return v == anchor or not is_prime_label(v) or 2 * v <= n

    def joins_at(v):
        if v == anchor:
            return v
        return 2 * v if is_prime_label(v) else v

    events = {}
    for v in G.labels:
        events.setdefault(joins_at(v), []).append(v)
    for n in range(4, n_max + 1):
        for w in events.get(n, ()):
            if not in_component(w, n):
                continue
            members = {v for v in G.labels if in_component(v, n)}
            dist = bfs_distances(G, w, within=members)
            if len(dist) != len(members):
                raise InternalConsistencyError(f"anchor component disconnected at n={n}")
            if max(dist.values()) > bound:
                return n
    return None


def random_connected_graphs(count: int, seed: int = 11, max_vertices: int = 7) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, max_vertices)
        vs = list(range(1, k + 1))
        edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.5]
        G = Graph(vs, edges)
        if len(components(G)) == 1:
            out.append(G)
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """Named tiny graphs used across modules."""
    octahedron = Graph(
        range(1, 7),
        [(a, b) for a in range(1, 7) for b in range(1, 7) if a < b and (a, b) not in ((1, 2), (3, 4), (5, 6))],
    )
    wheel6 = Graph(range(1, 8), [(i, i % 6 + 1) for i in range(1, 7)] + [(i, 7) for i in range(1, 7)])
    return {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "octahedron": octahedron,
        "wheel6": wheel6,
    }


# --- the record classes as dataclasses: the oracle of their ==, hash and repr ---


@dataclass(frozen=True)
class GraphKind:
    name: str
    param: int

    def __post_init__(self):
        if self.name not in DIVISIBILITY_KINDS:
            raise InvalidArgumentError(f"unknown graph kind {self.name!r}")
        if self.param < 2:
            raise InvalidArgumentError(f"graph parameter must be >= 2, got {self.param}")


@dataclass(frozen=True)
class SphereVerdict:
    status: str
    dim: int | None
    method: str


@dataclass(frozen=True)
class FiltrationEvent:
    n: int
    mu: int
    stable_sphere_dim: int | None
    morse_index: int | None
    ph_index: int
    kind: str
    method: str = "exact"


@dataclass(frozen=True)
class BettiVector:
    b: tuple[int, ...]
    field_prime: int
    verified_rational: bool


@dataclass
class ChainComplex:
    shapes: list[tuple[int, int]]
    boundaries: list[list[dict[int, int]]]


@dataclass
class MorseComplex:
    cells: tuple[tuple[tuple[int, ...], ...], ...]
    derivatives: list[list[dict[int, int]]]


@dataclass
class CacheRecord:
    kind: str
    n: int
    fvector: list[int]
    betti: list[int]
    chi: int
    mertens: int
    critical_counts: list[int]
    tool_version: str
    field_prime: int
