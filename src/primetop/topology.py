"""Recursive recognition of contractible graphs and discrete spheres.

The definitions are the inductive graph-theoretic ones: the empty graph is the
(-1)-sphere; a k-sphere is a graph all of whose unit spheres are (k-1)-spheres
and which loses contractibility-obstruction after deleting one vertex; a graph
is contractible when some vertex has a contractible unit sphere and deleting it
leaves a contractible graph (one point is contractible, the empty graph is not).

Exact recursion is exponential, so verdicts are memoized on the literal vertex
subset inside a fixed ambient graph: one recognition meets the same subsets
(links of links, vertex deletions) again and again.  The tables belong to one
call: each public entry point builds its own and passes them down the
recursion, and nothing outlives the call.  Sharing across a filtration happens
one level up, where morse.Filtration classifies one stable sphere per exponent
signature and gives the verdict to every vertex with that signature.
The exact dimensions import fractions when called: inductive_dimension, the
definition, and poset_dimension_timeline, which reads the dimension of every
G(n) of a divisibility filtration from the divisor poset alone.  The recursion
is pruned by screens that are theorems of the definition:

* a contractible graph is connected;
* a cone (some vertex adjacent to all others) is contractible;
* a greedy collapse deletes only vertices whose link is a point or a cone,
  both contractible, so when it reaches one vertex the definition, applied to
  its deletions in reverse, makes every graph on the way contractible;
* above the cap, a collapse that stalls keeps the Betti numbers (deleting a
  vertex whose link is a cone leaves them), and a contractible graph has those
  of a point over every field, so a non-point vector over GF(p) alone rules it
  out.  The large path's sphere verdicts keep the rationally witnessed Betti
  numbers: a GF(p) sphere pattern can hide torsion (RP^2 over GF(2)).

Above the fixed recursion cap of RECURSION_CAP = 25 vertices only
certificate-based answers are given (greedy collapse to a point, disconnection,
a non-point Betti vector); anything still ambiguous raises ResourceLimitError
rather than guessing.  Because the cap is fixed, every memoized verdict depends
on the graph alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from itertools import product

from .cohomology import DEFAULT_FIELD_PRIME, _betti_timeline, _one_key, betti_numbers, reduce_gf, whitney_complex
from .errors import ResourceLimitError
from .graphs import Graph, bfs_distances, induced_subgraph, proper_divisors

RECURSION_CAP = 25


class SphereVerdict(namedtuple("SphereVerdict", "status dim method")):
    """Outcome of sphere recognition.

    status is one of "sphere", "contractible", "neither", "unknown"; dim is set
    for spheres (>= -1).  method records whether the literal recursion ran
    ("exact") or the screened large-graph path ("fast").
    """

    __slots__ = ()

    @property
    def is_sphere(self) -> bool:
        return self.status == "sphere"


def _link(amb: Graph, sub: frozenset, v: int) -> frozenset:
    return amb.neighbor_set(v) & sub


def _connected(amb: Graph, sub: frozenset) -> bool:
    return bool(sub) and len(bfs_distances(amb, next(iter(sub)), sub)) == len(sub)


def _cone_apex(amb: Graph, sub: frozenset) -> int | None:
    want = len(sub) - 1
    for v in sub:
        if len(amb.neighbor_set(v) & sub) == want:
            return v
    return None


def _betti_gf_of_subset(amb: Graph, sub: frozenset) -> tuple[int, ...]:
    """Betti numbers of the subset over GF(DEFAULT_FIELD_PRIME) alone: the GF(p) pass of betti_numbers."""
    K = whitney_complex(induced_subgraph(amb, sub))
    return tuple(row[0] for row in _betti_timeline(_one_key(K), 0, partial(reduce_gf, p=DEFAULT_FIELD_PRIME)))


def _is_point_pattern(b: tuple[int, ...]) -> bool:
    return len(b) >= 1 and b[0] == 1 and all(x == 0 for x in b[1:])


def _sphere_pattern(b: tuple[int, ...], k: int) -> bool:
    if k == 0:
        return b[0] == 2 and all(x == 0 for x in b[1:])
    want = [1] + [0] * (k - 1) + [1]
    got = list(b) + [0] * max(0, k + 1 - len(b))
    return got[: k + 1] == want and all(x == 0 for x in got[k + 1 :])


def _greedy_collapse(amb: Graph, sub: frozenset) -> frozenset:
    """Delete vertices whose subset-link is a point or a cone, until stuck.

    Every deletion is a certified contractible-link removal, so reaching a
    single vertex certifies contractibility of the input.
    """
    current = set(sub)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for v in sorted(current):
            link = amb.neighbor_set(v) & current
            if not link:
                continue
            if len(link) == 1 or _cone_apex(amb, frozenset(link)) is not None:
                current.remove(v)
                changed = True
                break
    return frozenset(current)


def _contractible(amb: Graph, sub: frozenset, memo: dict) -> bool:
    if not sub:
        return False
    if len(sub) == 1:
        return True
    table = memo["contract"]
    if sub in table:
        return table[sub]
    result = _contractible_uncached(amb, sub, memo)
    table[sub] = result
    return result


def _contractible_uncached(amb: Graph, sub: frozenset, memo: dict) -> bool:
    if not _connected(amb, sub):
        return False
    if _cone_apex(amb, sub) is not None:
        return True
    reduced = _greedy_collapse(amb, sub)
    if len(reduced) == 1:
        return True
    if len(sub) > RECURSION_CAP:
        return _contractible_large(amb, sub, reduced, memo)
    for v in sorted(sub):
        link = _link(amb, sub, v)
        if _contractible(amb, link, memo) and _contractible(amb, sub - {v}, memo):
            return True
    return False


def _contractible_large(amb: Graph, sub: frozenset, reduced: frozenset, memo: dict) -> bool:
    """Certificates for sub above the recursion cap, where greedy collapse stalled at reduced."""
    if not _connected(amb, reduced):
        return False
    if not _is_point_pattern(_betti_gf_of_subset(amb, reduced)):
        return False
    if len(reduced) <= RECURSION_CAP and _contractible(amb, reduced, memo):
        return True
    raise ResourceLimitError(
        f"contractibility undecided for {len(sub)} vertices (cap {RECURSION_CAP}): "
        "collapse stalled with point-like Betti vector"
    )


def is_contractible(G: Graph) -> bool:
    """Exact answer to the recursive contractibility definition."""
    return _contractible(G, frozenset(G.labels), {"contract": {}, "sphere": {}})


def _sphere(amb: Graph, sub: frozenset, memo: dict) -> SphereVerdict:
    if not sub:
        return SphereVerdict("sphere", -1, "exact")
    table = memo["sphere"]
    if sub in table:
        return table[sub]
    if len(sub) <= RECURSION_CAP:
        verdict = _sphere_exact(amb, sub, memo)
    else:
        verdict = _sphere_fast(amb, sub, memo)
    table[sub] = verdict
    return verdict


def _unit_sphere_dims(amb: Graph, sub: frozenset, memo: dict) -> int | None:
    """Common sphere dimension of all subset-links, or None if not a k-graph."""
    kdim: int | None = None
    for v in sorted(sub):
        verd = _sphere(amb, _link(amb, sub, v), memo)
        if not verd.is_sphere:
            return None
        if kdim is None:
            kdim = verd.dim
        elif verd.dim != kdim:
            return None
    return kdim


def _sphere_exact(amb: Graph, sub: frozenset, memo: dict) -> SphereVerdict:
    kdim = _unit_sphere_dims(amb, sub, memo)
    if kdim is not None:
        k = kdim + 1
        for v in sorted(sub):
            if _contractible(amb, sub - {v}, memo):
                return SphereVerdict("sphere", k, "exact")
    status = "contractible" if _contractible(amb, sub, memo) else "neither"
    return SphereVerdict(status, None, "exact")


def _sphere_fast(amb: Graph, sub: frozenset, memo: dict) -> SphereVerdict:
    try:
        kdim = _unit_sphere_dims(amb, sub, memo)
        if kdim is not None:
            k = kdim + 1
            if _sphere_pattern(betti_numbers(whitney_complex(induced_subgraph(amb, sub))).b, k):
                return SphereVerdict("sphere", k, "fast")
        status = "contractible" if _contractible(amb, sub, memo) else "neither"
        return SphereVerdict(status, None, "fast")
    except ResourceLimitError:
        return SphereVerdict("unknown", None, "fast")


def sphere_dimension(G: Graph) -> SphereVerdict:
    """Recognize G as a discrete sphere, a contractible graph, or neither.

    Never raises: resource exhaustion degrades to an "unknown" verdict.
    """
    try:
        return _sphere(G, frozenset(G.labels), {"contract": {}, "sphere": {}})
    except ResourceLimitError:
        return SphereVerdict("unknown", None, "fast")


def sphere_dimension_within(G: Graph, labels) -> SphereVerdict:
    """Sphere recognition of the subgraph of G induced on labels, without building it."""
    try:
        return _sphere(G, frozenset(labels), {"contract": {}, "sphere": {}})
    except ResourceLimitError:
        return SphereVerdict("unknown", None, "fast")


def inductive_dimension(G: Graph) -> Fraction:
    """Exact rational inductive dimension: dim(G) = 1 + avg over unit-sphere dims."""
    from fractions import Fraction

    return _dim(G, frozenset(G.labels), {frozenset(): Fraction(-1)})


def poset_dimension_timeline(labels, sieve, signature: dict, top: int) -> list[Fraction]:
    """dim G(n) for n = 0..top, G the divisibility graph on labels closed under division, with no graph built.

    signature maps each label to its sorted exponents.  The unit sphere of x
    in G(n) is the join of its divisors 1 < d < x and its multiples
    x < w <= n, and dim(A * B) = dim A + dim B + 1.  So U(v), the dimension
    of the labels w <= n with v | w, w != v, is 1 + the mean of
    L(w/v) + U(w) + 1 over those w (-1 if none), L(x) being that of the
    divisors 1 < d < x (_interval_dimension), and dim G(n) = U(1).  n
    changes U at its divisors alone: each sum gets the term L(n/v), as
    U(n) = -1, and they are settled from the largest down, each passing its
    change to its own divisors (_settle).
    """
    from fractions import Fraction

    interval = {x: _interval_dimension(key) for x, key in signature.items()}
    mean, total, count = {1: -2}, {1: 0}, {1: 0}  # mean[v] = U(v) - 1 = total[v] / count[v]
    out, dim = [], Fraction(-1)
    for n in labels:
        out += [dim] * (n - len(out))
        divisors = [1, *proper_divisors(n, sieve)]
        mean[n], total[n], count[n] = -2, 0, 0
        for v in divisors:
            total[v] += interval[n // v]
            count[v] += 1
        for i in reversed(range(len(divisors))):
            w = divisors[i]
            _settle(w, [v for v in divisors[:i] if not w % v], mean, total, count)
        dim = mean[1] + 1
    return out + [dim] * (top + 1 - len(out))


@cache
def _interval_dimension(exponents: tuple[int, ...]) -> Fraction:
    """L(x), the dimension of the divisors 1 < d < x of an x with these sorted exponents.

    The sphere of d is the join of the divisors of d and those of x/d, so L(x)
    is 1 + the mean of L(d) + L(x/d) + 1 over the d, or -1 if there is none.
    """
    from fractions import Fraction

    def key(vector):
        return tuple(sorted(filter(None, vector), reverse=True))

    terms = [
        _interval_dimension(key(d)) + _interval_dimension(key(e - k for e, k in zip(exponents, d))) + 1
        for d in product(*(range(e + 1) for e in exponents))
        if any(d) and d != exponents
    ]
    return 1 + Fraction(sum(terms), len(terms)) if terms else Fraction(-1)


def _settle(w: int, below, mean: dict, total: dict, count: dict) -> None:
    """Set mean[w] to total[w] / count[w], a complete sum, and add the change to total[v] for each v in below."""
    new = total[w] / count[w]
    change = new - mean[w]
    mean[w] = new
    for v in below:
        total[v] += change


def _dim(amb: Graph, sub: frozenset, table: dict) -> Fraction:
    """The dimension of sub, memoized in table, which holds the -1 of the empty set."""
    if sub in table:
        return table[sub]
    total = sum(_dim(amb, _link(amb, sub, v), table) for v in sub)
    result = 1 + total / len(sub)
    table[sub] = result
    return result
