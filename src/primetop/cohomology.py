"""Whitney complexes, boundary operators, exact Betti numbers, Hodge blocks.

Every Betti number comes from one column reduction with clearing
(_betti_changes) and one witness, _verified_betti, which runs it over GF(p)
(default p = 2^31 - 1) and by exact fraction-free integer elimination at
every size, then checks Euler-Poincare; any disagreement raises.
betti_numbers is its case with one key.  On a divisibility graph both passes
of morse.Filtration reduce the prime complex Delta(n), not the simplices.
Timelines are lists of array('q') rows, indexed [k][n].  Floating point appears
only in the Hodge/Witten spectral cross-checks and in the Lefschetz
supertrace, each of which has an exact counterpart elsewhere in the package;
only those functions, and the Wu oracle, import numpy; the np.ndarray
annotations are strings that nothing evaluates.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial
from itertools import accumulate, combinations
from math import gcd
from operator import add, itemgetter, sub

from .errors import InvalidArgumentError, RankDiscrepancyError, ResourceLimitError
from .graphs import Graph, cliques

DEFAULT_FIELD_PRIME = 2**31 - 1
DEFAULT_DENSE_BUDGET = 6000
DEFAULT_WU_BUDGET = 50_000_000
HODGE_TOL = 1e-8
WITTEN_TOL = 1e-6

Column = dict[int, int]


class _Record:
    """Equality and repr by the fields named in __slots__, as a dataclass has them.

    Defining __eq__ leaves a record unhashable, as a mutable dataclass is,
    unless its class sets __hash__ = _Record._hash, the hash of a frozen one.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class SimplicialComplex:
    """Simplices grouped by dimension, each an ascending vertex tuple."""

    def __init__(self, simplices_by_dim: list[list[tuple[int, ...]]]):
        self.simplices = tuple(tuple(dim) for dim in simplices_by_dim)

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(dim) for dim in self.simplices)

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    @property
    def total(self) -> int:
        return sum(self.f_vector)

    def all_simplices(self):
        for dim in self.simplices:
            yield from dim

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector})"


class ChainComplex(_Record):
    """Sparse boundary matrices; boundaries[k] maps k-chains to (k-1)-chains.

    Each matrix is a list of columns (one per k-simplex); a column maps the
    row position of a face to the sign (-1)^i of the omitted vertex.
    """

    __slots__ = ("shapes", "boundaries")

    def __init__(self, shapes: list[tuple[int, int]], boundaries: list[list[Column]]):
        self.shapes, self.boundaries = shapes, boundaries

    def dense(self, k: int) -> np.ndarray:
        """Boundary matrix of dimension k as a dense int64 array."""
        import numpy as np

        rows, cols = self.shapes[k - 1]
        out = np.zeros((rows, cols), dtype=np.int64)
        for j, col in enumerate(self.boundaries[k - 1]):
            for i, v in col.items():
                out[i, j] = v
        return out


def whitney_complex(G: Graph) -> SimplicialComplex:
    """Clique complex of G."""
    return SimplicialComplex(cliques(G))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of the f-vector."""
    return sum((-1) ** k * v for k, v in enumerate(K.f_vector))


def boundary_matrices(K: SimplicialComplex) -> ChainComplex:
    """Boundary operators with ascending-vertex orientation."""
    shapes = []
    boundaries = []
    for k in range(1, K.dim + 1):
        rows = {s: j for j, s in enumerate(K.simplices[k - 1])}
        boundaries.append([{rows[face]: sign for face, sign in _faces(s)} for s in K.simplices[k]])
        shapes.append((len(K.simplices[k - 1]), len(K.simplices[k])))
    return ChainComplex(shapes=shapes, boundaries=boundaries)


def _faces(s: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """(face, sign) pairs of the simplex s: the face without s[i] has sign (-1)^i."""
    return [(s[:i] + s[i + 1 :], -1 if i % 2 else 1) for i in range(len(s))]


# --- rank engines -----------------------------------------------------------


def reduce_gf(col: Column, pivots: dict[int, Column], p: int) -> int | None:
    """Reduce col over GF(p), in place, against pivots keyed by their largest row.

    A column that survives is scaled to leading entry 1, stored as the pivot of
    its largest row, and that row is returned; a column that empties out is
    dependent on the pivots and gives None.
    """
    for i in [i for i, v in col.items() if not v % p]:
        del col[i]
    while col:
        r = max(col)
        piv = pivots.get(r)
        if piv is None:
            if col[r] != 1:
                inv = pow(col[r], p - 2, p)
                for i in col:
                    col[i] = col[i] * inv % p
            pivots[r] = col
            return r
        c = col[r]
        for i, v in piv.items():
            nv = (col.get(i, 0) - c * v) % p
            if nv:
                col[i] = nv
            else:
                del col[i]
    return None


def reduce_exact(col: Column, pivots: dict[int, Column]) -> int | None:
    """Reduce col over the rationals, in place, by fraction-free integer elimination.

    Same contract as reduce_gf: a surviving column, divided by the gcd of its
    entries, becomes the pivot of its largest row, which is returned.
    """
    for i in [i for i, v in col.items() if not v]:
        del col[i]
    while col:
        g = gcd(*col.values())
        if g > 1:
            for i in col:
                col[i] //= g
        r = max(col)
        piv = pivots.get(r)
        if piv is None:
            pivots[r] = col
            return r
        g = gcd(piv[r], col[r])
        ma, mb = piv[r] // g, col[r] // g
        if ma != 1:
            for i in col:
                col[i] *= ma
        for i, v in piv.items():
            nv = col.get(i, 0) - mb * v
            if nv:
                col[i] = nv
            else:
                del col[i]
    return None


def rank_gf(columns: list[Column], p: int) -> int:
    """Rank over GF(p) by sparse column elimination (pivot = largest row)."""
    pivots: dict[int, Column] = {}
    return sum(reduce_gf(dict(col), pivots, p) is not None for col in columns)


def rank_exact(columns: list[Column]) -> int:
    """Exact rank over the rationals via fraction-free integer elimination."""
    pivots: dict[int, Column] = {}
    return sum(reduce_exact(dict(col), pivots) is not None for col in columns)


class BettiVector(_Record):
    """Betti numbers over GF(field_prime); verified_rational records the exact rational witness."""

    __slots__ = ("b", "field_prime", "verified_rational")
    __hash__ = _Record._hash

    def __init__(self, b: tuple[int, ...], field_prime: int, verified_rational: bool):
        self.b, self.field_prime, self.verified_rational = b, field_prime, verified_rational

    def __iter__(self):
        return iter(self.b)

    def __getitem__(self, k: int) -> int:
        return self.b[k] if 0 <= k < len(self.b) else 0


def _betti_changes(order, key, faces, reduce) -> list[Counter]:
    """{key: change of b_k} for each k, of the complex whose k-cells are order[k].

    key(s) is the filtration key of the cell s and faces(s) its boundary as
    (face, sign) pairs.  Dimensions are reduced from the top down, each in
    its given order.  A column that reduces to zero creates a class, else it
    kills the class of its pivot row one dimension down.  A cell already the
    pivot row of a column one dimension up would reduce to zero, so its
    column is skipped (cleared), a creation at its key: the twist of Chen
    and Kerber.  The changes of dimension k sum to b_k; when each order[k] is
    sorted by key, those up to n sum to b_k of the cells with keys <= n.
    """
    changes = [Counter() for _ in order]
    above: dict[int, Column] = {}
    for dim in reversed(range(len(order))):
        rows = {s: j for j, s in enumerate(order[dim - 1])} if dim else {}
        pivots: dict[int, Column] = {}
        for j, s in enumerate(order[dim]):
            if j in above:
                changes[dim][key(s)] += 1
                continue
            col = {rows[face]: sign for face, sign in faces(s)} if dim else {}
            if reduce(col, pivots) is None:
                changes[dim][key(s)] += 1
            else:
                changes[dim - 1][key(s)] -= 1
        above = pivots
    return changes


def betti_numbers(K: SimplicialComplex, field_prime: int = DEFAULT_FIELD_PRIME) -> BettiVector:
    """b_k over GF(field_prime), witnessed by _verified_betti with every simplex at key 0.

    A disagreement raises RankDiscrepancyError so the caller can retry with a
    different prime.
    """
    b = _verified_betti(_one_key(K), [[len(dim)] for dim in K.simplices], 0, field_prime)
    return BettiVector(b=tuple(row[0] for row in b), field_prime=field_prime, verified_rational=True)


def _cumulative(marks, width: int, top: int) -> list[array]:
    """Rows t[k][n] for k < width and n = 0..top: t[k][n] sums the c of every mark (k, m, c) with m <= n."""
    rows = [_zeros(top) for _ in range(width)]
    for k, m, c in marks:
        rows[k][m] += c
    for k, row in enumerate(rows):
        rows[k] = array("q", accumulate(row))
    return rows


def _marks(counters):
    """The marks (k, m, c) of counters[k][m] = c, for _cumulative."""
    return ((k, m, c) for k, counts in enumerate(counters) for m, c in counts.items())


def _zeros(top: int) -> array:
    """The timeline 0 for n = 0..top."""
    return array("q", bytes(8 * (top + 1)))


def _f_vector(simplices, top: int) -> list[array]:
    """f[k][n] = number of k-simplices whose top vertex is at most n, for n = 0..top."""
    f = _cumulative(((k, s[-1], 1) for k, dim in enumerate(simplices) for s in dim), len(simplices), top)
    while f and not any(f[-1]):
        f.pop()
    return f


def _chi(f, top: int) -> array:
    """chi(n) for n = 0..top, the alternating sum over k of the cumulative f-vector."""
    chi = _zeros(top)
    for k, row in enumerate(f):
        chi = array("q", map(sub if k % 2 else add, chi, row))
    return chi


def _betti_timeline(complex_, top: int, reduce) -> list[array]:
    """b[k][n] for n = 0..top of complex_ = (cells, key, faces): the cumulative sum of _betti_changes over keys."""
    changes = _betti_changes(*complex_, reduce)
    return _cumulative(_marks(changes), len(changes), top)


def _one_key(K: SimplicialComplex):
    """(cells, key, faces) of K with every simplex at key 0, for a timeline of the one column n = 0."""
    return K.simplices, lambda s: 0, _faces


def _simplicial(simplices):
    """(cells, key, faces) of the simplices for _verified_betti: each dimension sorted by top vertex, the key."""
    return [sorted(dim, key=itemgetter(-1)) for dim in simplices], itemgetter(-1), _faces


def _verified_betti(complex_, f, top: int, field_prime: int, certificate=None) -> list[array]:
    """b_k(n) over GF(field_prime) for n = 0..top, with an exact rational witness at every n.

    complex_ is the (cells, key, faces) of a filtered complex, each cells[k]
    sorted by key, whose homology at every n is that of the complex with the
    cumulative f-vector f.  Both passes reduce it: over GF(field_prime), and
    by exact integer elimination.  certificate, when given, is a third
    timeline [k][n], found without elimination.  All must agree at every n; a
    dimension of f that cells lacks reads as zeros, and Euler-Poincare
    against f is checked for every n.  A disagreement raises
    RankDiscrepancyError naming the first failing n.
    """
    b = _betti_timeline(complex_, top, partial(reduce_gf, p=field_prime))
    _first_mismatch(b, _betti_timeline(complex_, top, reduce_exact), field_prime, "exact rational rank")
    if certificate is not None:
        _first_mismatch(b, certificate, field_prime, "Bjorner's matching")
    b += [_zeros(top) for _ in range(len(f) - len(b))]
    _first_mismatch([_chi(b, top)], [_chi(f, top)], field_prime, "Euler-Poincare")
    return b


def _first_mismatch(got, want, field_prime: int, what: str) -> None:
    """Raise RankDiscrepancyError at the first n where the timelines got[k][n] and want[k][n] differ."""
    for n, (g, w) in enumerate(zip(zip(*got), zip(*want))):
        if g != w:
            message = f"Betti numbers over GF({field_prime}) disagree with {what} first at n={n}"
            raise RankDiscrepancyError(message, field_prime)


# --- spectral cross-checks --------------------------------------------------


def _derivative_dense(K: SimplicialComplex, chain: ChainComplex, k: int) -> np.ndarray:
    """Exterior derivative d_k: k-forms -> (k+1)-forms, as a dense float array."""
    import numpy as np

    if k + 1 > K.dim:
        return np.zeros((0, K.f_vector[k] if k <= K.dim else 0))
    return chain.dense(k + 1).T.astype(float)


def _laplacian_block(ds: list[np.ndarray], k: int) -> np.ndarray:
    """L_k = d_k^* d_k + d_{k-1} d_{k-1}^* from the derivatives ds[0..k]."""
    lk = ds[k].T @ ds[k]
    if k >= 1:
        lk = lk + ds[k - 1] @ ds[k - 1].T
    return lk


def _nullity(mat: np.ndarray, tol: float) -> int:
    import numpy as np

    if mat.shape[0] == 0:
        return 0
    eigs = np.linalg.eigvalsh(mat)
    cutoff = tol * max(1.0, float(eigs[-1]))
    return int(np.sum(eigs < cutoff))


def _check_dense_limit(K: SimplicialComplex) -> None:
    if K.total > DEFAULT_DENSE_BUDGET:
        raise ResourceLimitError(f"{K.total} simplices exceed dense budget {DEFAULT_DENSE_BUDGET}")


def hodge_nullity(K: SimplicialComplex, k: int) -> int:
    """Nullity of the Hodge block L_k = d_k^* d_k + d_{k-1} d_{k-1}^*, at tolerance HODGE_TOL."""
    _check_dense_limit(K)
    if k > K.dim or k < 0:
        return 0
    chain = boundary_matrices(K)
    return _nullity(_laplacian_block([_derivative_dense(K, chain, j) for j in range(k + 1)], k), HODGE_TOL)


def simplex_function(K: SimplicialComplex, f: dict[int, float]) -> list[np.ndarray]:
    """Extend a vertex function to all simplices by taking the max vertex value."""
    import numpy as np

    return [np.array([max(f[v] for v in s) for s in dim], dtype=float) for dim in K.simplices]


def witten_nullity(K: SimplicialComplex, f: dict[int, float], s: float) -> list[int]:
    """Nullities of all blocks of the deformed Laplacian (e^{-sf} d e^{sf}), at tolerance WITTEN_TOL.

    The kernel dimensions are independent of s; that contract is what the
    cross-checks assert.
    """
    import numpy as np

    _check_dense_limit(K)
    for v in K.simplices[0] if K.simplices else []:
        if v[0] not in f:
            raise InvalidArgumentError(f"f undefined on vertex {v[0]}")
    if not K.simplices:
        return []
    chain = boundary_matrices(K)
    fs = simplex_function(K, f)
    deformed = []
    for k in range(K.dim + 1):
        dk = _derivative_dense(K, chain, k)
        if dk.shape[0]:
            dk = np.exp(-s * fs[k + 1])[:, None] * dk * np.exp(s * fs[k])[None, :]
        deformed.append(dk)
    return [_nullity(_laplacian_block(deformed, k), WITTEN_TOL) for k in range(K.dim + 1)]


# --- Wu characteristic ------------------------------------------------------


def wu_characteristic(K: SimplicialComplex) -> int:
    """Sum of (-1)^(dim x + dim y) over ordered pairs of intersecting simplices.

    Computed exactly through the common-face expansion
        sum_S (-1)^(|S|+1) W(S)^2,   W(S) = sum_{x >= S} (-1)^dim(x),
    where S runs over nonempty simplices; inclusion-exclusion over the shared
    vertex set makes this linear in the number of (simplex, subset) pairs.
    """
    return wu_timeline(K.simplices, max((x[-1] for x in K.all_simplices()), default=0))[-1]


def wu_timeline(simplices, top: int) -> list[int]:
    """wu_characteristic of K(n), the simplices whose largest vertex is at most n, for n = 0..top.

    One running pass within DEFAULT_WU_BUDGET (simplex, face) pairs.
    Simplices enter by largest vertex; each simplex x adds (-1)^dim(x) to W(S)
    for every nonempty face S, which changes the total by (-1)^(|S|+1) times
    the change in W(S)^2.
    """
    order = sorted((x for dim in simplices for x in dim), key=lambda x: x[-1])
    work = sum((2 ** len(x) - 1) for x in order)
    if work > DEFAULT_WU_BUDGET:
        raise ResourceLimitError(f"{work} subset terms exceed budget {DEFAULT_WU_BUDGET}")
    weight: dict[tuple[int, ...], int] = {}
    delta = [0] * (top + 1)
    for x in order:
        sign = -1 if (len(x) - 1) % 2 else 1
        m = len(x)
        for mask in range(1, 2**m):
            sub = tuple(x[i] for i in range(m) if mask >> i & 1)
            w = weight.get(sub, 0)
            weight[sub] = w + sign
            delta[x[-1]] += (1 if len(sub) % 2 else -1) * (2 * w * sign + 1)
    return list(accumulate(delta))


def wu_characteristic_bruteforce(K: SimplicialComplex) -> int:
    """Literal ordered-pair enumeration; quadratic, used as an oracle."""
    import numpy as np

    sims = list(K.all_simplices())
    column = {v: j for j, v in enumerate(sorted({v for s in sims for v in s}))}
    incidence = np.zeros((len(sims), len(column)), dtype=np.float32)
    for i, s in enumerate(sims):
        incidence[i, [column[v] for v in s]] = 1
    meets = (incidence @ incidence.T > 0).astype(np.int64)  # meets[i, j]: simplices i and j share a vertex
    sign = np.array([(-1) ** (len(s) - 1) for s in sims], dtype=np.int64)
    return int(sign @ meets @ sign)


# --- Lefschetz numbers ------------------------------------------------------


def _perm_sign(values: list[int]) -> int:
    """Parity of the permutation sorting the given distinct values."""
    return -1 if sum(a > b for a, b in combinations(values, 2)) % 2 else 1


def _automorphism_matrices(K: SimplicialComplex, T: dict[int, int]) -> list[np.ndarray]:
    """Signed permutation matrices of the induced chain map, one per dimension."""
    import numpy as np

    mats = []
    for dim in K.simplices:
        position = {s: j for j, s in enumerate(dim)}
        U = np.zeros((len(dim), len(dim)))
        for j, s in enumerate(dim):
            image = [T[v] for v in s]
            i = position.get(tuple(sorted(image)))
            if i is None:
                raise InvalidArgumentError(f"T does not map simplex {s} to a simplex")
            U[i, j] = _perm_sign(image)
        mats.append(U)
    return mats


def lefschetz_number(K: SimplicialComplex, T: dict[int, int]) -> tuple[int, int]:
    """(supertrace of the induced map on cohomology, fixed-simplex Brouwer sum).

    The first entry projects the chain map onto harmonic representatives
    (kernels of the Hodge blocks) and supertraces it; the second sums
    (-1)^dim(x) sign(T|x) over setwise-fixed simplices.  The two agree for
    every simplicial automorphism.
    """
    import numpy as np

    _check_dense_limit(K)
    for s in K.all_simplices():
        if any(v not in T for v in s):
            raise InvalidArgumentError("T is not defined on every vertex")
    mats = _automorphism_matrices(K, T)
    if not K.simplices:
        return (0, 0)
    chain = boundary_matrices(K)
    ds = [_derivative_dense(K, chain, k) for k in range(K.dim + 1)]
    supertrace = 0.0
    for k in range(K.dim + 1):
        lk = _laplacian_block(ds, k)
        if lk.shape[0] == 0:
            continue
        eigs, vecs = np.linalg.eigh(lk)
        cutoff = HODGE_TOL * max(1.0, float(eigs[-1]))
        harmonic = vecs[:, eigs < cutoff]
        supertrace += (-1) ** k * float(np.trace(harmonic.T @ mats[k] @ harmonic))
    brouwer = 0
    for k, dim in enumerate(K.simplices):
        for s in dim:
            image = [T[v] for v in s]
            if tuple(sorted(image)) == s:
                brouwer += (-1) ** k * _perm_sign(image)
    return (int(round(supertrace)), brouwer)
