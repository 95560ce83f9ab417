"""Checks of primetop's CLI output made apart from the package.

Nothing here imports primetop: the arithmetic comes from sympy's factorization,
the graphs from networkx, and the dimension and Wu characteristic from their
literal definitions.  Each check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction

import networkx as nx
from sympy import factorint

BETTI_COLUMNS = 7
TABLE_HEADER = (
    ["n", "mertens", "chi"]
    + [f"b{k}" for k in range(BETTI_COLUMNS)]
    + [f"c{k}" for k in range(BETTI_COLUMNS)]
    + ["weak", "strong", "h1", "h3"]
)


class Counting:
    """Moebius, Mertens and squarefree prime-factor counts for 0..n, via sympy."""

    def __init__(self, n: int):
        self.n = n
        self.mu = [0] * (n + 1)
        self.nu = [0] * (n + 1)  # number of prime factors, 0 when not squarefree
        for m in range(1, n + 1):
            exps = factorint(m).values()
            if all(e == 1 for e in exps):
                self.mu[m] = (-1) ** len(exps)
                self.nu[m] = len(exps)
        self.mertens = [0] * (n + 1)
        for m in range(1, n + 1):
            self.mertens[m] = self.mertens[m - 1] + self.mu[m]

    def squarefree(self, m: int) -> bool:
        return self.mu[m] != 0

    def cumulative(self, k: int, odd: bool = False) -> list[int]:
        """A[x] = squarefree m <= x with exactly k prime factors (all odd if odd)."""
        out = [0] * (self.n + 1)
        for m in range(2, self.n + 1):
            out[m] = out[m - 1] + (self.nu[m] == k and bool(m % 2 or not odd))
        return out


def prime_graph(counting: Counting, n: int) -> nx.Graph:
    """Squarefree integers 2..n, joined when one divides the other."""
    G = nx.Graph()
    vertices = [m for m in range(2, n + 1) if counting.squarefree(m)]
    G.add_nodes_from(vertices)
    G.add_edges_from((a, b) for a in vertices for b in vertices if a < b and b % a == 0)
    return G


def inductive_dimension(G: nx.Graph) -> Fraction:
    """dim(empty) = -1; dim(G) = 1 + mean over vertices of dim(unit sphere)."""
    memo: dict[frozenset, Fraction] = {}

    def dim(nodes: frozenset) -> Fraction:
        if not nodes:
            return Fraction(-1)
        if nodes not in memo:
            total = sum((dim(frozenset(G.adj[v]) & nodes) for v in nodes), Fraction(0))
            memo[nodes] = 1 + total / len(nodes)
        return memo[nodes]

    return dim(frozenset(G.nodes))


def wu_characteristic(G: nx.Graph) -> int:
    """Sum of (-1)^(dim x + dim y) over ordered pairs of intersecting simplices."""
    index = {v: i for i, v in enumerate(G.nodes)}
    simplices = []
    for clique in nx.enumerate_all_cliques(G):
        mask = 0
        for v in clique:
            mask |= 1 << index[v]
        simplices.append((mask, -1 if len(clique) % 2 == 0 else 1))
    return sum(sx * sy for x, sx in simplices for y, sy in simplices if x & y)


def _rows(text: str, header: list[str], first: int, last: int) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0].split(",") != header:
        return [], [f"header is not {','.join(header)}"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(n) for n in range(first, last + 1)]:
        return [], [f"rows do not run from n={first} to n={last}"]
    if any(len(r) != len(header) for r in rows):
        return [], ["a row has the wrong number of cells"]
    return rows, []


def check_table(text: str, n_max: int, counting: Counting) -> list[str]:
    """The prime-kind table against the paper's identities, computed apart."""
    rows, problems = _rows(text, TABLE_HEADER, 2, n_max)
    if problems:
        return problems
    pi1 = counting.cumulative(1)
    pi_odd = {k: counting.cumulative(k + 1, odd=True) for k in (1, 2, 3)}
    pi_c = [counting.cumulative(m + 1) for m in range(BETTI_COLUMNS)]
    for row in rows:
        n = int(row[0])
        try:
            mertens, chi = int(row[1]), int(row[2])
            b = [int(x) for x in row[3 : 3 + BETTI_COLUMNS]]
            c = [int(x) for x in row[3 + BETTI_COLUMNS : 3 + 2 * BETTI_COLUMNS]]
        except ValueError:
            problems.append(f"n={n}: a count is not an integer")
            continue
        flags = row[3 + 2 * BETTI_COLUMNS :]
        if mertens != counting.mertens[n]:
            problems.append(f"n={n}: mertens {mertens} != M(n) = {counting.mertens[n]}")
        if chi != 1 - counting.mertens[n]:
            problems.append(f"n={n}: chi {chi} != 1 - M(n)")
        if n >= 4 and b[0] != 1 + pi1[n] - pi1[n // 2]:
            problems.append(f"n={n}: b0 {b[0]} != 1 + pi(n) - pi(n/2)")
        for k in (1, 2, 3):
            if b[k] != pi_odd[k][n] - pi_odd[k][n // 2]:
                problems.append(f"n={n}: b{k} {b[k]} != pi_{k + 1}(n, odd) - pi_{k + 1}(n/2, odd)")
        for m in range(BETTI_COLUMNS):
            if c[m] != pi_c[m][n]:
                problems.append(f"n={n}: c{m} {c[m]} != squarefree <= n with {m + 1} prime factors")
        if sum((-1) ** k * x for k, x in enumerate(b)) != chi:
            problems.append(f"n={n}: alternating Betti sum != chi")
        if flags != ["true"] * 4:
            problems.append(f"n={n}: check columns {flags} are not all true")
    return problems


def check_same(output: str, reference: str, what: str) -> list[str]:
    """Byte-for-byte equality with an output that passed its checks."""
    return [] if output == reference else [f"output differs from the {what}"]


def check_verify(stdout: str, returncode: int, checks: list[str], n_max: int) -> list[str]:
    """Exit status 0 and one pass line per selected check, naming n_max."""
    problems = [] if returncode == 0 else [f"exit status {returncode}"]
    lines = stdout.split("\n")
    if lines[-1] != "" or len(lines) != len(checks) + 1:
        return problems + [f"expected {len(checks)} newline-terminated lines"]
    for name, line in zip(checks, lines):
        if not line.startswith(f"{name}: pass - ") or not re.search(rf"(?<!\d){n_max}(?!\d)", line):
            problems.append(f"line {line!r} is not a pass of {name} up to {n_max}")
    return problems


def check_dimension_series(text: str, n_max: int, counting: Counting, sample: list[int]) -> list[str]:
    """dim_float is the value of dim_exact; sampled n recomputed by definition."""
    rows, problems = _rows(text, ["n", "dim_exact", "dim_float"], 6, n_max)
    if problems:
        return problems
    exact = {}
    for n, dim_exact, dim_float in rows:
        if not re.fullmatch(r"-?\d+/\d+", dim_exact):
            problems.append(f"n={n}: dim_exact {dim_exact!r} is not p/q")
            continue
        exact[int(n)] = Fraction(dim_exact)
        if dim_float != repr(float(exact[int(n)])):
            problems.append(f"n={n}: dim_float {dim_float} != {dim_exact}")
    for n in sample:
        want = inductive_dimension(prime_graph(counting, n))
        if exact.get(n) != want:
            problems.append(f"n={n}: dim_exact {exact.get(n)} != {want} by definition")
    return problems


def check_wu_series(text: str, n_max: int, counting: Counting, sample: list[int]) -> list[str]:
    """chi_scaled = 100 - 15(1 - M(n)); sampled Wu values by literal enumeration."""
    rows, problems = _rows(text, ["n", "wu", "chi_scaled"], 2, n_max)
    if problems:
        return problems
    wu = {}
    for n, w, chi_scaled in rows:
        n = int(n)
        wu[n] = w
        if chi_scaled != str(100 - 15 * (1 - counting.mertens[n])):
            problems.append(f"n={n}: chi_scaled {chi_scaled} != 100 - 15(1 - M(n))")
    for n in sample:
        want = wu_characteristic(prime_graph(counting, n))
        if wu[n] != str(want):
            problems.append(f"n={n}: wu {wu[n]} != {want} by enumeration")
    return problems
