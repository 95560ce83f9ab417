"""Command-line surface: build/table/verify/series, with table's JSONL result cache in cache.

All outputs are byte-deterministic for a fixed configuration: rows are
assembled in ascending n, floats are printed with repr, exact rationals as
"p/q", and booleans as lowercase true/false.  `--threads` is accepted and
ignored; every command runs in one thread.  numpy is imported only by the
spectral checks (witten, and the Lefschetz step of kummer), through
cohomology; fractions only by the exact dimensions (series --what dimension,
its fit, and the kunneth check); json only by the cache and build --format
json.  So launching the CLI loads none of them.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from itertools import chain, zip_longest
from operator import and_

from . import __version__
from .arithmetic import FactorSieve, primorial
from .cache import CacheRecord, _append_cache, _load_cache
from .cohomology import (
    DEFAULT_FIELD_PRIME,
    betti_numbers,
    check_wu_budget,
    euler_characteristic,
    hodge_nullity,
    lefschetz_number,
    whitney_complex,
    witten_nullity,
    wu_timeline,
)
from .errors import ClassificationError, RankDiscrepancyError, ResourceLimitError
from .graphs import (
    DIVISIBILITY_KINDS,
    Graph,
    GraphKind,
    build_graph,
    cliques,
    complete_graph,
    components,
    cycle_graph,
    graph_product,
    induced_subgraph,
    kummer_involution,
    verify_component_diameter_bound,
)
from .morse import Filtration, barycentric_morse_complex, betti_formulas, morse_betti, morse_inequality_check
from .topology import inductive_dimension, sphere_dimension

BETTI_COLUMNS = 7  # b0..b6 and c0..c6 in report CSVs

ALL_CHECKS = (
    "mertens",
    "hopf",
    "morse-weak",
    "morse-strong",
    "diameter",
    "formulas",
    "morse-equiv",
    "kummer",
    "kunneth",
    "witten",
)


def _output(config: argparse.Namespace):
    """The --out file opened for writing, or stdout, as a context manager."""
    return open(config.output_path, "w", encoding="utf-8") if config.output_path else nullcontext(sys.stdout)


def _write_out(config: argparse.Namespace, text: str) -> None:
    with _output(config) as out:
        out.write(text)


def _bool(x) -> str:
    return "true" if x else "false"


# --- build -------------------------------------------------------------------


def cmd_build(config: argparse.Namespace) -> int:
    sieve = FactorSieve(config.n_max)
    kind = GraphKind(config.kind, config.n_max)
    G = build_graph(kind, sieve)
    if config.format == "json":
        import json

        data = {"kind": kind.name, "param": kind.param, "vertices": G.labels, "edges": G.edges()}
        text = json.dumps(data, separators=(", ", ": ")) + "\n"
    elif config.format == "dot":
        text = G.to_dot()
    else:
        lines = ["a,b"] + [f"{a},{b}" for a, b in G.edges()]
        text = "\n".join(lines) + "\n"
    _write_out(config, text)
    return 0


# --- table -------------------------------------------------------------------


def _table_row(rec: CacheRecord, weak: int, strong: int, h1: int, h3: int) -> str:
    cells = [str(rec.n), str(rec.mertens), str(rec.chi)]
    cells += [str(x) for x in (rec.betti + [0] * BETTI_COLUMNS)[:BETTI_COLUMNS]]
    cells += [str(x) for x in (rec.critical_counts + [0] * BETTI_COLUMNS)[:BETTI_COLUMNS]]
    cells += [_bool(x) for x in (weak, strong, h1, h3)]
    return ",".join(cells)


def _trimmed(column: list[int]) -> list[int]:
    while column and not column[-1]:
        column.pop()
    return column


def cmd_table(config: argparse.Namespace) -> int:
    n_max = config.n_max
    sieve = FactorSieve(n_max)
    F = Filtration(GraphKind(config.kind, n_max), sieve, config.field_prime)
    # G(n) of Divisor(m) depends on m, so its records are keyed by m too
    kind = f"divisor({n_max})" if config.kind == "divisor" else config.kind
    cached = _load_cache(config.cache_path, kind, config.field_prime) if config.cache_path else {}
    fresh = {}
    # if some n of this run is not cached, one transpose of the timelines: n, its f, Betti and critical column
    if any(n not in cached for n in range(2, n_max + 1)):
        nf, nb = len(F.f), len(F.betti)
        for n, *column in zip(range(n_max + 1), *F.f, *F.betti, *F.critical):
            if n >= 2 and n not in cached:
                fvector = _trimmed(column[:nf])
                fresh[n] = CacheRecord(
                    kind=kind,
                    n=n,
                    fvector=fvector,
                    betti=column[nf : nf + nb][: len(fvector)],
                    chi=F.chi[n],
                    mertens=F.mertens[n],
                    critical_counts=_trimmed(column[nf + nb :]),
                    tool_version=__version__,
                    field_prime=config.field_prime,
                )
    if config.cache_path and fresh:
        _append_cache(config.cache_path, list(fresh.values()))
    header = (
        ["n", "mertens", "chi"]
        + [f"b{k}" for k in range(BETTI_COLUMNS)]
        + [f"c{k}" for k in range(BETTI_COLUMNS)]
        + ["weak", "strong", "h1", "h3"]
    )
    records = [cached.get(n) or fresh[n] for n in range(2, n_max + 1)]
    # the records' vectors as rows [k][i], zero past a vector's end
    b = list(zip_longest(*(rec.betti for rec in records), fillvalue=0))
    c = list(zip_longest(*(rec.critical_counts for rec in records), fillvalue=0))
    weak, strong = morse_inequality_check(b, c, len(records))
    h1, *h3 = betti_formulas([rec.n for rec in records], F.pi, b)
    lines = [",".join(header)] + list(map(_table_row, records, weak, strong, h1, map(min, *h3)))
    _write_out(config, "\n".join(lines) + "\n")
    return 0


# --- verify ------------------------------------------------------------------


def _corpus_small_graphs(count: int = 60, seed: int = 5) -> list[Graph]:
    """Seeded random connected graphs on at most 7 vertices."""
    import random

    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        k = rng.randint(2, 7)
        vs = list(range(1, k + 1))
        edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.55]
        G = Graph(vs, edges)
        if len(components(G)) == 1:
            out.append(G)
    return out


def _first(row: bytes) -> int:
    """The first n >= 2 at which a verdict row over n = 0..n_max reads 0, the identity failing, or -1."""
    return row.find(0, 2)


def _prefix_name(config: argparse.Namespace, n: int | str) -> str:
    """The name of G(n), the --kind graph on its labels up to n: Prime(n), Integer(n) or Divisor(m) at n."""
    if config.kind == "divisor":
        return f"Divisor({config.n_max}) at {n}"
    return f"{config.kind.capitalize()}({n})"


def check_mertens(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    n = _first(F.mertens_euler)
    if n >= 0:
        return False, f"first counterexample n={n}"
    return True, f"chi(G(n)) = 1 - M(n) for 2 <= n <= {config.n_max}"


def check_hopf(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    index, total = F.poincare_hopf
    n = _first(bytes(map(and_, index, total)))
    if n >= 0:
        return False, f"first counterexample n={n} ({'sum != chi' if index[n] else 'index != -mu'})"
    return True, f"indices sum to chi and equal -mu up to n={config.n_max}"


def _morse_sweep(config: argparse.Namespace, F: Filtration, which: int) -> tuple[bool, str]:
    """The weak (which = 0) or strong (which = 1) Morse inequalities at every n."""
    n = _first(F.morse_inequalities[which])
    if n >= 0:
        return False, f"first counterexample n={n}"
    return True, f"inequalities hold for 2 <= n <= {config.n_max}"


def check_diameter(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    bad = verify_component_diameter_bound(F.kind, F.sieve, config.n_max, bound=5, anchor=2)
    if bad is not None:
        return False, f"first counterexample n={bad}"
    return True, f"component diameter <= 5 for 4 <= n <= {config.n_max}"


def check_formulas(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    for k, row in enumerate(F.formulas):
        n = _first(row)
        if n >= 0:
            return False, f"H3(k={k}) fails first at n={n}" if k else f"H1 fails first at n={n}"
    return True, f"b0 and odd-tuple formulas hold up to n={config.n_max}"


def check_morse_equiv(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    G = F.G
    corpus = ((f"corpus graph with {H.n_vertices} vertices", H) for H in _corpus_small_graphs())
    top = min(config.n_max, 120)
    prefixes = (
        (_prefix_name(config, n), induced_subgraph(G, [v for v in G.labels if v <= n])) for n in range(2, top + 1)
    )
    for name, H in chain(corpus, prefixes):
        got = morse_betti(barycentric_morse_complex(H), field_prime=config.field_prime)
        if got != betti_numbers(whitney_complex(H), field_prime=config.field_prime).b:
            return False, f"{name} disagrees"
    return True, "Morse cohomology equals simplicial cohomology on the corpus"


def check_kummer(config: argparse.Namespace, F: Filtration | None) -> tuple[bool, str]:
    m = primorial(config.d)
    sieve = FactorSieve(m)
    D = build_graph(GraphKind.divisor(m), sieve)
    verdict = sphere_dimension(D)
    want_dim = config.d - 2
    if not (verdict.is_sphere and verdict.dim == want_dim):
        return False, f"Divisor({m}) not recognized as a {want_dim}-sphere"
    K = whitney_complex(D)
    b = betti_numbers(K, field_prime=config.field_prime).b
    expected = tuple([1] + [0] * (want_dim - 1) + [1]) if want_dim >= 1 else (2,)
    if tuple(b) != expected:
        return False, f"Divisor({m}) Betti {b} != {expected}"
    perm = kummer_involution(m, sieve)
    st, br = lefschetz_number(K, perm)
    if (st, br) != (0, 0):
        return False, f"Lefschetz numbers {(st, br)} != (0, 0)"
    return True, f"Divisor({m}): sphere dim {want_dim}, betti {tuple(b)}, duality ok, involution ok, lefschetz (0, 0)"


def check_kunneth(config: argparse.Namespace, F: Filtration | None) -> tuple[bool, str]:
    corpus = {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K3": complete_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
    }
    # (chi, Betti vector, inductive dimension) of each factor, built once
    laws = {}
    for name, A in corpus.items():
        K = whitney_complex(A)
        b = betti_numbers(K, field_prime=config.field_prime).b
        laws[name] = euler_characteristic(K), b, inductive_dimension(A)
    for name_g, A in corpus.items():
        chi_a, ba, dim_a = laws[name_g]
        for name_h, B in corpus.items():
            chi_b, bb, dim_b = laws[name_h]
            P = graph_product(A, B)
            KP = whitney_complex(P)
            if euler_characteristic(KP) != chi_a * chi_b:
                return False, f"chi fails on {name_g} x {name_h}"
            bp = betti_numbers(KP, field_prime=config.field_prime).b
            conv = [0] * (len(ba) + len(bb) - 1)
            for i, x in enumerate(ba):
                for j, y in enumerate(bb):
                    conv[i + j] += x * y
            got = list(bp) + [0] * (len(conv) - len(bp))
            if got[: len(conv)] != conv or any(got[len(conv) :]):
                return False, f"Kunneth fails on {name_g} x {name_h}"
            if inductive_dimension(P) < dim_a + dim_b:
                return False, f"dimension superadditivity fails on {name_g} x {name_h}"
    return True, "product laws hold on the pair corpus"


def check_witten(config: argparse.Namespace, F: Filtration) -> tuple[bool, str]:
    G = F.G
    top = min(config.n_max, 60)
    for n in range(2, top + 1):
        sub = induced_subgraph(G, [v for v in G.labels if v <= n])
        K = whitney_complex(sub)
        if not K.f_vector:
            continue
        base = [hodge_nullity(K, k) for k in range(K.dim + 1)]
        f = {v: v / n for v in sub.labels}
        for s in (0.0, 0.5, 1.0):
            if witten_nullity(K, f, s) != base:
                return False, f"kernel moved at n={n}, s={s}"
    return True, f"deformed kernels independent of s on {_prefix_name(config, f'n <= {top}')}"


CHECK_FUNCS = {
    "mertens": check_mertens,
    "hopf": check_hopf,
    "morse-weak": lambda cfg, F: _morse_sweep(cfg, F, 0),
    "morse-strong": lambda cfg, F: _morse_sweep(cfg, F, 1),
    "diameter": check_diameter,
    "formulas": check_formulas,
    "morse-equiv": check_morse_equiv,
    "kummer": check_kummer,
    "kunneth": check_kunneth,
    "witten": check_witten,
}


# checks that never read the filtration, which is then not built at all
GRAPH_FREE_CHECKS = frozenset({"kummer", "kunneth"})


def cmd_verify(config: argparse.Namespace) -> int:
    F = None
    if not GRAPH_FREE_CHECKS.issuperset(config.checks):
        sieve = FactorSieve(config.n_max)
        F = Filtration(GraphKind(config.kind, config.n_max), sieve, config.field_prime)
    all_ok = True
    with _output(config) as out:
        for name in config.checks:
            ok, detail = CHECK_FUNCS[name](config, F)
            all_ok &= ok
            print(f"{name}: {'pass' if ok else 'FAIL'} - {detail}", file=out)
    return 0 if all_ok else 1


# --- series ------------------------------------------------------------------


def _scaled(values) -> tuple[list[int], int]:
    """Floats as integers over one common power-of-two denominator, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios], den


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def fit_dimension(xs: list[int], ys: list[float]) -> tuple[float, float, float]:
    """The least-squares (a, b, c) of ys ~ a + b*x + c*log(x), solved exactly and rounded once.

    Every float is a dyadic rational, so with each column scaled to integers
    (1, x, log(x) over its denominator d_j; ys over d) the normal equations
    M z = r are integer, z_j = c_j * d / d_j, and Cramer's rule solves them
    exactly.  float(Fraction) rounds each coefficient correctly, so the fit
    depends on no floating-point summation order or linear-algebra library.
    """
    from fractions import Fraction

    cols = [([1] * len(xs), 1), (xs, 1), _scaled([math.log(x) for x in xs])]
    y, d = _scaled(ys)
    M = [[sum(p * q for p, q in zip(ci, cj)) for cj, _ in cols] for ci, _ in cols]
    r = [sum(p * q for p, q in zip(ci, y)) for ci, _ in cols]
    det = _det3(M)
    replaced = ([row[:j] + [r[i]] + row[j + 1 :] for i, row in enumerate(M)] for j in range(3))
    a, b, c = (float(Fraction(_det3(Mj) * dj, det * d)) for Mj, (_, dj) in zip(replaced, cols))
    return a, b, c


def cmd_series(config: argparse.Namespace) -> int:
    sieve = FactorSieve(config.n_max)
    F = Filtration(GraphKind(config.kind, config.n_max), sieve)
    # each series is computed before --out is opened, and each row written as it is made
    if config.what == "wu":
        # refused from the counted f before any clique is enumerated
        check_wu_budget(row[-1] for row in F.f)
        wu, chi = wu_timeline(cliques(F.G), F.top), F.chi
        with _output(config) as out:
            out.write("n,wu,chi_scaled\n")
            out.writelines(f"{n},{wu[n]},{100 - 15 * chi[n]}\n" for n in range(2, F.top + 1))
        return 0
    dims, xs, ys = F.dimension, [], []
    with _output(config) as out:
        out.write("n,dim_exact,dim_float\n")
        for n in range(6, F.top + 1):
            d = dims[n]
            xs.append(n)
            ys.append(float(d))
            out.write(f"{n},{d.numerator}/{d.denominator},{ys[-1]!r}\n")
    # three unknowns: with fewer rows the fit would be a guess
    if len(xs) >= 3:
        a, b, c = fit_dimension(xs, ys)
        print(f"# fit dim(n) ~ a + b*n + c*log(n): a={a!r} b={b!r} c={c!r}", file=sys.stderr)
    return 0


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="primetop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kind", choices=DIVISIBILITY_KINDS, default="prime")
        p.add_argument("--threads", type=int, help="accepted and ignored")
        p.add_argument("--out", dest="output_path", default=None)

    b = sub.add_parser("build", help="write one graph in json/dot/csv form")
    common(b)
    b.add_argument("--n", dest="n_max", metavar="N", type=int, required=True)
    b.add_argument("--format", choices=["json", "dot", "csv"], default="json")

    t = sub.add_parser("table", help="per-n invariants and checks as CSV")
    common(t)
    t.add_argument("--field-prime", type=int, default=DEFAULT_FIELD_PRIME)
    t.add_argument("--cache", dest="cache_path", default=None)
    t.add_argument("--n-max", type=int, default=250)

    v = sub.add_parser("verify", help="run verification sweeps")
    common(v)
    v.add_argument("--field-prime", type=int, default=DEFAULT_FIELD_PRIME)
    v.add_argument("--n-max", type=int, default=250)
    v.add_argument("--checks", default=",".join(ALL_CHECKS))
    v.add_argument("--d", type=int, default=4)

    s = sub.add_parser("series", help="per-n data series as CSV")
    common(s)
    s.add_argument("--n-max", type=int, default=259)
    s.add_argument("--what", choices=["dimension", "wu"], default="dimension")
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """The parsed arguments, validated, with checks split into a tuple of names; a bad value exits 2."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # DEFAULT_FIELD_PRIME is proven prime by the tests, not on every launch
    if "field_prime" in args and args.field_prime != DEFAULT_FIELD_PRIME:
        if not (3 <= args.field_prime <= 2**31 - 1 and _is_odd_prime(args.field_prime)):
            parser.error("--field-prime must be a prime in [3, 2^31 - 1]")
    if args.n_max < 2:
        parser.error("--n must be at least 2" if args.command == "build" else "--n-max must be at least 2")
    if args.command == "verify":
        names = tuple(x for x in args.checks.split(",") if x)
        if not names:
            parser.error("--checks names no check")
        for name in names:
            if name not in CHECK_FUNCS:
                parser.error(f"unknown check {name!r}")
        # Divisor(m) lacks the vertex 2 for odd m and m = 2; Divisor(2p) is 2 and p, unjoined
        m = args.n_max
        if "diameter" in names and args.kind == "divisor" and (m % 2 or m == 2 or _is_odd_prime(m // 2)):
            parser.error(f"the diameter check is anchored at vertex 2, which Divisor({m}) lacks or leaves isolated")
        args.checks = names
        # Divisor(primorial(6)) has 4,682 simplices, within the dense budget
        # of the Lefschetz check; primorial(7) has 47,292
        if not 2 <= args.d <= 6:
            parser.error("--d must be in [2, 6]")
    return args


def _is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))


def main(argv=None) -> int:
    config = parse_config(argv)
    handler = {"build": cmd_build, "table": cmd_table, "verify": cmd_verify, "series": cmd_series}
    try:
        return handler[config.command](config)
    except (RankDiscrepancyError, ResourceLimitError, ClassificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
