import json
import math
from fractions import Fraction

import numpy as np
import pytest

from primetop import (
    FactorSieve,
    Filtration,
    GraphKind,
    build_graph,
    classify_vertex,
    cli,
    critical_counts,
    euler_characteristic,
    induced_subgraph,
    inductive_dimension,
    whitney_complex,
)
from primetop.cohomology import wu_characteristic_bruteforce
from primetop.graphs import cliques

from conftest import betti_rank_oracle, dimension_timeline


def run_main(argv):
    return cli.main(argv)


def test_build_json(capsys):
    assert run_main(["build", "--kind", "prime", "--n", "12", "--format", "json"]) == 0
    line = '{"kind": "prime", "param": 12, "vertices": [2, 3, 5, 6, 7, 10, 11], "edges": [[2, 6], [2, 10], [3, 6], [5, 10]]}'
    assert capsys.readouterr().out == line + "\n"


def test_build_dot_divisor(capsys):
    assert run_main(["build", "--kind", "divisor", "--n", "210", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    node_lines = [l for l in out.splitlines() if l.endswith(";") and "--" not in l]
    assert len(node_lines) == 14


def test_build_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_main(["build", "--kind", "prime", "--n", "1"])
    assert exc.value.code == 2


def test_unknown_check_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_main(["verify", "--checks", "nonsense"])
    assert exc.value.code == 2


def test_table_contents(tmp_path):
    out = tmp_path / "t.csv"
    assert run_main(["table", "--n-max", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30  # header + n in [2, 30]
    header = lines[0].split(",")
    assert header[:3] == ["n", "mertens", "chi"]
    row10 = dict(zip(header, lines[9].split(",")))
    assert row10["n"] == "10" and row10["chi"] == "2" and row10["mertens"] == "-1"
    assert row10["b0"] == "2" and row10["c0"] == "4" and row10["c1"] == "2"
    assert row10["weak"] == "true" and row10["strong"] == "true"


def test_table_determinism_and_cache(tmp_path):
    a, b, c, d = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv"))
    cache = tmp_path / "cache.jsonl"
    assert run_main(["table", "--n-max", "40", "--out", str(a)]) == 0
    assert run_main(["table", "--n-max", "40", "--threads", "3", "--out", str(b)]) == 0
    assert run_main(["table", "--n-max", "40", "--cache", str(cache), "--out", str(c)]) == 0
    assert run_main(["table", "--n-max", "40", "--cache", str(cache), "--out", str(d)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes() == d.read_bytes()
    assert cache.exists() and len(cache.read_text().splitlines()) == 39


def test_table_cache_partial_reuse(tmp_path):
    cache = tmp_path / "cache.jsonl"
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run_main(["table", "--n-max", "20", "--cache", str(cache), "--out", str(out1)]) == 0
    assert run_main(["table", "--n-max", "40", "--cache", str(cache), "--out", str(out2)]) == 0
    # extended run appends only the missing rows
    assert len(cache.read_text().splitlines()) == 39


def test_table_corrupt_cache_truncated(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    out = tmp_path / "o.csv"
    assert run_main(["table", "--n-max", "10", "--cache", str(cache), "--out", str(out)]) == 0
    with open(cache, "a") as fh:
        fh.write('{"kind": "prime", "n": 11, CORRUPT\n')
    out2 = tmp_path / "o2.csv"
    assert run_main(["table", "--n-max", "10", "--cache", str(cache), "--out", str(out2)]) == 0
    assert "truncating corrupt cache" in capsys.readouterr().err
    assert out.read_bytes() == out2.read_bytes()
    # corrupt tail removed from the file
    assert all(json.loads(line) for line in cache.read_text().splitlines())


def test_warm_table_computes_no_filtration_field(tmp_path, monkeypatch):
    import primetop.morse as morse

    cache, cold, warm = tmp_path / "cache.jsonl", tmp_path / "cold.csv", tmp_path / "warm.csv"
    argv = ["table", "--n-max", "120", "--cache", str(cache), "--out"]
    assert run_main(argv + [str(cold)]) == 0
    for name in ("f", "betti", "critical", "events"):
        monkeypatch.setattr(morse.Filtration, name, property(lambda F, name=name: pytest.fail(f"warm table read F.{name}")))
    assert run_main(argv + [str(warm)]) == 0
    assert warm.read_bytes() == cold.read_bytes()


def test_verify_pass_and_exit_codes(capsys):
    assert run_main(["verify", "--checks", "mertens,hopf", "--n-max", "120"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_verify_out_equals_stdout(tmp_path, capsys):
    argv = ["verify", "--checks", "mertens,formulas,kunneth", "--n-max", "60"]
    assert run_main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "verify.txt"
    assert run_main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout and stdout.count("pass") == 3
    # a failing check exits 1 and still writes its line
    failing = ["verify", "--kind", "divisor", "--n-max", "210", "--checks", "formulas"]
    assert run_main(failing) == 1
    stdout = capsys.readouterr().out
    assert run_main(failing + ["--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == stdout and "FAIL" in stdout


def test_verify_kummer(capsys):
    assert run_main(["verify", "--checks", "kummer", "--d", "3", "--n-max", "30"]) == 0
    assert "Divisor(30)" in capsys.readouterr().out


def test_verify_failure_exit(monkeypatch, capsys):
    monkeypatch.setitem(cli.CHECK_FUNCS, "mertens", lambda cfg, F: (False, "first counterexample n=5"))
    assert run_main(["verify", "--checks", "mertens", "--n-max", "10"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_series_dimension(tmp_path, capsys):
    out = tmp_path / "dim.csv"
    assert run_main(["series", "--what", "dimension", "--n-max", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,dim_exact,dim_float"
    first = lines[1].split(",")
    assert first[0] == "6" and first[1] == "3/4"
    assert "fit dim(n)" in capsys.readouterr().err


def test_series_wu(tmp_path):
    out = tmp_path / "wu.csv"
    assert run_main(["series", "--what", "wu", "--n-max", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,wu,chi_scaled"
    for line in lines[1:]:
        _, wu, _ = line.split(",")
        int(wu)  # integers throughout
    assert lines[1] == "2,1,85"


def test_series_wu_over_budget_is_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    # Integer(6000) has 1.08 M simplices; the counted f prices the Wu pass without enumerating one
    def forbidden(*args):
        raise AssertionError("series --what wu enumerated cliques past its budget")

    monkeypatch.setattr(cli, "cliques", forbidden)
    out = tmp_path / "wu.csv"
    assert run_main(["series", "--what", "wu", "--kind", "integer", "--n-max", "6000", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: 61828139 subset terms exceed budget 50000000\n")
    assert not out.exists()


def test_a_classification_error_is_reported_without_a_traceback(monkeypatch, capsys):
    import primetop.morse as morse
    from primetop.topology import SphereVerdict

    monkeypatch.setattr(morse, "sphere_dimension_within", lambda S, W: SphereVerdict("neither", None, "exact"))
    assert run_main(["verify", "--checks", "hopf", "--n-max", "30"]) == 1
    assert capsys.readouterr() == ("", "error: stable sphere of 2 is neither; expected sphere or contractible\n")


def series_from_scratch(kind, n_max, what):
    """The series rows and stderr, with G(n) rebuilt and measured by definition for every n."""
    G = build_graph(GraphKind(kind, n_max), FactorSieve(n_max))

    def G_at(n):
        return induced_subgraph(G, [v for v in G.labels if v <= n])

    if what == "wu":
        rows = ["n,wu,chi_scaled"]
        for n in range(2, n_max + 1):
            K = whitney_complex(G_at(n))
            rows.append(f"{n},{wu_characteristic_bruteforce(K)},{100 - 15 * euler_characteristic(K)}")
        return "\n".join(rows) + "\n", ""
    rows, xs, ys = ["n,dim_exact,dim_float"], [], []
    for n in range(6, n_max + 1):
        d = inductive_dimension(G_at(n))
        rows.append(f"{n},{d.numerator}/{d.denominator},{float(d)!r}")
        xs.append(n)
        ys.append(float(d))
    if len(xs) < 3:
        return "\n".join(rows) + "\n", ""
    a, b, c = fit_by_elimination(xs, ys)
    A = np.column_stack([np.ones(len(xs)), np.array(xs, dtype=float), np.log(np.array(xs, dtype=float))])
    np.testing.assert_allclose((a, b, c), np.linalg.lstsq(A, np.array(ys), rcond=None)[0], rtol=1e-9, atol=0)
    return "\n".join(rows) + "\n", f"# fit dim(n) ~ a + b*n + c*log(n): a={a!r} b={b!r} c={c!r}\n"


def fit_by_elimination(xs, ys):
    """(a, b, c) of ys ~ a + b*x + c*log(x): Gauss-Jordan elimination of the normal equations over Q."""
    rows = [(Fraction(1), Fraction(x), Fraction(math.log(x)), Fraction(y)) for x, y in zip(xs, ys)]
    aug = [[sum(r[i] * r[j] for r in rows) for j in range(4)] for i in range(3)]
    for col in range(3):
        pivot = next(i for i in range(col, 3) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(3):
            if i != col:
                factor = aug[i][col] / aug[col][col]
                aug[i] = [u - factor * v for u, v in zip(aug[i], aug[col])]
    return tuple(float(aug[i][3] / aug[i][i]) for i in range(3))


@pytest.mark.parametrize("kind, n_max", [("prime", 120), ("divisor", 77)])
@pytest.mark.parametrize("what", ["dimension", "wu"])
def test_series_matches_from_scratch(tmp_path, capsys, kind, n_max, what):
    out = tmp_path / "series.csv"
    argv = ["series", "--kind", kind, "--what", what, "--n-max", str(n_max), "--out", str(out)]
    assert run_main(argv) == 0
    assert (out.read_text(), capsys.readouterr().err) == series_from_scratch(kind, n_max, what)


@pytest.mark.parametrize("kind, n_max", [("prime", 700), ("integer", 400), ("divisor", 2310)])
def test_series_dimension_builds_no_graph_and_enumerates_no_clique(tmp_path, capsys, monkeypatch, kind, n_max):
    # the rows come from Filtration.dimension, which reads the divisor poset; the clique pass is the oracle
    import primetop.graphs as graphs
    import primetop.morse as morse

    dims = dimension_timeline(cliques(build_graph(GraphKind(kind, n_max), FactorSieve(n_max))), n_max)
    want = "".join(f"{n},{d.numerator}/{d.denominator},{float(d)!r}\n" for n, d in enumerate(dims) if n >= 6)

    def forbidden(*args):
        raise AssertionError("series --what dimension built a graph or enumerated its cliques")

    for module in (graphs, morse, cli):
        monkeypatch.setattr(module, "build_graph", forbidden)
        monkeypatch.setattr(module, "cliques", forbidden)
    out = tmp_path / "dim.csv"
    assert run_main(["series", "--kind", kind, "--what", "dimension", "--n-max", str(n_max), "--out", str(out)]) == 0
    assert out.read_text() == "n,dim_exact,dim_float\n" + want
    assert capsys.readouterr().err.startswith("# fit dim(n) ~ a + b*n + c*log(n): a=")


@pytest.mark.parametrize("n_max", [5, 6, 7, 8])
def test_dimension_fit_needs_three_rows(tmp_path, capsys, n_max):
    # a + b*n + c*log(n) has three unknowns; the rows start at n = 6
    out = tmp_path / "dim.csv"
    assert run_main(["series", "--what", "dimension", "--n-max", str(n_max), "--out", str(out)]) == 0
    rows, fit = series_from_scratch("prime", n_max, "dimension")
    assert out.read_text() == rows
    assert capsys.readouterr().err == (fit if n_max >= 8 else "")


def test_table_with_records_past_n_max_builds_the_missing_one(tmp_path, capsys):
    # the cache keeps 38 records, more than the 19 of a --n-max 20 run, but not its n = 5
    cache, out, plain = tmp_path / "cache.jsonl", tmp_path / "o.csv", tmp_path / "plain.csv"
    assert run_main(["table", "--n-max", "40", "--cache", str(cache), "--out", str(out)]) == 0
    lines = cache.read_text().splitlines()
    assert json.loads(lines[3])["n"] == 5
    lines[3] = lines[3][:20]
    cache.write_text("".join(line + "\n" for line in lines))
    assert run_main(["table", "--n-max", "20", "--cache", str(cache), "--out", str(out)]) == 0
    assert "truncating corrupt cache line 4" in capsys.readouterr().err
    assert run_main(["table", "--n-max", "20", "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_table_corrupt_middle_line_keeps_both_sides(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    out, out2 = tmp_path / "o.csv", tmp_path / "o2.csv"
    assert run_main(["table", "--n-max", "12", "--cache", str(cache), "--out", str(out)]) == 0
    lines = cache.read_text().splitlines()
    wrong_type = json.loads(lines[7])
    wrong_type["n"] = str(wrong_type["n"])
    damaged = lines[:3] + ['{"kind": "prime", "n": 5, CORRUPT'] + lines[3:7] + [json.dumps(wrong_type)] + lines[8:]
    cache.write_text("\n".join(damaged) + "\n")
    records = cli._load_cache(str(cache), "prime", cli.DEFAULT_FIELD_PRIME)
    assert "truncating corrupt cache line 4" in capsys.readouterr().err
    assert sorted(records) == [n for n in range(2, 13) if n != 9]
    assert cache.read_text().splitlines() == lines[:7] + lines[8:]
    # the next run recomputes only the record that had a wrong field type
    assert run_main(["table", "--n-max", "12", "--cache", str(cache), "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert sorted(json.loads(line)["n"] for line in cache.read_text().splitlines()) == list(range(2, 13))


def test_divisor_cache_serves_only_the_same_m(tmp_path):
    # G(n) of Divisor(m) depends on m: Divisor(30)'s n = 5 row has b0 = 3, Divisor(42)'s has b0 = 2
    cache, out, plain = tmp_path / "cache.jsonl", tmp_path / "t.csv", tmp_path / "plain.csv"
    assert run_main(["table", "--kind", "divisor", "--n-max", "30", "--cache", str(cache), "--out", str(out)]) == 0
    legacy = cache.read_text().replace('"kind":"divisor(30)"', '"kind":"divisor"')  # records keyed without m
    cache.write_text(legacy)
    assert run_main(["table", "--kind", "divisor", "--n-max", "42", "--cache", str(cache), "--out", str(out)]) == 0
    assert run_main(["table", "--kind", "divisor", "--n-max", "42", "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert out.read_text().splitlines()[4].startswith("5,-2,2,2,")
    assert cache.read_text().startswith(legacy)  # kept, never served
    assert {json.loads(line)["kind"] for line in cache.read_text().splitlines()} == {"divisor", "divisor(42)"}
    assert run_main(["table", "--kind", "divisor", "--n-max", "30", "--cache", str(cache), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[4].startswith("5,-2,3,3,")
    assert len(cache.read_text().splitlines()) == 29 + 41 + 29


def test_cache_line_without_newline_is_not_glued_to_the_next(tmp_path):
    cache = tmp_path / "cache.jsonl"
    out = tmp_path / "o.csv"
    assert run_main(["table", "--n-max", "8", "--cache", str(cache), "--out", str(out)]) == 0
    text = cache.read_text()
    cache.write_text(text.rstrip("\n"))
    assert run_main(["table", "--n-max", "10", "--cache", str(cache), "--out", str(out)]) == 0
    assert [json.loads(line)["n"] for line in cache.read_text().splitlines()] == list(range(2, 11))


# the cache line of n = 2 on the prime graph at the default field prime, as the format has it
CACHE_LINE = '{"kind":"prime","n":2,"fvector":[1],"betti":[1],"chi":1,"mertens":0,"critical_counts":[1],"tool_version":"0.1.0","field_prime":2147483647}'


def test_cache_line_is_written_and_read_byte_for_byte(tmp_path, capsys):
    cache, out, plain = tmp_path / "cache.jsonl", tmp_path / "o.csv", tmp_path / "plain.csv"
    assert run_main(["table", "--n-max", "2", "--cache", str(cache), "--out", str(out)]) == 0
    assert cache.read_text() == CACHE_LINE + "\n"
    # the line written by hand is a hit: the run appends nothing and prints what a run without a cache does
    cache.write_text(CACHE_LINE + "\n")
    records = cli._load_cache(str(cache), "prime", cli.DEFAULT_FIELD_PRIME)
    assert records == {2: cli.CacheRecord(**json.loads(CACHE_LINE))}
    assert run_main(["table", "--n-max", "2", "--cache", str(cache), "--out", str(out)]) == 0
    assert run_main(["table", "--n-max", "2", "--out", str(plain)]) == 0
    assert cache.read_text() == CACHE_LINE + "\n" and out.read_bytes() == plain.read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "old, new",
    [
        ('"field_prime":2147483647}', '"field_prime":2147483647,"extra":0}'),
        ('"n":2', '"n":"2"'),
        ('"chi":1', '"chi":true'),
        ('"betti":[1]', '"betti":[1.0]'),
        ('"tool_version":"0.1.0"', '"tool_version":null'),
    ],
)
def test_cache_line_with_an_extra_key_or_a_wrong_type_is_dropped(tmp_path, capsys, old, new):
    cache, out = tmp_path / "cache.jsonl", tmp_path / "o.csv"
    cache.write_text(CACHE_LINE.replace(old, new) + "\n")
    assert run_main(["table", "--n-max", "2", "--cache", str(cache), "--out", str(out)]) == 0
    assert "warning: truncating corrupt cache line 1" in capsys.readouterr().err
    assert cache.read_text() == CACHE_LINE + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--checks", "formulas,morse-strong", "--field-prime", "4"],
        ["verify", "--checks", "formulas", "--field-prime", "2"],
        ["verify", "--checks", "formulas", "--field-prime", str(2**31 + 11)],
        ["table", "--n-max", "10", "--field-prime", "1"],
        ["verify", "--checks", "mertens", "--d", "1"],
        ["verify", "--checks", "mertens", "--d", "0"],
        ["verify", "--checks", "kummer", "--d", "16"],
        ["verify", "--checks", "kummer", "--d", "7"],
        ["verify", "--checks", ""],
        ["verify", "--checks", ","],
        # --cache is read by table alone, --field-prime by table and verify
        ["series", "--cache", "x"],
        ["build", "--n", "5", "--field-prime", "3"],
        ["build", "--n", "5", "--cache", "x"],
        ["verify", "--checks", "mertens", "--cache", "x"],
        ["series", "--what", "wu", "--field-prime", "3"],
    ],
)
def test_invalid_configuration_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "divisor", "--n-max", "35", "--checks", "diameter"],
        ["verify", "--kind", "divisor", "--n-max", "2", "--checks", "mertens,diameter"],
        ["verify", "--kind", "divisor", "--n-max", "35"],  # the default checks include diameter
        # Divisor(2p) is the vertices 2 and p with no edge between them
        ["verify", "--kind", "divisor", "--n-max", "6", "--checks", "diameter"],
        ["verify", "--kind", "divisor", "--n-max", "10", "--checks", "diameter"],
        ["verify", "--kind", "divisor", "--n-max", "14"],
    ],
)
def test_diameter_without_vertex_2_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "vertex 2" in err and "Traceback" not in err


def test_diameter_on_even_divisor_graph(capsys):
    assert run_main(["verify", "--kind", "divisor", "--n-max", "30", "--checks", "diameter"]) == 0
    assert run_main(["verify", "--kind", "divisor", "--n-max", "35", "--checks", "hopf"]) == 0
    assert capsys.readouterr().out.count("pass") == 2


@pytest.mark.parametrize("m", [4, 12, 18])
def test_diameter_on_divisor_graph_joined_at_2(m, capsys):
    # Divisor(4) is the vertex 2 alone; Divisor(12) and Divisor(18) join 2 and 3 through 6
    assert run_main(["verify", "--kind", "divisor", "--n-max", str(m), "--checks", "diameter"]) == 0
    assert capsys.readouterr().out.startswith("diameter: pass")


def test_small_field_prime_accepted(capsys):
    assert run_main(["verify", "--checks", "formulas,morse-strong", "--n-max", "60", "--field-prime", "3"]) == 0
    assert capsys.readouterr().out.count("pass") == 2


def test_sieve_sized_by_primorial_only_for_kummer(monkeypatch, capsys):
    limits = []
    real_sieve = cli.FactorSieve

    def small_sieve(limit):
        limits.append(limit)
        assert limit <= 10**4, f"sieve of {limit} entries"
        return real_sieve(limit)

    monkeypatch.setattr(cli, "FactorSieve", small_sieve)
    assert run_main(["verify", "--checks", "mertens", "--d", "6", "--n-max", "30"]) == 0
    assert run_main(["verify", "--checks", "kummer", "--d", "4", "--n-max", "30"]) == 0
    assert limits == [30, 210]


def test_verify_combined_equals_single_checks(capsys):
    base = ["verify", "--n-max", "60", "--d", "3"]
    assert run_main(base) == 0
    combined = capsys.readouterr().out
    singles = []
    for name in cli.ALL_CHECKS:
        assert run_main(base + ["--checks", name]) == 0
        singles.append(capsys.readouterr().out)
    assert combined == "".join(singles)
    assert len(combined.splitlines()) == len(cli.ALL_CHECKS)


def test_verify_is_lazy(monkeypatch, capsys):
    import primetop.morse as morse

    def forbidden(*args, **kwargs):
        raise AssertionError("not needed by the selected checks")

    monkeypatch.setattr(morse, "cliques", forbidden)
    monkeypatch.setattr(morse, "classify_vertex", forbidden)
    assert run_main(["verify", "--checks", "diameter", "--n-max", "120"]) == 0
    monkeypatch.setattr(cli, "Filtration", forbidden)
    assert run_main(["verify", "--checks", "kummer,kunneth", "--d", "3", "--n-max", "30"]) == 0
    assert capsys.readouterr().out.count("pass") == 3


@pytest.mark.parametrize(
    "kind, n_max, checks",
    [("prime", 2310, "mertens,hopf,morse-strong,formulas,diameter"), ("integer", 520, "mertens,hopf,morse-strong,formulas")],
)
def test_verify_enumerates_no_chain_and_factors_no_signature(monkeypatch, capsys, kind, n_max, checks):
    # f and chi are counted per exponent signature, each label is factored once,
    # and M(n) and pi_k read the sieve's mu and omega
    import primetop.morse as morse

    labels = build_graph(GraphKind(kind, n_max), FactorSieve(n_max)).n_vertices
    calls = {"cliques": 0, "factorization": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(morse, "cliques", counting("cliques", morse.cliques))
    monkeypatch.setattr(FactorSieve, "factorization", counting("factorization", FactorSieve.factorization))
    assert run_main(["verify", "--kind", kind, "--n-max", str(n_max), "--checks", checks]) == 0
    assert capsys.readouterr().out.count(": pass - ") == checks.count(",") + 1
    assert calls == {"cliques": 0, "factorization": labels}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "prime", "--n-max", "2310", "--checks", "mertens,hopf,morse-strong,formulas,diameter"],
        ["verify", "--kind", "integer", "--n-max", "520", "--checks", "mertens,hopf,morse-strong,formulas"],
        ["verify", "--kind", "divisor", "--n-max", "2310", "--checks", "mertens,hopf,morse-strong,formulas,diameter"],
        ["table", "--kind", "prime", "--n-max", "350"],
        ["table", "--kind", "integer", "--n-max", "200"],
    ],
)
def test_verify_and_table_build_no_graph_but_the_stable_spheres(monkeypatch, capsys, argv):
    # every Graph made is the divisor sphere of a representative, one per signature, or a subgraph
    # that sphere recognition takes of one; build_graph never runs
    import primetop.graphs as graphs
    import primetop.morse as morse

    code, out = run_main(argv), capsys.readouterr().out
    made, spheres = [], []
    init, sphere = graphs.Graph.__init__, morse.divisor_sphere

    def recording_init(G, labels, edges):
        init(G, labels, edges)
        made.append(set(G.labels))

    def forbidden(*args):
        raise AssertionError("build_graph ran")

    monkeypatch.setattr(graphs.Graph, "__init__", recording_init)
    monkeypatch.setattr(morse, "divisor_sphere", lambda x, sieve: spheres.append(x) or sphere(x, sieve))
    for module in (graphs, morse, cli):
        monkeypatch.setattr(module, "build_graph", forbidden)
    assert run_main(argv) == code
    assert capsys.readouterr().out == out
    kind, n_max = argv[2], int(argv[4])
    sieve = FactorSieve(n_max)
    labels = graphs.kind_labels(GraphKind(kind, n_max), sieve)
    signatures = {tuple(sorted((e for _, e in sieve.factorization(x)), reverse=True)) for x in labels}
    assert len(spheres) == len(set(spheres)) == len(signatures)
    divisors = [set(graphs.proper_divisors(x, sieve)) for x in spheres]
    assert made and all(any(vertices <= d for d in divisors) for vertices in made)


@pytest.mark.parametrize("kind, n_max", [("prime", 2310), ("integer", 520)])
def test_verify_builds_no_per_vertex_event(monkeypatch, capsys, kind, n_max):
    # the critical counts, the index sums and the integer graph's deformation guard read each
    # signature's representative: one event per sorted exponent signature, none per vertex
    import primetop.morse as morse

    sieve = FactorSieve(n_max)
    labels = build_graph(GraphKind(kind, n_max), sieve).labels
    signatures = {tuple(sorted((e for _, e in sieve.factorization(x)), reverse=True)) for x in labels}
    built, init = [], morse.FiltrationEvent.__init__

    def counting_init(ev, *args, **kwargs):
        built.append(ev)
        init(ev, *args, **kwargs)

    monkeypatch.setattr(morse.FiltrationEvent, "__init__", counting_init)
    assert run_main(["verify", "--kind", kind, "--n-max", str(n_max), "--checks", "hopf,morse-strong,formulas"]) == 0
    assert capsys.readouterr().out.count(": pass - ") == 3
    assert len(built) == len(signatures) < len(labels)


@pytest.mark.parametrize("kind, n_max", [("prime", 300), ("divisor", 210)])
@pytest.mark.parametrize(
    "checks, unused", [("formulas", "_classify"), ("morse-weak,morse-strong", "pi_k_tables")]
)
def test_identity_check_reads_only_its_inputs(monkeypatch, capsys, kind, n_max, checks, unused):
    # H1/H3 need the pi_k tables and no vertex classification; the Morse inequalities the reverse
    import primetop.morse as morse

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{checks} called morse.{unused}")

    argv = ["verify", "--kind", kind, "--n-max", str(n_max), "--checks", checks]
    code = run_main(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(morse, unused, forbidden)
    assert run_main(argv) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "kind, sweep, prefix",
    [("integer", "Integer(n <= 30)", "Integer(2)"), ("divisor", "Divisor(30) at n <= 30", "Divisor(30) at 2")],
)
def test_checks_name_the_graph_of_their_kind(monkeypatch, capsys, kind, sweep, prefix):
    argv = ["verify", "--kind", kind, "--n-max", "30", "--checks"]
    assert run_main(argv + ["witten"]) == 0
    assert capsys.readouterr().out == f"witten: pass - deformed kernels independent of s on {sweep}\n"
    # a prefix on which Morse and simplicial cohomology disagree is named by its kind too
    monkeypatch.setattr(cli, "_corpus_small_graphs", lambda: [])
    monkeypatch.setattr(cli, "morse_betti", lambda M, field_prime: ())
    assert run_main(argv + ["morse-equiv"]) == 1
    assert capsys.readouterr().out == f"morse-equiv: FAIL - {prefix} disagrees\n"


def test_default_field_prime_is_proven_once(monkeypatch):
    # parse_config trusts the default and proves only a value given on the command line
    assert 3 <= cli.DEFAULT_FIELD_PRIME <= 2**31 - 1 and cli._is_odd_prime(cli.DEFAULT_FIELD_PRIME)
    proved = []
    real = cli._is_odd_prime
    monkeypatch.setattr(cli, "_is_odd_prime", lambda p: proved.append(p) or real(p))
    cli.parse_config(["verify", "--checks", "mertens"])
    cli.parse_config(["table", "--n-max", "10"])
    assert proved == []
    cli.parse_config(["verify", "--checks", "mertens", "--field-prime", "7"])
    assert proved == [7]


def test_diameter_at_scale(capsys):
    # the certificates settle every join, so this takes well under a second
    assert run_main(["verify", "--kind", "prime", "--checks", "diameter", "--n-max", "20000"]) == 0
    assert capsys.readouterr().out == "diameter: pass - component diameter <= 5 for 4 <= n <= 20000\n"


# Divisor(7) has no vertex, so no row to transpose, and Divisor(4) one
@pytest.mark.parametrize("kind, n_max", [("prime", 60), ("integer", 40), ("divisor", 210), ("divisor", 7), ("divisor", 4)])
def test_table_records_match_from_scratch_oracle(tmp_path, kind, n_max):
    cache = tmp_path / "cache.jsonl"
    assert run_main(["table", "--kind", kind, "--n-max", str(n_max), "--cache", str(cache), "--out", str(tmp_path / "t.csv")]) == 0
    sieve = FactorSieve(n_max)
    G = build_graph(GraphKind(kind, n_max), sieve)
    events = [classify_vertex(G, x, sieve) for x in G.labels]
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert [rec["n"] for rec in records] == list(range(2, n_max + 1))
    for rec in records:
        K = whitney_complex(induced_subgraph(G, [v for v in G.labels if v <= rec["n"]]))
        assert rec["fvector"] == list(K.f_vector), rec
        assert rec["betti"] == list(betti_rank_oracle(K)), rec
        assert rec["chi"] == sum((-1) ** k * v for k, v in enumerate(K.f_vector)), rec
        assert rec["critical_counts"] == critical_counts(events, rec["n"]), rec
    # the verdict columns are the Filtration's verdicts, h1 reading true below n = 4
    F = Filtration(GraphKind(kind, n_max), FactorSieve(n_max))
    rows = [line.split(",")[-4:] for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
    (weak, strong), (h1, *h3) = F.morse_inequalities, F.formulas
    assert rows == [
        [cli._bool(x) for x in (weak[n], strong[n], h1[n], all(row[n] for row in h3))] for n in range(2, n_max + 1)
    ]


def test_table_divisor_without_small_vertices(tmp_path):
    # Divisor(35) has no vertex <= 4, so the first rows have an empty Betti vector
    out = tmp_path / "t.csv"
    assert run_main(["table", "--kind", "divisor", "--n-max", "35", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:4] for row in rows[:4]] == [["2", "0", "0", "0"], ["3", "-1", "0", "0"], ["4", "-1", "0", "0"], ["5", "-2", "1", "1"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--n", "100", "--sieve-limit", "50"],
        ["table", "--n-max", "100", "--sieve-limit", "99"],
        ["verify", "--checks", "mertens", "--n-max", "100", "--sieve-limit", "50"],
        ["series", "--what", "wu", "--n-max", "100", "--sieve-limit", "0"],
        ["verify", "--checks", "mertens", "--n-max", "100", "--sieve-limit", "100"],
    ],
)
def test_sieve_limit_is_no_option(argv, capsys):
    # the sieve is sized from --n-max (and --d for kummer), at any --sieve-limit
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --sieve-limit" in capsys.readouterr().err
