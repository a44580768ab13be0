"""Checks the CLI makes before it reports: the modular cross-check of the
Hilbert function, the rank == p + q cross-check of a Hermitian form, and
argument ranges refused before any work starts."""

import json
import math
import tracemalloc

import pytest

from macaulay import binom, hermitian, oracle, poly
from macaulay.cli import main
from macaulay.hermitian import GaussianRational, biform_from_terms, format_biform, zero_biform
from macaulay.poly import RANK_PRIMES, GradedIdeal, format_ideal, graded_piece_dim, variable

Z1 = GradedIdeal(2, (variable(0, 2),))


@pytest.fixture
def z1_file(tmp_path):
    path = tmp_path / "z1.json"
    path.write_text(format_ideal(Z1))
    return str(path)


def hilbert_table(capsys, *argv):
    assert main(["--format", "structured", "hilbert", *argv]) == 0
    return json.loads(capsys.readouterr().out)["outputs"]["h_ideal"]


def test_modular_checked_raises_when_no_prime_agrees(capsys, monkeypatch, z1_file):
    exact = [graded_piece_dim(Z1, d) for d in range(4)]
    assert exact == [0, 1, 2, 3]
    true_rank_mod_prime = poly.rank_mod_prime
    monkeypatch.setattr(poly, "rank_mod_prime", lambda rows, p: true_rank_mod_prime(rows, p) + 1)
    for d in range(4):
        with pytest.raises(ArithmeticError):
            graded_piece_dim(Z1, d, mode="modular-checked")
    assert main(["hilbert", z1_file, "--d-max", "3", "--mode", "modular-checked"]) == 3
    assert capsys.readouterr().out == ""
    # the exact mode never reads a modular rank
    assert [graded_piece_dim(Z1, d) for d in range(4)] == exact
    assert hilbert_table(capsys, z1_file, "--d-max", "3") == exact


@pytest.fixture
def imaginary_form_file(tmp_path):
    """i*z1*conj(z2) - i*z2*conj(z1): rank 2, signature (1, 1), and so is
    its product with |z|^2, a 3 x 3 matrix with no zero row."""
    i = GaussianRational(0, 1)
    path = tmp_path / "b.json"
    path.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (0, 1), i), ((0, 1), (1, 0), -i)])))
    return str(path)


def test_internal_fault_exits_3(capsys, monkeypatch, imaginary_form_file):
    assert main(["--format", "structured", "hermitian", imaginary_form_file]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert (outputs["rank"], outputs["product_rank"], outputs["norm_power_rank"]) == (2, 2, 2)
    # a Gaussian rank off by one no longer equals p + q from the congruence kernel
    true_rank = poly._gaussian_rank
    monkeypatch.setattr(poly, "_gaussian_rank", lambda rows: true_rank(rows) + 1)
    assert main(["hermitian", imaginary_form_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: rank 3 of the form differs from p + q = 2\n"


def test_wrong_product_rank_exits_3_where_the_power_is_the_product(capsys, monkeypatch, imaginary_form_file):
    true_rank = poly._gaussian_rank
    monkeypatch.setattr(poly, "_gaussian_rank", lambda rows: true_rank(rows) - (len(rows) == 3))
    for argv in ([], ["--s", "2", "--t", "0", "--l", "1"]):
        assert main(["hermitian", imaginary_form_file, *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: rank 1 of the product differs from p + q = 2\n"


def test_modular_checked_needs_one_agreeing_prime(capsys, monkeypatch, z1_file):
    true_rank_mod_prime = poly.rank_mod_prime
    seen = []

    def unlucky_first_prime(rows, p):
        seen.append(p)
        return true_rank_mod_prime(rows, p) - (p == RANK_PRIMES[0])

    monkeypatch.setattr(poly, "rank_mod_prime", unlucky_first_prime)
    assert graded_piece_dim(Z1, 2, mode="modular-checked") == 2
    assert seen == list(RANK_PRIMES[:2])
    assert hilbert_table(capsys, z1_file, "--d-max", "3", "--mode", "modular-checked") == [0, 1, 2, 3]


@pytest.mark.parametrize("argv", [
    ["verify", "{f}", "--d-max", "1"],
    ["verify", "{f}", "--d-max", "0"],
    ["verify", "{f}", "--d-max", "1", "--mode", "modular-checked"],
    ["corpus", "--d-max", "1"],
    ["corpus", "--d-max", "-3"],
    ["hilbert", "{f}", "--d-max", "-1"],
])
def test_no_verdict_over_an_empty_check(capsys, monkeypatch, z1_file, argv):
    monkeypatch.setattr(poly, "parse_ideal", lambda text: pytest.fail("read the ideal file"))
    assert main([a.format(f=z1_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --d-max must be >= ")


def test_smallest_d_max_that_checks_something(capsys, z1_file):
    for argv, key, count in (
        (["verify", z1_file, "--d-max", "2"], "checks", 1),
        (["hilbert", z1_file, "--d-max", "0"], "degrees", 1),
    ):
        assert main(["--format", "structured", *argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["outputs"][key]) == count
    assert main(["--format", "structured", "corpus", "--d-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["growth_bounds"] == "ok"


BAD_SIGNED_NORMS = [
    (biform_from_terms(1, 1, [((1,), (1,), 1)]), []),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--s", "3", "--t", "-1"]),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--s", "-1", "--t", "3"]),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--s", "1", "--t", "0"]),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--s", "2", "--t", "1"]),
    (zero_biform(2, 1), ["--s", "3", "--t", "-1"]),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--s", "1"]),
    (biform_from_terms(2, 1, [((1, 0), (1, 0), 1)]), ["--t", "1"]),
]


@pytest.mark.parametrize("form, argv", BAD_SIGNED_NORMS)
def test_hermitian_validates_before_any_elimination(capsys, monkeypatch, tmp_path, form, argv):
    path = tmp_path / "b.json"
    path.write_text(format_biform(form))
    calls = []
    for name in ("biform_signature", "biform_rank"):
        monkeypatch.setattr(hermitian, name, lambda f, name=name: calls.append(name))
    assert main(["hermitian", str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["bridge", "1", "5"],
    ["bridge", "5", "0"],
    ["lemma-scan", "--m-max", "0"],
    ["lemma-scan", "--s-max", "0"],
    ["lemma-scan", "--d-max", "-3"],
    ["min-sos", "{f}", "--l-max", "0"],
])
def test_no_scan_verdict_over_an_empty_range(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "zero.json"
    path.write_text(format_biform(zero_biform(2, 1)))
    for module, name in ((poly, "bridge_identity_check"), (binom, "scan_split_shift_identity"),
                         (binom, "_split_failures"), (poly, "_split_failures"), (hermitian, "parse_biform")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    assert main([a.format(f=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_smallest_scan_ranges_that_check_something(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])))
    for argv, verdict in (
        (["bridge", "2", "1"], "identity"),
        (["lemma-scan", "--m-max", "1", "--d-max", "1", "--s-max", "1"], "identity"),
        (["min-sos", str(path), "--l-max", "1"], "search"),
    ):
        assert main(["--format", "structured", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"][verdict] == "ok"


@pytest.mark.parametrize("probe", [["0", "3"], ["1", "2"], ["3", "0"], ["2", "-1"]])
def test_corpus_refuses_an_empty_lex_probe_before_any_work(capsys, monkeypatch, probe):
    monkeypatch.setattr(oracle, "random_corpus", lambda spec: pytest.fail("generated the corpus"))
    monkeypatch.setattr(poly, "verify_macaulay", lambda *args, **kwargs: pytest.fail("verified an ideal"))
    assert main(["corpus", "--d-max", "2", "--lex-probe", *probe]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --lex-probe needs N >= 2 and D >= 1")


def test_smallest_lex_probe_still_reports(capsys):
    assert main(["--format", "structured", "corpus", "--d-max", "2", "--draws", "1", "--lex-probe", "2", "1"]) == 0
    probe = json.loads(capsys.readouterr().out)["outputs"]["lex_probe"]
    assert (probe["n_vars"], probe["degree"], probe["total"]) == (2, 1, 2)


@pytest.mark.parametrize(
    "terms, error",
    [
        ([("0", [0, 0])], "zero polynomial is not a valid generator"),
        ([("1", [0, 0]), ("-1", [0, 0])], "zero polynomial is not a valid generator"),
        ([("2", [0, 0])], "degree-0 generator defines the unit ideal; not supported"),
    ],
    ids=["zero-constant", "cancelled-constant", "nonzero-constant"],
)
def test_a_constant_generator_is_refused_as_zero_or_as_the_unit_ideal(capsys, tmp_path, terms, error):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"n_vars": 2, "generators": [[{"coeff": c, "exponents": e} for c, e in terms]]}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "{f}"], "growth bounds need at least 2 variables"),
        (["corpus", "--n-min", "1", "--n-max", "1"], "corpus verification needs at least 2 variables"),
    ],
    ids=["verify", "corpus"],
)
def test_one_variable_is_refused_before_any_graded_piece(capsys, monkeypatch, tmp_path, argv, error):
    """The growth bounds read the (n-1)-th representation; in one variable
    there is none, so the refusal comes before any work that it would void."""
    path = tmp_path / "z1-squared.json"
    path.write_text(format_ideal(GradedIdeal(1, (poly.monomial_poly((2,)),))))
    monkeypatch.setattr(poly, "graded_piece_dim", lambda *args, **kwargs: pytest.fail("built a graded piece"))
    monkeypatch.setattr(oracle, "random_corpus", lambda spec: pytest.fail("generated the corpus"))
    assert main([a.format(f=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("fault", [KeyError((5, 1)), IndexError("list index out of range")])
def test_lookup_fault_inside_a_command_exits_3(capsys, monkeypatch, fault):
    """A failed lookup in a kernel is a bug, not bad input: exit 3, not 2."""
    assert main(["bridge", "4", "4"]) == 0
    capsys.readouterr()

    def broken(*args):
        raise fault

    monkeypatch.setattr(poly, "_split_failures", broken)
    assert main(["bridge", "4", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {fault}\n"


@pytest.mark.parametrize("command", ["hermitian", "min-sos"])
def test_an_oversized_biform_is_refused_before_its_basis_is_built(capsys, monkeypatch, tmp_path, command):
    """C(39, 20), about 6.9e10 basis monomials, asked for in 37 bytes."""
    path = tmp_path / "big.json"
    path.write_text('{"n_vars": 20, "d": 20, "terms": []}')
    monkeypatch.setattr(hermitian, "monomials_of_degree", lambda *args: pytest.fail("built a basis"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a biform of degree 20 in 20 variables has {math.comb(39, 20)} basis monomials,"
        f" over {hermitian.MAX_BIFORM_DIM}\n"
    )


@pytest.mark.parametrize(
    "command, n_vars, d, fault",
    [("hermitian", 1001, 0, "n_vars = 1001"), ("min-sos", 1, 1001, "d = 1001"),
     ("hermitian", 100000, 100000, "n_vars = 100000")],
)
def test_too_many_variables_or_too_high_a_degree_is_refused_before_the_basis_size(
    capsys, monkeypatch, tmp_path, command, n_vars, d, fault
):
    """One basis monomial at d = 0 or n_vars = 1, but one with n_vars
    exponents or of degree d; at 10^5 and 10^5, C(199999, 100000) has more
    digits than Python converts to text by default."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n_vars": n_vars, "d": d, "terms": []}))
    monkeypatch.setattr(math, "comb", lambda *args: pytest.fail("computed the basis size"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {fault} is over {hermitian.MAX_BIFORM_DIM}\n"


def test_the_largest_allowed_biform_basis_gets_built(monkeypatch):
    """C(n + 2, 2) for 3 variables: 990 monomials at d = 43, 1035 at d = 44."""
    class Built(Exception):
        pass

    def build(n_vars, d):
        raise Built(math.comb(n_vars - 1 + d, d))

    monkeypatch.setattr(hermitian, "monomials_of_degree", build)
    assert math.comb(45, 43) <= hermitian.MAX_BIFORM_DIM < math.comb(46, 44)
    with pytest.raises(Built, match="^990$"):
        hermitian.parse_biform('{"n_vars": 3, "d": 43, "terms": []}')
    with pytest.raises(Built, match="^1000$"):
        hermitian.parse_biform('{"n_vars": 2, "d": 999, "terms": []}')
    with pytest.raises(ValueError, match="has 1035 basis monomials"):
        hermitian.parse_biform('{"n_vars": 3, "d": 44, "terms": []}')


def _diagonal_document(n_vars, d, *squares):
    """The biform document of the sum of c * |z^alpha|^2 over the (c, alpha) given."""
    terms = [{"alpha": a, "beta": a, "coeff": {"re": c, "im": "0"}} for c, a in squares]
    return json.dumps({"n_vars": n_vars, "d": d, "terms": terms})


@pytest.mark.parametrize("terms", [[("1", [2, 0, 0])], []])
def test_a_norm_power_over_the_size_limit_is_refused_before_any_product(capsys, monkeypatch, tmp_path, terms):
    """|z1^2|^2 in 3 variables, or the zero form: C(2 + 2 + l, 2) basis
    monomials in the power, 1176 at l = 45."""
    path = tmp_path / "b.json"
    path.write_text(_diagonal_document(3, 2, *terms))
    monkeypatch.setattr(hermitian, "multiply_signed_norm", lambda *args: pytest.fail("built a product"))
    limit = hermitian.MAX_BIFORM_DIM
    for l, error in [
        ("45", f"at l = 45, the norm power of degree 47 in 3 variables has 1176 basis monomials, over {limit}"),
        ("1001", f"l = 1001 is not in [1, {limit}]"),
        (str(10 ** 4000), f"l = {10 ** 4000} is not in [1, {limit}]"),  # no basis size is computed
    ]:
        assert main(["hermitian", str(path), "--l", l]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


def test_the_last_admitted_norm_power_gets_past_the_size_check(monkeypatch):
    """C(n + 2, 2) for 3 variables: the power of |z1^2|^2 has 990 monomials
    at l = 41, 1035 at l = 42; in 2 variables the power of |z1|^2 has
    exactly 1000 at l = 998."""
    class Built(Exception):
        pass

    def build(form, norm):
        raise Built

    form = hermitian.parse_biform(_diagonal_document(3, 2, ("1", [2, 0, 0])))
    monkeypatch.setattr(hermitian, "multiply_signed_norm", build)
    assert math.comb(45, 2) <= hermitian.MAX_BIFORM_DIM < math.comb(46, 2)
    with pytest.raises(Built):
        hermitian.hermitian_report(form, (3, 0), 41)
    with pytest.raises(ValueError, match="^at l = 42, .* has 1035 basis monomials"):
        hermitian.hermitian_report(form, (3, 0), 42)
    form = hermitian.parse_biform(_diagonal_document(2, 1, ("1", [1, 0])))
    with pytest.raises(Built):
        hermitian.hermitian_report(form, (1, 1), 998)
    with pytest.raises(ValueError, match="^at l = 999, .* has 1001 basis monomials"):
        hermitian.hermitian_report(form, (1, 1), 999)


def test_min_sos_refuses_the_first_norm_power_over_the_size_limit(capsys, monkeypatch, tmp_path):
    """In 10 variables at d = 3 the power has 715 basis monomials at
    l = 1 and 2002 at l = 2.  |z1^3|^2 - |z2^3|^2 is no sum of squares
    at l = 1, so the search refuses l = 2; |z1^3|^2 is one at l = 1, so a
    search past the limit still answers."""
    multiply = hermitian.multiply_signed_norm

    def bounded(form, norm):
        if math.comb(form.n_vars + form.half_degree, form.n_vars - 1) > hermitian.MAX_BIFORM_DIM:
            pytest.fail("built a power over the size limit")
        return multiply(form, norm)

    monkeypatch.setattr(hermitian, "multiply_signed_norm", bounded)
    z1, z2 = [3] + [0] * 9, [0, 3] + [0] * 8
    split = tmp_path / "split.json"
    split.write_text(_diagonal_document(10, 3, ("1", z1), ("-1", z2)))
    assert main(["--format", "structured", "min-sos", str(split), "--l-max", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["min_power"] is None
    assert main(["min-sos", str(split), "--l-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: at l = 2, the norm power of degree 5 in 10 variables has 2002 basis monomials,"
        f" over {hermitian.MAX_BIFORM_DIM}\n"
    )
    assert hermitian.find_min_sos_exponent(hermitian.parse_biform(_diagonal_document(10, 3, ("1", z1))), 5) == 1


def test_min_sos_bounds_the_norm_power_in_one_variable(capsys, monkeypatch, tmp_path):
    """-|z1|^2 is no sum of squares at any power, and in one variable
    every power has one basis monomial, so only the bound on l ends the
    search: it answers up to l = 1000 and refuses l = 1001 after the
    1000 products below it."""
    multiply = hermitian.multiply_signed_norm
    built = []

    def counted(form, norm):
        built.append(form.half_degree + 1)
        return multiply(form, norm)

    monkeypatch.setattr(hermitian, "multiply_signed_norm", counted)
    path = tmp_path / "negative.json"
    path.write_text(_diagonal_document(1, 1, ("-1", [1])))
    limit = hermitian.MAX_BIFORM_DIM
    assert main(["--format", "structured", "min-sos", str(path), "--l-max", str(limit)]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["min_power"] is None
    for l_max in (limit + 1, 10 ** 9):
        built.clear()
        assert main(["min-sos", str(path), "--l-max", str(l_max)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: l = {limit + 1} is not in [1, {limit}]\n"
        assert len(built) == limit and built[-1] == limit + 1


def test_parsing_a_biform_costs_a_few_references_per_matrix_cell():
    """A document with no terms still fills a dim x dim matrix: 231
    monomials at n = 3, d = 20, 53361 cells.  Reading the cells as two
    lists of parts, with the lcm over the distinct denominators, peaks at
    about 42 bytes a cell, against 105 for an (re, im) tuple a cell."""
    poly.monomials_of_degree(3, 20)
    tracemalloc.start()
    try:
        hermitian.parse_biform('{"n_vars": 3, "d": 20, "terms": []}')
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 231 ** 2 < 64
