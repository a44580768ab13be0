"""End-to-end tests of the command-line interface and its report format."""

import argparse
import json
import os
import shutil
from fractions import Fraction

import pytest

from macaulay import cli, hermitian
from macaulay.cli import Report, build_parser, main
from macaulay.hermitian import GaussianRational, HermitianBiform, biform_from_terms, format_biform, zero_biform
from macaulay.poly import GradedIdeal, format_ideal, variable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_structured(capsys, *argv):
    code, out = run_cli(capsys, "--format", "structured", *argv)
    return code, json.loads(out)


@pytest.fixture
def z1_ideal_file(tmp_path):
    path = tmp_path / "z1.json"
    path.write_text(format_ideal(GradedIdeal(2, (variable(0, 2),))))
    return str(path)


def test_macrep_command(capsys):
    code, doc = run_structured(capsys, "macrep", "3", "3")
    assert code == 0
    assert doc["outputs"]["terms"] == [[3, 3], [2, 2], [1, 1]]
    assert doc["verdicts"]["round_trip"] == "ok"
    code, doc = run_structured(capsys, "macrep", "0", "4")
    assert code == 0 and doc["outputs"]["terms"] == []
    code, doc = run_structured(capsys, "macrep", "5", "2")
    assert doc["outputs"]["terms"] == [[3, 2], [2, 1]]


def test_shift_command(capsys):
    assert run_structured(capsys, "shift", "3", "3", "0", "1")[1]["outputs"]["value"] == 9
    assert run_structured(capsys, "shift", "0", "3", "1", "1")[1]["outputs"]["value"] == 0
    assert run_structured(capsys, "shift", "5", "2", "1", "1")[1]["outputs"]["value"] == 7


def test_text_format_is_line_oriented(capsys):
    code, out = run_cli(capsys, "shift", "3", "3", "0", "1")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["command"] == "shift"
    assert lines["output value"] == "9"


def test_lemma_scan_command(capsys):
    code, doc = run_structured(capsys, "lemma-scan", "--m-max", "3", "--d-max", "3", "--s-max", "2")
    assert code == 0
    assert doc["verdicts"]["identity"] == "ok"
    assert doc["outputs"]["failures"] == []


def test_hilbert_command(capsys, z1_ideal_file):
    code, doc = run_structured(capsys, "hilbert", z1_ideal_file, "--d-max", "4")
    assert code == 0
    assert doc["outputs"]["h_ideal"] == [0, 1, 2, 3, 4]
    assert doc["outputs"]["h_quotient"] == [1, 1, 1, 1, 1]


def test_hilbert_command_modular_mode(capsys, z1_ideal_file):
    code, doc = run_structured(capsys, "hilbert", z1_ideal_file, "--d-max", "3", "--mode", "modular-checked")
    assert code == 0
    assert doc["outputs"]["h_ideal"] == [0, 1, 2, 3]


def test_verify_command(capsys, tmp_path, z1_ideal_file):
    from fractions import Fraction

    from macaulay.poly import HomogPoly, monomial_poly

    zero = tmp_path / "zero.json"
    zero.write_text(format_ideal(GradedIdeal.zero(3)))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(format_ideal(GradedIdeal(3, (
        monomial_poly((1, 1, 0)),
        HomogPoly(3, 2, {(2, 0, 0): Fraction(2, 3), (0, 0, 2): Fraction(-1, 2)}),
    ))))
    for path in (z1_ideal_file, str(zero), str(mixed)):
        code, doc = run_structured(capsys, "verify", path, "--d-max", "5")
        assert code == 0
        assert set(doc["verdicts"].values()) == {"ok"}
        assert all(c["forward"] and c["quotient"] and c["reverse"] for c in doc["outputs"]["checks"])


def test_bridge_command(capsys):
    code, doc = run_structured(capsys, "bridge", "4", "3")
    assert code == 0
    assert doc["verdicts"]["identity"] == "ok"


def test_hermitian_command(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (1, 0), 1)])))
    code, doc = run_structured(capsys, "hermitian", str(path), "--s", "2", "--t", "0", "--l", "1")
    assert code == 0
    assert doc["outputs"]["signature"] == {"p": 1, "q": 0}
    assert doc["outputs"]["rank"] == 1
    assert doc["outputs"]["product_rank"] == 2
    assert doc["outputs"]["product_rank_interval"] == [2, 2]
    assert doc["verdicts"]["product_rank_bounds"] == "ok"
    assert doc["outputs"]["norm_power_is_sum_of_squares"] is True
    assert doc["verdicts"]["positive_part_bound"] == "ok"
    assert "negative_part_bound_alternate_subscripts" in doc["outputs"]


def test_hermitian_command_indefinite_form(capsys, tmp_path):
    path = tmp_path / "b.json"
    form = biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])
    path.write_text(format_biform(form))
    code, doc = run_structured(capsys, "hermitian", str(path))
    assert code == 0
    assert doc["outputs"]["signature"] == {"p": 1, "q": 1}
    assert doc["verdicts"]["positive_part_bound"] == "not-applicable"


def test_hermitian_command_zero_form(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(format_biform(zero_biform(2, 1)))
    code, doc = run_structured(capsys, "hermitian", str(path))
    assert code == 0
    assert set(doc["verdicts"].values()) == {"not-applicable"}


HERMITIAN_FORMS = {
    "zero": zero_biform(2, 1),
    "psd": biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 2), ((1, 0), (0, 1), 1), ((0, 1), (1, 0), 1)]),
    "indefinite": biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)]),
}


@pytest.mark.parametrize("name", sorted(HERMITIAN_FORMS))
def test_hermitian_command_rejects_l_below_1(capsys, tmp_path, name):
    path = tmp_path / "b.json"
    path.write_text(format_biform(HERMITIAN_FORMS[name]))
    for l in ("0", "-1"):
        assert main(["hermitian", str(path), "--l", l]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["psd", "indefinite"])
def test_hermitian_command_builds_the_euclidean_product_once(capsys, monkeypatch, tmp_path, name):
    form = HERMITIAN_FORMS[name]
    path = tmp_path / "b.json"
    path.write_text(format_biform(form))
    product_rank = hermitian.biform_rank(hermitian.multiply_signed_norm(form, (2, 0)))
    power_sig = {l: hermitian.biform_signature(hermitian.multiply_norm_power(form, l)) for l in (1, 2, 3)}
    calls = []
    multiply = hermitian.multiply_signed_norm

    def counting(f, norm):
        calls.append(tuple(norm))
        return multiply(f, norm)

    monkeypatch.setattr(hermitian, "multiply_signed_norm", counting)
    for l in (1, 2, 3):
        calls.clear()
        code, doc = run_structured(capsys, "hermitian", str(path), "--l", str(l))
        assert code == 0
        assert calls == [(2, 0)] * l
        assert doc["outputs"]["product_rank"] == product_rank
        assert doc["outputs"]["norm_power_rank"] == power_sig[l].rank
        assert doc["outputs"]["norm_power_is_sum_of_squares"] is (power_sig[l].q == 0)


@pytest.mark.parametrize("name", sorted(HERMITIAN_FORMS))
@pytest.mark.parametrize("flags, norm", [((), (2, 0)), (("--s", "1", "--t", "1"), (1, 1))])
@pytest.mark.parametrize("l", [1, 2])
def test_hermitian_command_prints_the_library_report(capsys, tmp_path, name, flags, norm, l):
    """The subcommand echoes its inputs and renders ``hermitian_report``:
    a None verdict as not-applicable, a bool as ok or violated."""
    form = HERMITIAN_FORMS[name]
    path = tmp_path / "b.json"
    path.write_text(format_biform(form))
    outputs, verdicts = hermitian.hermitian_report(form, norm, l)
    doc = {
        "command": "hermitian",
        "inputs": {"file": str(path), "n_vars": 2, "d": 1, "s": norm[0], "t": norm[1], "l": l},
        "outputs": outputs,
        "verdicts": {k: "not-applicable" if v is None else "ok" if v else "violated" for k, v in verdicts.items()},
    }
    code, out = run_cli(capsys, "--format", "structured", "hermitian", str(path), *flags, "--l", str(l))
    assert out == json.dumps(doc, indent=2) + "\n"
    assert code == 0
    assert ("positive_part_bound" in outputs) is (name == "psd")


C = GaussianRational(Fraction(2, 3), Fraction(-5, 4))
GAUSSIAN_FORMS = {  # |C|^2 = 289/144 < 2 * 3/2, so the first form is positive definite
    "psd": HermitianBiform(2, 1, [[2, C], [C.conjugate(), Fraction(3, 2)]]),
    "indefinite": HermitianBiform(2, 1, [[Fraction(1, 2), C], [C.conjugate(), -3]]),
}


@pytest.mark.parametrize("name", sorted(GAUSSIAN_FORMS))
@pytest.mark.parametrize("s, t", [(1, 1), (0, 2)])
@pytest.mark.parametrize("l", [1, 2])
def test_hermitian_command_with_a_signed_norm(capsys, tmp_path, name, s, t, l):
    form = GAUSSIAN_FORMS[name]
    path = tmp_path / "b.json"
    path.write_text(format_biform(form))
    code, doc = run_structured(capsys, "hermitian", str(path), "--s", str(s), "--t", str(t), "--l", str(l))
    assert code == 0
    power_sig = hermitian.biform_signature(hermitian.multiply_norm_power(form, l))
    assert doc["outputs"]["product_rank"] == hermitian.biform_rank(hermitian.multiply_signed_norm(form, (s, t)))
    assert doc["outputs"]["norm_power_rank"] == power_sig.rank
    assert doc["outputs"]["norm_power_is_sum_of_squares"] is (power_sig.q == 0) is (name == "psd")


def test_min_sos_command(capsys, tmp_path):
    psd = tmp_path / "psd.json"
    psd.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)])))
    code, doc = run_structured(capsys, "min-sos", str(psd))
    assert code == 0 and doc["outputs"]["min_power"] == 1

    indef = tmp_path / "indef.json"
    indef.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), -1)])))
    code, doc = run_structured(capsys, "min-sos", str(indef), "--l-max", "5")
    assert code == 0 and doc["outputs"]["min_power"] is None


def test_corpus_command(capsys):
    code, doc = run_structured(
        capsys, "corpus", "--seed", "11", "--n-max", "3", "--d-max", "3",
        "--draws", "1", "--lex-probe", "2", "2",
    )
    assert code == 0
    assert doc["verdicts"]["growth_bounds"] == "ok"
    assert doc["outputs"]["size"] == 2 * 1 * 2 * 3  # kinds x draws x n range x gens range
    assert doc["outputs"]["lex_probe"]["tight"] == 3


def test_report_round_trip(capsys):
    code, doc = run_structured(capsys, "macrep", "7", "3")
    report = Report.from_dict(doc)
    assert report.to_dict() == doc
    assert json.loads(report.to_json()) == doc


def test_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hilbert", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["hilbert", str(missing)]) == 2
    # degree-0 generator rejected
    const = tmp_path / "const.json"
    const.write_text('{"n_vars": 2, "generators": [[{"coeff": "1", "exponents": [0, 0]}]]}')
    assert main(["hilbert", str(const)]) == 2


BIFORM_TERM = '{"alpha": [1, 0], "beta": [1, 0], "coeff": {"re": %s, "im": "0"}}'


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify", '{"n_vars": 2, "generators": 5}'),
        ("verify", '{"n_vars": 2, "generators": [[{"coeff": "1/0", "exponents": [1, 0]}]]}'),
        ("verify", "[1, 2]"),
        ("verify", '{"n_vars": 2, "generators": [[{"coeff": 0.1, "exponents": [1, 0]}]]}'),
        ("verify", '{"n_vars": 2.5, "generators": []}'),
        ("hilbert", '{"n_vars": 0, "generators": []}'),
        ("hermitian", '{"n_vars": 2, "d": 1, "terms": [%s]}' % (BIFORM_TERM % '"1/0"')),
        ("hermitian", '{"n_vars": 2, "d": 1, "terms": 5}'),
        ("hermitian", "[1, 2]"),
        ("hermitian", '{"n_vars": 2, "d": 1, "terms": [%s]}' % (BIFORM_TERM % "null")),
        pytest.param("verify", "[" * 100000 + "]" * 100000, id="verify-nested-100000-deep"),
        pytest.param("hermitian", "[" * 100000 + "]" * 100000, id="hermitian-nested-100000-deep"),
    ],
)
def test_schema_faults_exit_2(capsys, tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["macrep", "not-a-number", "3"])
    assert exc.value.code == 2


SUBCOMMANDS = ("macrep", "shift", "lemma-scan", "hilbert", "verify", "bridge", "hermitian", "min-sos", "corpus")


def run_main(capsys, argv):
    """main()'s exit code, stdout and stderr, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_parser_reads_the_terminal_size_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return os.terminal_size((int(os.environ["COLUMNS"]), 24))

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    monkeypatch.setenv("COLUMNS", "80")
    build_parser()
    assert len(calls) == 1
    # The width is read when the parser is built, not when cli is imported.
    helps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run_main(capsys, ["corpus", "--help"])
        assert code == 0
        helps.append(out)
    assert len(helps[0].splitlines()) > len(helps[1].splitlines())
    assert helps[0].split() == helps[1].split()


def unformatted_parser() -> argparse.ArgumentParser:
    """build_parser()'s tree with every parser back on argparse's own HelpFormatter."""
    parser = build_parser()
    parser.formatter_class = argparse.HelpFormatter
    for action in parser._subparsers._group_actions:
        for subparser in action.choices.values():
            subparser.formatter_class = argparse.HelpFormatter
    return parser


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [[], ["--format", "xml", "macrep", "1", "1"], ["macrep", "x", "3"], ["corpus", "--lex-probe", "1"]],
    ids=lambda argv: "_".join(argv) or "no-args",
)
def test_help_and_usage_match_argparse_defaults(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    assert set(SUBCOMMANDS) == set(build_parser()._subparsers._group_actions[0].choices)
    ours = run_main(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", unformatted_parser)
    assert run_main(capsys, argv) == ours
    assert ours[0] in (0, 2) and (ours[1] or ours[2])
