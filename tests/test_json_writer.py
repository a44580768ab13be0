"""The package's one JSON writer, ``poly._json_text``, against the standard
library's indent-2 formatter, which stays the oracle: the writer must give
the same bytes on every value it takes, and ideal files, biform files and
structured reports all go through it."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macaulay import cli
from macaulay.cli import main
from macaulay.hermitian import GaussianRational, HermitianBiform, biform_from_terms, format_biform
from macaulay.poly import GradedIdeal, HomogPoly, _json_text, format_ideal, variable

# Characters with their own escapes, control characters, DEL, non-ASCII
# text, a line separator and a character outside the basic plane.
AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028😀'
texts = st.text(st.sampled_from(AWKWARD) | st.characters(exclude_categories=("Cs",)), max_size=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | texts
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=25,
)


@given(documents)
@example({})
@example([[], {}, (), "", 0, -1, True, False, None, {"a": []}])
@settings(max_examples=400, deadline=None)
def test_writer_matches_the_standard_library(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {1: "a"}, [{"a": 1.0}], {"a": {None: 1}}, {1, 2}])
def test_writer_refuses_anything_else(bad):
    with pytest.raises(TypeError):
        _json_text(bad)


@given(st.integers(), st.integers(1, 10**30))
@settings(max_examples=300, deadline=None)
def test_biform_cells_are_written_as_fractions(v, den):
    """The off-diagonal cell 1/den + i*v/den of a 2x2 form stores v over the
    form's den, so its imaginary part is written from exactly v and den."""
    c = GaussianRational(Fraction(1, den), Fraction(v, den))
    form = HermitianBiform(2, 1, [[0, c], [c.conjugate(), 0]])
    assert form.den == den
    (term,) = json.loads(format_biform(form))["terms"]
    assert term["coeff"] == {"re": str(Fraction(1, den)), "im": str(Fraction(v, den))}


@pytest.fixture
def inputs(tmp_path):
    """An ideal file and a biform file whose names need escaping."""
    ideal = tmp_path / 'idéal "z1".json'
    ideal.write_text(format_ideal(GradedIdeal(2, (variable(0, 2), HomogPoly(2, 2, {(0, 2): Fraction(-1, 3)})))))
    form = tmp_path / "bi\\form\u2028.json"
    form.write_text(format_biform(biform_from_terms(2, 1, [((1, 0), (1, 0), 1), ((0, 1), (1, 0), 1), ((1, 0), (0, 1), 1)])))
    return {"ideal": str(ideal), "form": str(form)}


SUBCOMMANDS = [
    ["macrep", "7", "3"],
    ["macrep", "0", "4"],
    ["shift", "3", "3", "0", "1"],
    ["lemma-scan", "--m-max", "2", "--d-max", "2", "--s-max", "1"],
    ["hilbert", "{ideal}", "--d-max", "3"],
    ["verify", "{ideal}", "--d-max", "3"],
    ["bridge", "3", "3"],
    ["hermitian", "{form}"],
    ["hermitian", "{form}", "--s", "1", "--t", "1"],
    ["min-sos", "{form}", "--l-max", "2"],
    ["corpus", "--seed", "3", "--n-max", "3", "--d-max", "3", "--lex-probe", "2", "2"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: " ".join(argv[:1] + argv[2:]))
def test_structured_stdout_is_the_standard_library_dump_of_the_report(capsys, monkeypatch, inputs, argv):
    reports = []
    to_json = cli.Report.to_json
    monkeypatch.setattr(cli.Report, "to_json", lambda self: reports.append(self) or to_json(self))
    main(["--format", "structured", *(a.format(**inputs) for a in argv)])
    (report,) = reports
    assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"
