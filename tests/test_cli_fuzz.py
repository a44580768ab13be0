"""Malformed ideal and biform documents through the CLI.

Each document starts well formed, in at most 3 variables and of degree
at most 3, and then may lose keys or have nodes replaced by any small
JSON value: wrong types, floats, strings and ints from -2 to 4.  So no
example builds a large matrix.  Whatever the document, ``main`` returns
0, 1 or 2 and raises nothing; 1 comes only with a ``violated`` verdict,
and 2 only with one ``error:`` line on stderr.  An input fault never
reads as an internal error (exit 3).
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from macaulay.cli import main

small_ints = st.integers(-2, 4)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(-4, 4) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
rationals = st.sampled_from(["1", "-1/2", "3/4", "0", "2/3"]) | small_ints


def monomials(n, k):
    """The exponent lists of degree k in n variables."""
    return [list(e) for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]


@st.composite
def mangled(draw, doc):
    """``doc`` with a few nodes dropped or replaced by arbitrary JSON."""
    for _ in range(draw(st.integers(0, 2))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(json_values)
                break
        else:
            doc = draw(json_values)
    return doc


@st.composite
def ideal_documents(draw):
    """A well-formed ideal document in 1-3 variables, then mangled."""
    n = draw(st.integers(1, 3))
    generators = []
    for k in draw(st.lists(st.integers(1, 3), max_size=3)):
        terms = st.fixed_dictionaries({"coeff": rationals, "exponents": st.sampled_from(monomials(n, k))})
        generators.append(draw(st.lists(terms, min_size=1, max_size=3)))
    return draw(mangled({"n_vars": n, "generators": generators}))


@st.composite
def biform_documents(draw):
    """A well-formed biform document in 1-3 variables, then mangled.  No
    cell is listed with its mirror, and diagonal cells are real, so the
    unmangled form is Hermitian."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    basis = monomials(n, d)
    cells = draw(st.lists(st.tuples(st.sampled_from(basis), st.sampled_from(basis)), max_size=4,
                          unique_by=lambda ab: tuple(sorted(map(tuple, ab)))))
    terms = [
        {"alpha": a, "beta": b, "coeff": {"re": draw(rationals), "im": draw(rationals) if a != b else "0"}}
        for a, b in cells
    ]
    return draw(mangled({"n_vars": n, "d": d, "terms": terms}))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def run(path, argv_before, doc, argv_after):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "structured", *argv_before, str(path), *argv_after])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        verdicts = json.loads(out.getvalue())["verdicts"].values()
        assert (code == 1) == ("violated" in verdicts)


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(ideal_documents())
def test_malformed_ideal_documents_exit_cleanly(path, doc):
    run(path, ["verify"], doc, ["--d-max", "3"])
    run(path, ["hilbert"], doc, ["--d-max", "3"])
    run(path, ["hilbert"], doc, ["--d-max", "2", "--mode", "modular-checked"])


@FUZZ
@given(biform_documents())
def test_malformed_biform_documents_exit_cleanly(path, doc):
    run(path, ["hermitian"], doc, [])
    run(path, ["min-sos"], doc, ["--l-max", "2"])
