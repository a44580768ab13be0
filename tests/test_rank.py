"""Property tests of exact_rank against a Gauss-Jordan oracle that shares no
code with macaulay.poly: plain Fraction arithmetic over Q, and over Q(i)
with each entry held as a (real, imaginary) pair of Fractions.  The rank
routines take integer rows, so each matrix reaches them scaled row by row
to ints or to ``(re, im)`` int pairs by this file's own helpers.  Gaussian
rows go through a fraction-free elimination over Z[i] that reads each row
as last written several steps back, so sparse rows that skip pivot
columns get a property of their own.  A zero entry, which no caller
passes, gives the true rank or raises ArithmeticError."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macaulay import poly
from macaulay.poly import RANK_PRIMES, exact_rank, rank_mod_prime

ZERO = (Fraction(0), Fraction(0))


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def c_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def oracle_rank(matrix: list[list[tuple[Fraction, Fraction]]]) -> int:
    """Rank by Gauss-Jordan elimination on dense rows of complex pairs."""
    rows = [list(r) for r in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != ZERO), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = c_inv(rows[rank][col])
        rows[rank] = [c_mul(inv, x) for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] != ZERO:
                f = row[col]
                rows[i] = [c_sub(x, c_mul(f, y)) for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def scalars(draw, gaussian: bool):
    re = draw(small)
    im = draw(small) if gaussian else Fraction(0)
    return (re, im)


@st.composite
def known_rank_matrices(draw):
    """(matrix, rank, gaussian): B @ C with B = [L; *] and C = [U | *], L and
    U unit triangular r x r, so the product has rank exactly r; rows and
    columns are then shuffled."""
    gaussian = draw(st.booleans())
    r = draw(st.integers(0, 4))
    m = draw(st.integers(max(r, 1), 6))
    n = draw(st.integers(max(r, 1), 6))
    one = (Fraction(1), Fraction(0))
    b = [[one if i == j else (ZERO if j > i and i < r else draw(scalars(gaussian))) for j in range(r)] for i in range(m)]
    c = [[one if i == j else (ZERO if j < i else draw(scalars(gaussian))) for j in range(n)] for i in range(r)]
    product = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(r):
                term = c_mul(b[i][k], c[k][j])
                acc = (acc[0] + term[0], acc[1] + term[1])
            row.append(acc)
        product.append(row)
    product = draw(st.permutations(product))
    order = draw(st.permutations(range(n)))
    return [[row[j] for j in order] for row in product], r, gaussian


@st.composite
def row_edits(draw, matrix, gaussian: bool):
    """The matrix with rows duplicated, negated or scaled, and zero rows
    added; none of these changes the rank."""
    out = [list(row) for row in matrix]
    n = len(matrix[0])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("duplicate", "negate", "scale", "zero")))
        if kind == "zero" or not out:
            out.insert(draw(st.integers(0, len(out))), [ZERO] * n)
            continue
        src = out[draw(st.integers(0, len(out) - 1))]
        if kind == "duplicate":
            out.append(list(src))
        elif kind == "negate":
            out.append([c_sub(ZERO, x) for x in src])
        else:
            k = draw(scalars(gaussian).filter(lambda x: x != ZERO))
            out.append([c_mul(k, x) for x in src])
    return draw(st.permutations(out))


def integer_pair_rows(matrix, columns=None):
    """Each row times the lcm of its denominators, which keeps the rank, as
    ``{column: (re, im)}`` int pairs: the rows ``biform_rank`` hands over.
    Zero entries and zero rows are left out; ``columns`` renames the
    columns."""
    rows = []
    for row in matrix:
        den = math.lcm(*(x.denominator for pair in row for x in pair))
        ids = columns or range(len(row))
        out = {c: (int(re * den), int(im * den)) for c, (re, im) in zip(ids, row) if re or im}
        if out:
            rows.append(out)
    return rows


@st.composite
def sparse_rows(draw, matrix, gaussian: bool):
    """Integer rows over distinct, unordered column ids, each times a drawn
    factor so that rows are not primitive: ``(re, im)`` int pairs for a
    Gaussian matrix and ints for a real one."""
    n = len(matrix[0]) if matrix else 0
    cols = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True))
    rows = []
    for row in integer_pair_rows(matrix, cols):
        k = draw(st.sampled_from((1, 1, 2, -3, 6)))
        rows.append({c: (k * a, k * b) if gaussian else k * a for c, (a, b) in row.items()})
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_rank_matches_gauss_jordan_oracle(data):
    matrix, r, gaussian = data.draw(known_rank_matrices())
    assert oracle_rank(matrix) == r
    edited = data.draw(row_edits(matrix, gaussian))
    assert oracle_rank(edited) == r
    rows = data.draw(sparse_rows(edited, gaussian))
    assert exact_rank(rows) == r
    # a modular rank is a lower bound, also through the map i -> iota
    assert rank_mod_prime(rows, RANK_PRIMES[r % 3]) <= r
    # int pairs: a real matrix's pairs are all (v, 0), and turning some of
    # its rows by i, a unit, puts real rows in a Gaussian matrix
    turns = data.draw(st.lists(st.sampled_from(((1, 0), (0, 1), (1, 1))), min_size=len(edited),
                               max_size=len(edited)))
    turned = [[c_mul(tuple(map(Fraction, t)), x) for x in row] for t, row in zip(turns, edited)]
    assert exact_rank(integer_pair_rows(edited)) == r
    assert exact_rank(integer_pair_rows(turned)) == r


gaussian_entries = st.builds(
    lambda re, im, den: (Fraction(re, den), Fraction(im)),
    st.integers(-3, 3), st.integers(-3, 3), st.sampled_from((1, 1, 2)),
).filter(lambda x: x != ZERO)


@st.composite
def sparse_gaussian_matrices(draw):
    """Sparse rows over Q(i), each with a drawn leading column and a few
    later entries, plus rows a*x - b*y that combine two of them.  Leads skip
    columns and most rows miss most pivot columns, so a row is often last
    written several elimination steps before it is read."""
    n = draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        row = [ZERO] * n
        lead = draw(st.integers(0, n - 1))
        row[lead] = draw(gaussian_entries)
        for c in range(lead + 1, n):
            if draw(st.integers(0, 2)) == 0:
                row[c] = draw(gaussian_entries)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(gaussian_entries), draw(gaussian_entries)
        rows.append([c_sub(c_mul(a, u), c_mul(b, v)) for u, v in zip(x, y)])
    assume(any(im for row in rows for _, im in row))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(sparse_gaussian_matrices())
def test_gaussian_elimination_on_sparse_rows_matches_gauss_jordan_oracle(matrix):
    assert exact_rank(integer_pair_rows(matrix)) == oracle_rank(matrix)


def test_integer_pair_rows_worked_values():
    # a real (v, 0) row inside a Gaussian matrix: (1+i, 2) and (2, 4) are independent
    assert exact_rank([{0: (1, 1), 1: (2, 0)}, {0: (2, 0), 1: (4, 0)}, {1: (6, 0)}]) == 2
    assert exact_rank([{0: (1, 1), 1: (2, 0)}, {0: (2, 2), 1: (4, 0)}]) == 1
    # all pairs real: the rank over Q, empty rows ignored
    assert exact_rank([{0: (2, 0), 1: (4, 0)}, {}, {0: (3, 0), 1: (6, 0), 2: (5, 0)}, {}]) == 2
    assert exact_rank([{0: (2, 0), 1: (4, 0)}, {0: (3, 0), 1: (6, 0)}]) == 1


def test_an_inexact_bareiss_division_raises(monkeypatch):
    rows = [{0: (1, 1)}, {1: (1, 0)}]
    assert exact_rank(rows) == 2
    # A factor that ignores when rows were last written, p_{k-1} / p_{k-1}**2 at every
    # step, makes p_2 = 1 / (1 + i), not a Gaussian integer: the rank is refused, not answered.
    true_factor = poly._bareiss_factor
    monkeypatch.setattr(poly, "_bareiss_factor", lambda pivots, k, a_p, a_r: true_factor(pivots, k, k - 1, k - 1))
    with pytest.raises(ArithmeticError):
        exact_rank(rows)


def test_a_zero_pivot_entry_raises():
    # zero entries are no caller's rows: a zero alone in its bucket, or a
    # zero picked as the pivot of a shared bucket, is refused in both kernels
    for rows in ([{2: 0}], [{2: (0, 0)}], [{0: 5}, {0: 1, 1: 2}, {1: 0}],
                 [{0: 2, 1: 4}, {0: 3, 1: 6, 2: 0}, {2: 0}],
                 [{0: (2, 0), 1: (4, 0)}, {0: (3, 0), 1: (6, 0), 2: (0, 0)}, {2: (0, 0)}]):
        with pytest.raises(ArithmeticError, match="zero pivot entry"):
            exact_rank(rows)
    # a zero beside a true pivot entry adds a zero multiple: (1, 1, 0) and (0, 0, 1)
    assert exact_rank([{0: 1, 1: 1}, {0: 0, 2: 1}]) == 2
    assert exact_rank([{0: (1, 0), 1: (1, 0)}, {0: (0, 0), 2: (0, 1)}]) == 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_zero_entry_gives_the_true_rank_or_raises(data):
    matrix, r, gaussian = data.draw(known_rank_matrices())
    rows = data.draw(sparse_rows(matrix, gaussian))
    zero = (0, 0) if gaussian else 0
    columns = sorted(set().union(*rows)) or [0]
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(st.sampled_from(columns))
        i = data.draw(st.integers(0, len(rows)))
        if i == len(rows):
            rows.append({c: zero})  # a row alone in its bucket, some of the time
        else:
            rows[i].setdefault(c, zero)
    assert rank_mod_prime(rows, RANK_PRIMES[0]) <= r
    try:
        rank = exact_rank(rows)
    except ArithmeticError:
        return
    assert rank == r


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_rank_primes_have_a_square_root_of_minus_one():
    for p in RANK_PRIMES:
        assert p % 4 == 1 and is_prime(p)
        assert pow(poly._sqrt_minus_one(p), 2, p) == p - 1
    # the first prime = 1 mod 4 after 2291050459, which is 3 mod 4
    assert RANK_PRIMES[0] == 2291050477
    assert [q for q in range(2291050459, RANK_PRIMES[0]) if q % 4 == 1 and is_prime(q)] == []


def test_gaussian_rows_need_a_prime_one_mod_four():
    p = 2291050459
    assert is_prime(p) and p % 4 == 3
    with pytest.raises(ValueError, match="no square root"):
        rank_mod_prime([{0: (1, 1)}, {1: (0, 2)}], p)
    # int rows take any prime, and rows of (re, 0) pairs still need iota
    assert rank_mod_prime([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 7}], p) == 2
    assert rank_mod_prime([{0: 3, 1: 1}, {0: 1, 1: 3}], 2) == 1
    for q in (2, 7, 2291050459, 9):
        with pytest.raises(ValueError, match="no square root"):
            poly._sqrt_minus_one(q)
    with pytest.raises(ValueError, match="no square root"):
        rank_mod_prime([{0: (1, 0)}], p)


def test_rank_mod_prime_worked_values():
    p = RANK_PRIMES[0]
    iota = poly._sqrt_minus_one(p)
    # [[1, i], [-i, 1]] has rank 1; its image under i -> 1 would have rank 2
    rows = [{0: (1, 0), 1: (0, 1)}, {0: (0, -1), 1: (1, 0)}]
    assert rank_mod_prime(rows, p) == exact_rank(rows) == 1
    assert rank_mod_prime([{0: 1, 1: 1}, {0: -1, 1: 1}], p) == 2
    assert rows == [{0: (1, 0), 1: (0, 1)}, {0: (0, -1), 1: (1, 0)}]  # left as they were
    # entries whose images are 0 leave the rows, and a row of them leaves the matrix
    for rows, rank in (([{0: (iota, -1)}, {1: (1, 0)}], 1), ([{0: (iota, -1), 1: (2, 3)}, {1: (4, 6)}], 1),
                       ([{0: p, 2: 1}, {1: -p}, {0: 5, 1: 1}], 2), ([{0: 3 * p}], 0)):
        assert rank_mod_prime(rows, p) == rank
    # a row that is a multiple of p over Q vanishes modulo p, so the modular rank falls short
    assert exact_rank([{0: p, 1: 2 * p}, {1: 1}]) == 2
    assert rank_mod_prime([{0: p, 1: 2 * p}, {1: 1}], p) == 1
