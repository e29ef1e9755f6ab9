"""Integer-valued functions on the vertices of H(n, q) and their spectra.

A lambda-eigenfunction is any f with sum_{w ~ v} f(w) = lambda f(v) at
every vertex; the all-zero function counts as a lambda-eigenfunction for
every lambda.  The classifiers below characterize the ternary functions
(values in {-1, 0, 1}) lying in the span of the top two eigenspaces: they
are exactly the constants, the quasi-strings (supported on one coordinate)
and the quasi-crosses (supported on two).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Union

from .hamming import (
    GraphParams,
    Record,
    coordinate_stride,
    digit_table,
    eigenvalue,
    residual_witness,
)
from .partitions import QuotientMatrix, TwoPartition, quotient_eigenvalues, slices

# Bound on |f(v)| so the residual (A - lam I) f fits the 64-bit lanes of
# hamming.residual_witness for every |lam| <= degree on every graph.
MAX_ABS_VALUE = 1 << 20

# a ternary value mod 3 to a binary digit of its +1 cell and of its -1 cell
_PLUS_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"010")
_MINUS_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"001")


class VertexFunction(Record):
    """A function from vertex indices to integers, stored densely."""

    params: GraphParams
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.params.vertex_count:
            raise ValueError("need one value per vertex")
        for v in self.values:
            if abs(v) > MAX_ABS_VALUE:
                raise ValueError(f"value {v} exceeds the magnitude guard {MAX_ABS_VALUE}")

    def is_ternary(self) -> bool:
        return all(v in (-1, 0, 1) for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def constant_function(params: GraphParams, value: int) -> VertexFunction:
    return VertexFunction(params, (value,) * params.vertex_count)


def is_eigenfunction(f: VertexFunction, lam: int) -> bool:
    """Whether A f = lam f holds exactly (true for the all-zero f)."""
    return residual_witness(f.params, f.values, lam) == (0, None)


def restrict(f: VertexFunction, k: int, symbol: int) -> VertexFunction:
    """The restriction of f to the hyperplane x_k = symbol, as a function
    on H(n-1, q)."""
    params = f.params
    if params.n < 2:
        raise ValueError("restriction needs n >= 2")
    if not 0 <= symbol < params.q:
        raise ValueError(f"symbol {symbol} outside [0, {params.q})")
    n, q = params.n, params.q
    offset = symbol * coordinate_stride(params, k)
    new_params = GraphParams(n - 1, q)
    # the digits of a restricted vertex fill the coordinates other than k
    terms = [[a * q ** (n - c) for a in range(q)] for c in range(1, n + 1) if c != k]
    terms[0] = [t + offset for t in terms[0]]
    return VertexFunction(new_params, itemgetter(*digit_table(new_params, terms))(f.values))


def restriction_difference(f: VertexFunction, k: int, a: int, b: int) -> VertexFunction:
    """restrict(f, k, a) - restrict(f, k, b), pointwise.

    If f is a lambda_i(n, q)-eigenfunction, the result is a
    lambda_{i-1}(n-1, q)-eigenfunction.
    """
    if a == b:
        raise ValueError("the two restricted symbols must differ")
    fa = restrict(f, k, a)
    fb = restrict(f, k, b)
    return VertexFunction(fa.params, tuple(x - y for x, y in zip(fa.values, fb.values)))


def quasi_string(
    params: GraphParams, plus: Iterable[int], minus: Iterable[int], k: int
) -> VertexFunction:
    """The function of x_k alone: +1 on plus, -1 on minus, 0 elsewhere.

    plus and minus must be disjoint and not both empty.  It is a
    lambda_1(n, q)-eigenfunction iff |plus| = |minus| (a string).
    """
    plus, minus = frozenset(plus), frozenset(minus)
    _check_symbols(params, plus | minus)
    if plus & minus:
        raise ValueError("plus and minus sets must be disjoint")
    if not (plus | minus):
        raise ValueError("plus and minus sets must not both be empty")
    coordinate_stride(params, k)    # refuses a coordinate outside 1..n
    terms = [[0] * params.q for _ in range(params.n)]
    terms[k - 1] = [1 if x in plus else -1 if x in minus else 0 for x in range(params.q)]
    return VertexFunction(params, digit_table(params, terms))


def quasi_cross(
    params: GraphParams,
    plus: Iterable[int],
    minus: Iterable[int],
    i: int,
    j: int,
) -> VertexFunction:
    """+1 where x_i in plus and x_j not in minus; -1 where x_i not in plus
    and x_j in minus; 0 elsewhere.

    plus and minus must both be nonempty and i != j.  It is a
    lambda_1(n, q)-eigenfunction iff |plus| = |minus| (a cross), and it is
    half the sum of the (plus, complement, i)- and (complement, minus,
    j)-quasi strings: [x_i in plus] - [x_j in minus].
    """
    plus, minus = frozenset(plus), frozenset(minus)
    _check_symbols(params, plus | minus)
    if not plus or not minus:
        raise ValueError("plus and minus sets must both be nonempty")
    if i == j:
        raise ValueError("the two coordinates must differ")
    coordinate_stride(params, i)    # each refuses a coordinate outside 1..n
    coordinate_stride(params, j)
    terms = [[0] * params.q for _ in range(params.n)]
    terms[i - 1] = [1 if x in plus else 0 for x in range(params.q)]
    terms[j - 1] = [-1 if x in minus else 0 for x in range(params.q)]
    return VertexFunction(params, digit_table(params, terms))


def _check_symbols(params: GraphParams, symbols: Iterable[int]) -> None:
    for s in symbols:
        if not 0 <= s < params.q:
            raise ValueError(f"symbol {s} outside [0, {params.q})")


def in_top_two_eigenspaces(f: VertexFunction) -> bool:
    """Whether f is a constant plus a lambda_1(n, q)-eigenfunction.

    Equivalent operator test: (A - lambda_1 I) f is a constant function.
    """
    return residual_witness(f.params, f.values, eigenvalue(f.params, 1))[1] is None


# --- classified shapes ------------------------------------------------------


class Constant(Record):
    value: int

    def build(self, params: GraphParams) -> VertexFunction:
        return constant_function(params, self.value)


class QuasiString(Record):
    plus: frozenset[int]
    minus: frozenset[int]
    coordinate: int

    def build(self, params: GraphParams) -> VertexFunction:
        return quasi_string(params, self.plus, self.minus, self.coordinate)


class QuasiCross(Record):
    plus: frozenset[int]
    minus: frozenset[int]
    coordinate_i: int
    coordinate_j: int

    def build(self, params: GraphParams) -> VertexFunction:
        return quasi_cross(params, self.plus, self.minus, self.coordinate_i, self.coordinate_j)


class NotMember(Record):
    pass


class AllZero(Record):
    pass


class NotEigen(Record):
    pass


TopTwoForm = Union[Constant, QuasiString, QuasiCross, NotMember]
Lambda1Form = Union[AllZero, QuasiString, QuasiCross, NotEigen]


def classify_top_two(f: VertexFunction) -> TopTwoForm:
    """Classify a ternary f inside the span of the top two eigenspaces.

    Returns NotMember when the operator test fails.  Otherwise f depends
    on the coordinates along which its +1 cell or its -1 cell varies;
    with none it is a constant.  Else, for the first and last of them,
    i <= j, plus holds the a with x_i = a meeting the +1 cell, minus the
    b with x_j = b meeting the -1 cell, and the shape is a quasi-string
    if i = j, else a quasi-cross.  The rebuilt shape is compared against
    f; a mismatch (such as three or more essential coordinates) cannot
    happen for a member and raises AssertionError.
    """
    if not f.is_ternary():
        raise ValueError("classification applies to ternary functions only")
    if not in_top_two_eigenspaces(f):
        return NotMember()
    params = f.params
    # bit v of a cell from digit v of a binary string, in one pass
    digits = bytes([x % 3 for x in f.values])[::-1]
    plus = slices(params, int(digits.translate(_PLUS_DIGITS), 2))
    minus = slices(params, int(digits.translate(_MINUS_DIGITS), 2))
    ess = [k for k, (sp, sm) in enumerate(zip(plus, minus), 1)
           if sp.count(sp[0]) != params.q or sm.count(sm[0]) != params.q]
    form: TopTwoForm
    if not ess:
        form = Constant(f.values[0])
    else:
        i, j = ess[0], ess[-1]
        read = (frozenset(a for a, piece in enumerate(plus[i - 1]) if piece),
                frozenset(b for b, piece in enumerate(minus[j - 1]) if piece))
        form = QuasiString(*read, i) if i == j else QuasiCross(*read, i, j)
    if form.build(params).values != f.values:
        raise AssertionError("classified shape does not rebuild the input function")
    return form


def classify_lambda1(f: VertexFunction, top_two: TopTwoForm) -> Lambda1Form:
    """Classify a ternary f as a lambda_1(n, q)-eigenfunction shape.

    top_two is classify_top_two(f), which the caller has already computed.
    The nonzero ternary lambda_1-eigenfunctions are exactly the strings
    and crosses: quasi-strings and quasi-crosses with |plus| = |minus|.
    The verdict is cross-validated against the eigen-equation.
    """
    if not f.is_ternary():
        raise ValueError("classification applies to ternary functions only")
    if f.is_zero():
        return AllZero()
    balanced = isinstance(top_two, (QuasiString, QuasiCross)) and len(top_two.plus) == len(top_two.minus)
    direct = is_eigenfunction(f, eigenvalue(f.params, 1))
    if balanced != direct:
        raise AssertionError("shape classification disagrees with the eigen-equation")
    return top_two if balanced else NotEigen()


def partition_eigenfunction(p: TwoPartition, s: QuotientMatrix) -> VertexFunction:
    """The two-valued eigenfunction attached to an equitable 2-partition.

    f = (S12 + S21) * indicator(C) - S21 takes the value S12 on C and
    -S21 elsewhere and satisfies A f = (S11 - S21) f.
    """
    quotient_eigenvalues(s, p.params)  # validates shape and row sums
    s12, s21 = s.rows[0][1], s.rows[1][0]
    vals = tuple(s12 if b else -s21 for b in p.indicator())
    return VertexFunction(p.params, vals)
