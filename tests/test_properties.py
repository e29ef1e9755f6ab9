"""Property tests, with inputs drawn by Hypothesis."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqpart.eigenfunctions import MAX_ABS_VALUE
from eqpart.hamming import GraphParams, neighbor_table, residual_witness

# H(1, 300) has degree 299, so even an indicator needs 16-bit lanes.
GRAPHS = [GraphParams(n, q) for n, q in
          ((1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (1, 300))]
# value ranges: indicators, ternary functions, the VertexFunction guard, and
# wider values that reach 64-bit lanes or overflow them
RANGES = [(0, 1), (-1, 1), (-MAX_ABS_VALUE, MAX_ABS_VALUE), (-(1 << 40), 1 << 40),
          (-(1 << 62), 1 << 62)]


@st.composite
def residual_inputs(draw):
    params = draw(st.sampled_from(GRAPHS))
    lo, hi = draw(st.sampled_from(RANGES))
    if draw(st.booleans()):
        values = [draw(st.integers(lo, hi))] * params.vertex_count
    else:
        values = draw(st.lists(st.integers(lo, hi), min_size=params.vertex_count,
                               max_size=params.vertex_count))
    if lo == 0:
        values = bytes(values)  # the indicator form spectral_check passes
    bound = params.degree + 2
    return params, values, draw(st.integers(-bound, bound))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(residual_inputs())
@example((GraphParams(1, 300), bytes(299) + b"\x01", 1))  # 16-bit lanes
@example((GraphParams(3, 2), [MAX_ABS_VALUE, -MAX_ABS_VALUE] * 4, -5))  # 32-bit lanes
@example((GraphParams(3, 2), [1 << 40, 0] * 4, 3))  # 64-bit lanes
@example((GraphParams(3, 2), [1 << 62, 0] * 4, 3))  # past 64-bit lanes
@example((GraphParams(2, 4), [7] * 16, 8))  # constant
def test_residual_witness_matches_neighbor_sums(case):
    """residual_witness equals (A - lam I) values summed over neighbor_table:
    the residual at vertex 0 and the first vertex where it differs, or a
    ValueError when (degree + |lam|) * (max - min) needs more than 64 bits."""
    params, values, lam = case
    table = neighbor_table(params)
    r = [sum(values[w] for w in ws) - lam * x for ws, x in zip(table, values)]
    if (params.degree + abs(lam)) * (max(values) - min(values)) >> 64:
        with pytest.raises(ValueError, match="64-bit lanes"):
            residual_witness(params, values, lam)
        return
    first = next((v for v, x in enumerate(r) if x != r[0]), None)
    assert residual_witness(params, values, lam) == (r[0], first)
