"""Property test of the series engine against the nested-loop oracle.

Small random Laurent polynomials reach both the Kronecker rows and the
one-slot rows of `constant_term_series`; either way the series must equal
`corpus.phi_bruteforce`.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weaklg.laurent import LaurentPoly, constant_term_series  # noqa: E402

from corpus import phi_bruteforce  # noqa: E402

coefficients = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 3))
    points = st.tuples(*[st.integers(-3, 3)] * n)
    return LaurentPoly(n, draw(st.dictionaries(points, coefficients, max_size=10)))


@settings(max_examples=60, deadline=None, database=None)
@given(polynomials(), st.integers(0, 6))
def test_series_equals_the_bruteforce_oracle(f, N):
    assert list(constant_term_series(f, N)) == phi_bruteforce(f, N)
