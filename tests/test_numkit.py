import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from transopt import numkit


def vec(*values):
    return np.array(values, dtype=np.float64)


finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)


class TestNorms:
    def test_three_four_five(self):
        n = numkit.norms(vec(3, 4))
        assert n.l2 == 5.0
        assert n.linf == 4.0

    def test_zero_vector(self):
        n = numkit.norms(np.zeros(7))
        assert n.l2 == 0.0 and n.linf == 0.0

    def test_single_negative_coordinate(self):
        n = numkit.norms(vec(-7))
        assert n.l2 == 7.0 and n.linf == 7.0


class TestProperties:
    @given(finite_vectors)
    def test_norm_sandwich(self, a):
        n = numkit.norms(a)
        d = len(a)
        assert n.linf <= n.l2 * (1 + 1e-12)
        assert n.l2 <= np.sqrt(d) * n.linf * (1 + 1e-12)
