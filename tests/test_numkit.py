import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from transopt import numkit
from transopt.errors import DimensionError


def vec(*values):
    return np.array(values, dtype=np.float64)


finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)


class TestElementwise:
    def test_clamp_boundary_and_interior(self):
        np.testing.assert_array_equal(
            numkit.clamp(vec(-3, 0.5, 9), 0.0, 1.0), vec(0, 0.5, 1))

    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(
            numkit.clamp(vec(-3, 0.5, 9), vec(-1, 0, 1), 2.0), vec(-1, 0.5, 2))

    def test_inputs_unmodified(self):
        a, lo, hi = vec(-3, 9), vec(0, 0), vec(1, 1)
        numkit.clamp(a, lo, hi)
        np.testing.assert_array_equal(a, vec(-3, 9))
        np.testing.assert_array_equal(lo, vec(0, 0))
        np.testing.assert_array_equal(hi, vec(1, 1))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            numkit.clamp(vec(1, 2), vec(0, 0, 0), 1.0)


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


class TestDot:
    def test_orthogonal(self):
        assert numkit.dot(vec(1, 0), vec(0, 1)) == 0.0

    def test_arithmetic(self):
        assert numkit.dot(vec(1, 2), vec(3, 4)) == 11.0

    def test_self_dot_is_l2_squared(self):
        a = vec(1.5, -2.0, 0.25)
        assert numkit.dot(a, a) == pytest.approx(numkit.norms(a).l2 ** 2,
                                                 rel=1e-12)

    def test_mismatch(self):
        with pytest.raises(DimensionError):
            numkit.dot(vec(1, 2), vec(1, 2, 3))


class TestProperties:
    @given(finite_vectors)
    def test_norm_sandwich(self, a):
        n = numkit.norms(a)
        d = len(a)
        assert n.linf <= n.l2 * (1 + 1e-12)
        assert n.l2 <= np.sqrt(d) * n.linf * (1 + 1e-12)

    @given(finite_vectors,
           st.floats(min_value=-10, max_value=0),
           st.floats(min_value=0, max_value=10))
    def test_clamp_lands_in_interval(self, a, lo, hi):
        out = numkit.clamp(a, lo, hi)
        assert np.all(out >= lo) and np.all(out <= hi)
