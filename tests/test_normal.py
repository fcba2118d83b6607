import mpmath
import numpy as np
import pytest

from carlab._normal import (
    normal_cdf,
    normal_pdf,
    normal_quantile,
    normal_upper,
    two_sided_p_value,
)
from carlab.errors import DomainError

mpmath.mp.dps = 40


def mp_cdf(x):
    return float(mpmath.ncdf(x))


@pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, -0.1, 0.0, 0.5, 1.0, 2.5, 3.0, 6.0])
def test_cdf_matches_high_precision(x):
    assert abs(normal_cdf(x) - mp_cdf(x)) < 1e-13


@pytest.mark.parametrize("x", [-5.0, -1.2, 0.0, 0.3, 2.0, 7.5])
def test_upper_tail_symmetric_exactly(x):
    assert normal_upper(x) + normal_upper(-x) == 1.0


def test_upper_matches_cdf():
    for x in np.linspace(-6, 6, 41):
        assert abs(normal_upper(x) - (1.0 - mp_cdf(x))) < 1e-13


def test_quantile_value():
    u = normal_quantile(0.975)
    assert abs(u - 1.959963984540054) < 1e-9
    assert round(u, 6) == 1.959964


def test_quantile_roundtrip():
    for p in (0.001, 0.05, 0.3, 0.5, 0.9, 0.999):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-12


def test_quantile_domain():
    with pytest.raises(DomainError):
        normal_quantile(0.0)
    with pytest.raises(DomainError):
        normal_quantile(1.0)


def test_pdf_normalizes():
    xs = np.linspace(-10, 10, 20001)
    area = np.trapezoid([normal_pdf(x) for x in xs], xs)
    assert abs(area - 1.0) < 1e-10


def test_two_sided_p():
    assert two_sided_p_value(0.0) == 1.0
    assert abs(two_sided_p_value(1.959963984540054) - 0.05) < 1e-12
    with pytest.raises(DomainError):
        two_sided_p_value(float("nan"))
