import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fhnx.core import (
    ComplexResult,
    ConfigError,
    Grid,
    NonPositiveParameter,
    Params,
    ccbrt,
    csqrt,
    g,
    g_prime,
    is_effectively_real,
    require_real,
    worker_count,
)
from fhnx.solutions import FixedPoint, fixed_points


class TestParams:
    def test_benchmark_parameters_accepted(self):
        p = Params(1.03, 0.3, 2.0, 0)
        assert (p.D, p.epsilon, p.beta, p.c) == (1.03, 0.3, 2.0, 0.0)
        assert all(type(getattr(p, name)) is float for name in ("D", "epsilon", "beta", "c"))

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(D=0.0, epsilon=0.3, beta=2.0), "D"),
            (dict(D=1.0, epsilon=0.0, beta=2.0), "epsilon"),
            (dict(D=1.0, epsilon=0.3, beta=-2.0), "beta"),
            (dict(D=-1.0, epsilon=0.3, beta=2.0), "D"),
        ],
    )
    def test_nonpositive_rejected(self, kwargs, name):
        with pytest.raises(NonPositiveParameter) as err:
            Params(**kwargs)
        assert err.value.name == name

    def test_beta_one_flagged_degenerate(self):
        # beta = 1: the three isolated fixed points coalesce into a triple root
        assert fixed_points(Params(1.0, 0.1, 1.0, 0)) == [FixedPoint(0.0, 0.0, 3)]


class TestReaction:
    def test_values(self):
        assert g(0.0) == 0.0
        assert abs(g(math.sqrt(3.0))) < 1e-15
        assert g_prime(1.0) == 0.0

    @given(st.floats(-1e3, 1e3))
    def test_odd_symmetry(self, u):
        assert g(-u) == -g(u)

    def test_array_input(self):
        u = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(g(u), [0.0, 2.0 / 3.0, -2.0 / 3.0])
        np.testing.assert_allclose(g_prime(u), [1.0, 0.0, 0.0])


class TestComplexHelpers:
    @given(
        mag=st.floats(1e-6, 1e6),
        angle=st.floats(-math.pi, math.pi),
    )
    def test_sqrt_squares_back(self, mag, angle):
        z = mag * complex(math.cos(angle), math.sin(angle))
        w = csqrt(z)
        assert abs(w * w - z) <= 1e-14 * abs(z)

    def test_sqrt_principal_branch(self):
        assert csqrt(-1.0).imag > 0  # upper half plane
        assert csqrt(4.0) == 2.0

    def test_cbrt_principal_branch(self):
        assert ccbrt(8.0) == pytest.approx(2.0)
        w = ccbrt(-8.0)
        assert w == pytest.approx(complex(1.0, math.sqrt(3.0)))
        assert abs(w**3 - (-8.0)) < 1e-13
        assert ccbrt(0.0) == 0.0

    def test_effectively_real_threshold(self):
        assert is_effectively_real(5.0 + 4e-9j)
        assert not is_effectively_real(5.0 + 6e-9j)
        assert is_effectively_real(complex(0.0, 0.9e-9))
        assert not is_effectively_real(complex(0.0, 1.1e-9))

    def test_require_real(self):
        assert require_real(3.0 + 1e-12j) == 3.0
        with pytest.raises(ComplexResult):
            require_real(3.0 + 1e-3j)
        arr = require_real(np.array([1.0 + 0j, 2.0 + 1e-13j]))
        np.testing.assert_allclose(arr, [1.0, 2.0])


class TestGrid:
    def test_spacing(self):
        grid = Grid(x_min=-3.0, x_max=3.0, nx=201, t_min=0.0, t_max=5.0, nt=101)
        assert grid.dx == pytest.approx(0.03)
        assert grid.dt == pytest.approx(0.05)
        assert grid.xs().shape == (201,)
        T, X = grid.meshes()
        assert T.shape == X.shape == (101, 201)

    def test_steady_grid(self):
        grid = Grid(x_min=0.0, x_max=1.0, nx=3)
        assert grid.nt == 1 and grid.dt == 0.0
        assert grid.ts().tolist() == [0.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=0.0, x_max=1.0, nx=2),
            dict(x_min=1.0, x_max=0.0, nx=3),
            dict(x_min=0.0, x_max=1.0, nx=3, t_min=1.0, t_max=0.0),
            dict(x_min=0.0, x_max=1.0, nx=3, t_min=0.0, t_max=0.0, nt=5),
        ],
    )
    def test_invalid_grids(self, kwargs):
        with pytest.raises(ConfigError):
            Grid(**kwargs)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FHNX_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("FHNX_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("FHNX_THREADS", "zero")
    assert worker_count() == 1
    monkeypatch.setenv("FHNX_THREADS", "-3")
    assert worker_count() == 1
