import cmath
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
    _check_imag,
    _splitmix64,
    _uniforms,
    ccbrt,
    g,
    g_prime,
    is_effectively_real,
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
    def test_cbrt_cubes_back(self, mag, angle):
        z = mag * complex(math.cos(angle), math.sin(angle))
        w = ccbrt(z)
        assert abs(w**3 - z) <= 1e-13 * abs(z)
        assert -math.pi / 3.0 <= cmath.phase(w) <= math.pi / 3.0 + 1e-15

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

    def test_check_imag(self):
        # the threshold of is_effectively_real, on the two parts
        _check_imag(3.0, 1e-12, "value")
        _check_imag(np.array([1.0, 5.0, 0.0]), np.array([0.0, 4e-9, 0.9e-9]), "value")
        with pytest.raises(ComplexResult, match="^value has imaginary part 1.000e-03 above"):
            _check_imag(3.0, 1e-3, "value")
        with pytest.raises(ComplexResult, match="^factor has imaginary part 6.000e-09 above"):
            _check_imag(np.array([1.0, 5.0]), np.array([0.0, -6e-9]), "factor")


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


class TestUniformStream:
    def test_splitmix64_reference_outputs(self):
        # the first outputs of SplitMix64 seeded with 0 and with 1234567
        assert _splitmix64(0, 0, 3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _splitmix64(1234567, 0, 3).tolist() == [
            0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64, 10**30])
    def test_draw_depends_on_seed_and_index_alone(self, seed):
        whole = _uniforms(seed, 0, 40)
        assert whole.dtype == np.float64
        assert np.all((whole >= 0.0) & (whole < 1.0))
        assert np.array_equal(_uniforms(seed, 13, 29), whole[13:29])
        assert len(_uniforms(seed, 5, 5)) == 0

    def test_every_limb_of_the_seed_counts(self):
        draws = {bytes(_uniforms(seed, 0, 4)) for seed in
                 (1, 2**64 + 1, 2**128 + 1, 10**30, 10**30 + 2**64)}
        assert len(draws) == 5
        # below 2**64 the key is the seed: draws are the top 53 bits of the outputs
        assert np.array_equal(_uniforms(1234567, 0, 3),
                              (_splitmix64(1234567, 0, 3) >> np.uint64(11)) * 2.0**-53)
