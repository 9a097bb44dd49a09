import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhnx.core import ModulusOutOfRange
from fhnx.specfn import jacobi_sn, jacobi_sn_cn_dn

from elliptic_oracle import incomplete_f, sn_oracle, sn_series

# Frozen before the implementation was written: quadrature inversion of the
# incomplete elliptic integral at z = 1, k = sqrt(1/2).
SN_ONE_HALFMOD = 0.8030018248956439


class TestDegenerateModuli:
    @pytest.mark.parametrize("z", [0.3, 1.0, 2.5])
    def test_modulus_zero_is_sine(self, z):
        assert jacobi_sn(z, 0.0) == pytest.approx(math.sin(z), abs=1e-15)

    @pytest.mark.parametrize("z", [0.3, 1.0, 2.5])
    def test_modulus_one_is_tanh(self, z):
        assert jacobi_sn(z, 1.0) == pytest.approx(math.tanh(z), abs=1e-15)

    def test_cn_dn_degenerate(self):
        cn, dn = jacobi_sn_cn_dn(0.0, 0.7)[1:]
        assert (cn, dn) == (1.0, 1.0)
        cn, dn = jacobi_sn_cn_dn(1.3, 0.0)[1:]
        assert cn == pytest.approx(math.cos(1.3), abs=1e-15)
        assert dn == 1.0


class TestAgainstOracle:
    def test_frozen_quadrature_value(self):
        k = math.sqrt(0.5)
        # the oracle itself reproduces the frozen constant
        assert sn_oracle(1.0, k) == pytest.approx(SN_ONE_HALFMOD, abs=1e-14)
        assert jacobi_sn(1.0, k) == pytest.approx(SN_ONE_HALFMOD, abs=1e-10)

    @pytest.mark.parametrize("k", [0.1, 0.5, math.sqrt(0.5), 0.9, 0.99])
    def test_quadrature_inversion_sweep(self, k):
        quarter = incomplete_f(math.pi / 2.0, k)
        for z in np.linspace(-0.95 * quarter, 0.95 * quarter, 11):
            assert jacobi_sn(float(z), k) == pytest.approx(
                sn_oracle(float(z), k), abs=1e-12
            )

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.8, 1.0])
    def test_series_for_small_arguments(self, k):
        for z in np.linspace(-0.2, 0.2, 7):
            assert jacobi_sn(float(z), k) == pytest.approx(
                sn_series(float(z), k), abs=1e-9
            )

    def test_sn_is_one_at_quarter_period(self):
        # F(pi/2, k) = K(k), where the AGM descent must reach sn = 1
        for k in (0.2, 0.6, 0.95):
            assert jacobi_sn(incomplete_f(math.pi / 2.0, k), k) == pytest.approx(
                1.0, abs=1e-12
            )


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(z=st.floats(-10.0, 10.0), k=st.floats(0.0, 1.0))
    def test_pythagorean_identities(self, z, k):
        sn, cn, dn = jacobi_sn_cn_dn(z, k)
        assert abs(sn) <= 1.0 + 1e-15
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + (k * sn) ** 2 - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-10.0, 10.0), k=st.floats(0.0, 1.0))
    def test_oddness(self, z, k):
        assert abs(jacobi_sn(-z, k) + jacobi_sn(z, k)) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-8.0, 8.0), k=st.floats(0.0, 0.999))
    def test_derivative_is_cn_dn(self, z, k):
        h = 1e-5
        fd = (jacobi_sn(z + h, k) - jacobi_sn(z - h, k)) / (2.0 * h)
        cn, dn = jacobi_sn_cn_dn(z, k)[1:]
        assert fd == pytest.approx(cn * dn, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-10.0, 10.0), k=st.floats(0.0, 0.995))
    def test_periodicity(self, z, k):
        period = 4.0 * incomplete_f(math.pi / 2.0, k)
        assert jacobi_sn(z + period, k) == pytest.approx(
            jacobi_sn(z, k), abs=1e-12
        )

    def test_identity_closure_half_modulus(self):
        sn, cn, dn = jacobi_sn_cn_dn(1.0, math.sqrt(0.5))
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + 0.5 * sn * sn - 1.0) <= 1e-12


class TestArgumentHandling:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.inf, math.nan])
    def test_modulus_out_of_range(self, bad):
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn(1.0, bad)
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn_cn_dn(1.0, bad)

    def test_vectorized_evaluation(self):
        z = np.linspace(-5.0, 5.0, 101)
        sn, cn, dn = jacobi_sn_cn_dn(z, 0.6)
        assert sn.shape == z.shape
        scalar = [jacobi_sn(float(zz), 0.6) for zz in z]
        np.testing.assert_allclose(sn, scalar, atol=1e-15)
        np.testing.assert_allclose(sn**2 + cn**2, 1.0, atol=1e-12)

    def test_modulus_not_parameter_convention(self):
        # k is the modulus: sn(z, 0.5) is not sn at parameter m = 0.5
        z = 1.2
        assert jacobi_sn(z, 0.5) == pytest.approx(sn_oracle(z, 0.5), abs=1e-12)
        assert abs(jacobi_sn(z, 0.5) - sn_oracle(z, math.sqrt(0.5))) > 1e-3
        dn = jacobi_sn_cn_dn(z, 0.5)[2]
        assert dn * dn == pytest.approx(1.0 - 0.25 * jacobi_sn(z, 0.5) ** 2, abs=1e-12)

    def test_quarter_period_degenerate_end(self):
        # K(0) = pi/2: sn and cn reduce to sin and cos there
        assert incomplete_f(math.pi / 2.0, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        sn, cn, dn = jacobi_sn_cn_dn(math.pi / 2.0, 0.0)
        assert sn == pytest.approx(1.0, abs=1e-15)
        assert cn == pytest.approx(0.0, abs=1e-15)
        assert dn == 1.0

    def test_elliptic_args_validation(self):
        with pytest.raises(ModulusOutOfRange):
            jacobi_sn_cn_dn(1.0, 1.5)
