"""The benchmark's reference values against published constants.

    python3 -m pytest perfbench/test_oracles.py
"""
import math

import pytest

import oracles

# Glaisher-Kinkelin constant; zeta'(-1) = 1/12 - ln A
GLAISHER = 1.28242712910062263687
# eta(i) = Gamma(1/4) / (2 pi^{3/4}) and eta(2i) = Gamma(1/4) / (2^{11/8} pi^{3/4})
ETA_I = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
ETA_2I = math.gamma(0.25) / (2.0 ** (11.0 / 8.0) * math.pi ** 0.75)


def test_zeta_prime_minus1_matches_glaisher():
    assert oracles.ZETA_PRIME_MINUS1 == pytest.approx(1.0 / 12.0 - math.log(GLAISHER), abs=1e-15)


def test_sphere_det_prime_is_e_to_the_sixth_times_glaisher_fourth():
    # exp(1/2 - 4 zeta'(-1)) = e^{1/6} A^4 = 3.19531...
    assert oracles.sphere_det_prime(1.0) == pytest.approx(math.exp(1.0 / 6.0) * GLAISHER ** 4, rel=1e-14)
    assert oracles.sphere_det_prime(2.0) == pytest.approx(oracles.sphere_det_prime(1.0) * 2.0 ** (4.0 / 3.0),
                                                          rel=1e-14)


def test_sphere_quarter_mass_against_hurwitz_derivative():
    mpmath = pytest.importorskip("mpmath")
    # zeta(s) = 2 zeta_H(2s - 1, 1/2) on the unit sphere at m^2 = 1/4
    direct = float(4 * mpmath.zeta(-1, 0.5, derivative=1))
    assert oracles.sphere_zeta_prime_quarter(1.0) == pytest.approx(direct, abs=1e-14)
    assert oracles.sphere_zeta_prime_quarter(2.0) - oracles.sphere_zeta_prime_quarter(1.0) == pytest.approx(
        math.log(4.0) / 12.0, abs=1e-15)


def test_eta_at_i_and_2i():
    assert oracles.eta_imag(1.0) == pytest.approx(ETA_I, rel=1e-14)
    assert oracles.eta_imag(2.0) == pytest.approx(ETA_2I, rel=1e-14)


@pytest.mark.parametrize("l1,l2", [(1.0, 2.0), (1.5, 0.7), (0.5, 3.0)])
def test_torus_det_prime_is_symmetric_in_the_sides(l1, l2):
    # eta(i/y) = sqrt(y) eta(i y) makes L2^2 |eta(i L2/L1)|^4 symmetric
    assert oracles.torus_det_prime(l1, l2) == pytest.approx(oracles.torus_det_prime(l2, l1), rel=1e-13)


def test_square_torus_det_prime():
    assert oracles.torus_det_prime(1.0, 1.0) == pytest.approx(ETA_I ** 4, rel=1e-14)


@pytest.mark.parametrize("l1,l2", [(1.0, 1.0), (1.5, 0.7)])
def test_chowla_selberg_tends_to_kronecker(l1, l2):
    # zeta'(0; m^2) + ln m^2 is analytic in m^2 and tends to -ln det' as m -> 0;
    # extrapolate it to m^2 = 0 from four small masses (Neville)
    hs = [0.04, 0.02, 0.01, 0.005]
    col = [oracles.torus_zeta_prime(l1, l2, h) + math.log(h) for h in hs]
    for level in range(1, len(hs)):
        col = [(hs[i] * col[i + 1] - hs[i + level] * col[i]) / (hs[i] - hs[i + level])
               for i in range(len(hs) - level)]
    assert col[0] == pytest.approx(-math.log(oracles.torus_det_prime(l1, l2)), abs=1e-9)


def test_image_sum_matches_a_plain_double_loop():
    from scipy.special import k0

    l1, l2, m0 = 7.0, 11.0, 1.0
    images = math.fsum(float(k0(m0 * math.hypot(a * l1, b * l2)))
                       for a in range(-9, 10) for b in range(-6, 7) if (a, b) != (0, 0))
    expected = (math.log(2.0) - oracles.EULER + images) / (2.0 * math.pi)
    assert oracles.torus_cf(l1, l2, m0) == pytest.approx(expected, abs=1e-15)


def test_image_sum_on_a_large_torus_is_the_free_space_constant():
    # (ln 2 - gamma_E) / 2 pi, the small-z matching constant of K0
    ln2, euler_gamma = 0.69314718055994530942, 0.57721566490153286061
    assert oracles.torus_cf(60.0, 60.0, 1.0) == pytest.approx((ln2 - euler_gamma) / (2.0 * math.pi),
                                                              abs=1e-16)


def test_residue_is_the_weyl_coefficient():
    assert oracles.residue(4.0 * math.pi) == 1.0
