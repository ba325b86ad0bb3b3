import math

import numpy as np
import pytest

from zetasurf import k0

# reference values computed with mpmath.besselk(0, z) at 30 digits
K0_REFERENCE = {
    0.1: 2.4270690247020166125,
    0.5: 0.92441907122766586178,
    1.0: 0.42102443824070833334,
    1.5: 0.21380556264752573672,
    2.0: 0.11389387274953343565,
    2.5: 0.062347553200366186029,
    3.0: 0.034739504386279248072,
    5.0: 0.0036910983340425942747,
    10.0: 0.000017780062316167651811,
    25.0: 3.4641615622131143554e-12,
}


@pytest.mark.parametrize("z,ref", sorted(K0_REFERENCE.items()))
def test_k0_reference_values(z, ref):
    assert k0(z) == pytest.approx(ref, rel=5e-13)


def test_k0_vectorized_matches_scalar():
    zs = np.array([0.3, 1.7, 2.0, 2.3, 9.0])
    vals = k0(zs)
    for z, v in zip(zs, vals):
        assert v == k0(float(z))


def test_k0_monotone_decreasing():
    zs = np.linspace(0.05, 30.0, 400)
    vals = k0(zs)
    assert np.all(np.diff(vals) < 0)


def test_k0_large_argument_asymptotics():
    # K0(z) ~ sqrt(pi/2z) e^{-z} (1 - 1/8z) for large z
    z = 60.0
    lead = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
    assert k0(z) == pytest.approx(lead * (1 - 1 / (8 * z)), rel=1e-3)


def test_k0_rejects_nonpositive():
    with pytest.raises(ValueError):
        k0(0.0)
    with pytest.raises(ValueError):
        k0(-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_k0_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        k0(bad)
    with pytest.raises(ValueError, match="finite"):
        k0(np.array([1.0, bad]))
