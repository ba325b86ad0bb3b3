"""zetasurf: zeta-regularized determinants, heat traces, Hilbert-Schmidt
determinants and Green's-function finite parts on model closed surfaces
(round sphere, rectangular flat torus), with verifiers for the exact
identities relating them."""

__version__ = "0.1.0"

from .anomaly import (AnomalyReport, MasslessReport, mass_shift_prefactor, verify_anomaly,
                      verify_cf, verify_laurent, verify_massless)
from .bessel import k0
from .gff import MCEstimate, measure_estimates, verify_gff
from .green import Det2Result, FinitePart, cf_mean, det2, gamma0, torus_cf_image_sum
from .heat import HeatCoeffs, HeatIntegral, heat_coeffs, heat_integral, heat_trace
from .surfaces import SurfaceModel, eigen_arrays, make_surface, parse_surface
from .zeta import (LaurentFit, TraceResult, ZetaResult, dirichlet_trace,
                   laurent_fit, zeta_det)

__all__ = [
    "__version__",
    "SurfaceModel", "make_surface", "parse_surface", "eigen_arrays",
    "HeatCoeffs", "HeatIntegral", "heat_coeffs", "heat_trace", "heat_integral",
    "ZetaResult", "TraceResult", "LaurentFit",
    "zeta_det", "dirichlet_trace", "laurent_fit",
    "Det2Result", "FinitePart", "gamma0", "det2", "cf_mean",
    "torus_cf_image_sum", "k0",
    "AnomalyReport", "MasslessReport", "verify_anomaly",
    "mass_shift_prefactor", "verify_massless", "verify_laurent", "verify_cf",
    "MCEstimate", "measure_estimates", "verify_gff",
]
