"""Star-product quantization of the affine group of the real line.

The package builds, layer by layer: the two-dimensional Lie algebra and its
coadjoint orbits; an exact star-product on exponential-polynomial symbols of
the orbit chart; the quantized generators as pseudo-differential operators on
lattices, with a partial Fourier transform connecting the truncated series to
a closed first-order form; and the irreducible unitary representations of the
connected group, recovered by exponentiating those generators and checked
against the integrated initial-value problem.
"""

from .rational import ComplexRational
from .symbol_algebra import (ExpPolySymbol, compose, derive, p_r, poisson,
                             star, star_commutator)
from .lie_aff import (LieAlgebraElement, GroupElement, CoadjointPoint, OrbitId,
                      UPPER_HALF_PLANE, LOWER_HALF_PLANE, X, Y,
                      DegenerateOrbitError, adjoint_matrix, bracket,
                      classify_orbit, coadjoint_act, exp_group, hamiltonian,
                      kirillov_form)
from .grids import (GridSpec, GridFunction, DomainTagError, cosine_taper,
                    fd8_derivative, gaussian_pq, inverse_partial_fourier,
                    norm_l2, partial_fourier, plane_wave_xq,
                    spectral_derivative, tail_mass_fraction)
from .quantize import (GeneratorOp, SeriesDivergenceError, apply_generator,
                       ell_z_truncated, generator_commutator_matches_bracket,
                       generator_symbol, to_s_coordinates, verify_conjugation)
from .representation import (HalfLineFunction, ReprChoice, OMEGA_PLUS,
                             OMEGA_MINUS, LatticeMismatchError,
                             SignMismatchError, character_apply,
                             check_generator, evolve_cauchy,
                             generator_on_lattice, inner_product, norm,
                             rep_apply, rep_one_param)
from .verify import CheckResult, RunConfig, run_suites

__version__ = "0.1.0"
