"""The quantized generators: truncated star-multiplication and its closed form.

Left star-multiplication by i*(alpha p + beta e^q) acts on (p, q) lattice
data as a terminating-in-alpha, factorially-convergent-in-beta series of
spectral p-derivatives.  Conjugating by the partial Fourier transform turns
it into the first-order operator

    alpha (1/2 d/dq - d/dx) + i beta e^{q - x/2}

on the (x, q) lattice, and a further shear to s = q - x/2, t = q + x/2 makes
it one-dimensional: alpha d/ds + i beta e^s.  The routines here implement
both sides of each identity so the agreement can be measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import (DOMAIN_PQ, DOMAIN_S, DOMAIN_ST, DOMAIN_XQ, DomainTagError,
                    GridFunction, derivative, norm_l2, spectral_derivative,
                    tail_mass_fraction)
from .lie_aff import LieAlgebraElement, bracket
from .rational import ComplexRational
from .symbol_algebra import ExpPolySymbol, compose


class SeriesDivergenceError(RuntimeError):
    """Raised when truncated-series terms grow instead of decaying."""


@dataclass(frozen=True)
class GeneratorOp:
    """The quantized generator attached to alpha*X + beta*Y.

    Acts as alpha (1/2 d/dq - d/dx) + i beta e^{q - x/2} on (x, q) grids and
    as alpha d/ds + i beta e^s on s-family grids; linear in (alpha, beta).
    """

    alpha: float
    beta: float

    @classmethod
    def from_element(cls, z: LieAlgebraElement) -> "GeneratorOp":
        return cls(float(z.alpha), float(z.beta))

    def __add__(self, other: "GeneratorOp") -> "GeneratorOp":
        return GeneratorOp(self.alpha + other.alpha, self.beta + other.beta)

    def apply(self, v: GridFunction, method: str = "spectral") -> GridFunction:
        return apply_generator(self, v, method=method)


def apply_generator(op: GeneratorOp, v: GridFunction,
                    method: str = "spectral") -> GridFunction:
    """Apply the closed-form generator on an (x, q), (s, t) or s grid."""
    spec = v.spec
    if v.domain == DOMAIN_XQ:
        x = spec.x_values()[:, None]
        q = spec.q_values()[None, :]
        dq_v = derivative(v.values, 1, spec.dq, method=method)
        dx_v = derivative(v.values, 0, spec.dx, method=method)
        out = op.alpha * (0.5 * dq_v - dx_v) + 1j * op.beta * np.exp(q - x / 2) * v.values
    elif v.domain == DOMAIN_ST:
        s = spec.s_values()[:, None]
        ds_v = derivative(v.values, 0, spec.dq, method=method)
        out = op.alpha * ds_v + 1j * op.beta * np.exp(s) * v.values
    elif v.domain == DOMAIN_S:
        s = spec.s_values()
        ds_v = derivative(v.values, 0, spec.dq, method=method)
        out = op.alpha * ds_v + 1j * op.beta * np.exp(s) * v.values
    else:
        raise DomainTagError(
            f"generator acts on 'xq', 'st' or 's' grids, got {v.domain!r}")
    return v.copy_with(out)


def ell_z_truncated(z: LieAlgebraElement, u: GridFunction, r_max: int,
                    stop_rtol: float = 1e-14,
                    divergence_factor: float = 1e6) -> GridFunction:
    """Left star-multiplication by i*(alpha p + beta e^q), truncated at r_max.

    Evaluates i * sum_{r<=r_max} (1/r!) (1/2i)^r P^r on lattice data, where
    the r = 0 term is multiplication by alpha p + beta e^q, r = 1 is
    alpha dq - beta e^q dp, and every higher term collapses to
    (-1)^r beta e^q dp^r.  p-derivatives are spectral.

    Terms are dropped once their norm falls below ``stop_rtol`` times the
    input norm (the truncation the series analysis justifies); a term growing
    past ``divergence_factor`` times the input norm means r_max exceeds what
    the lattice resolves, and raises SeriesDivergenceError.
    """
    u.require_domain(DOMAIN_PQ)
    if r_max < 0:
        raise ValueError("truncation order must be non-negative")
    spec = u.spec
    alpha = float(z.alpha)
    beta = float(z.beta)
    p = spec.p_values()[:, None]
    eq = np.exp(spec.q_values())[None, :]

    acc = (alpha * p + beta * eq) * u.values
    if r_max >= 1:
        dq_u = spectral_derivative(u.values, 1, spec.dq)
        dp_u = spectral_derivative(u.values, 0, spec.dp)
        # (1/2i) * P^1
        acc = acc + (-0.5j) * (alpha * dq_u - beta * eq * dp_u)

    if r_max >= 2 and beta != 0.0:
        u_norm = np.linalg.norm(u.values)
        u_hat = np.fft.fft(u.values, axis=0)
        omega = 2 * np.pi * np.fft.fftfreq(spec.n_p, spec.dp)[:, None]
        coeff = 0.5j  # accumulates (1/r!) (1/2i)^r (-1)^r = (i/2)^r / r!
        for r in range(2, r_max + 1):
            coeff = coeff * 0.5j / r
            dp_r = np.fft.ifft((1j * omega) ** r * u_hat, axis=0)
            term = coeff * beta * eq * dp_r
            term_norm = np.linalg.norm(term)
            if term_norm > divergence_factor * u_norm:
                raise SeriesDivergenceError(
                    f"term r={r} has norm {term_norm:.2e} vs input {u_norm:.2e}; "
                    "the lattice does not resolve p-derivatives of this order")
            acc = acc + term
            if term_norm < stop_rtol * u_norm:
                break

    return u.copy_with(1j * acc)


def to_s_coordinates(v: GridFunction, tail_warn: float | None = 1e-8) -> GridFunction:
    """Resample an (x, q) function onto the sheared (s, t) lattice.

    s = q - x/2 lives on the q-lattice and t = q + x/2 on the x-lattice.  The
    map is performed as two one-dimensional passes: a q-shift by x/2 within
    each x-column, then an x-shift by -s within each s-row.  Shifts that are
    exact lattice multiples use index arithmetic; fractional shifts use
    band-limited (Fourier phase-ramp) interpolation, which assumes the data
    decays inside the box.
    """
    v.require_domain(DOMAIN_XQ)
    spec = v.spec
    if tail_warn is not None:
        for axis, name in ((0, "x"), (1, "q")):
            frac = tail_mass_fraction(v.values, axis)
            if frac > tail_warn:
                warnings.warn(
                    f"to_s_coordinates: spectral tail mass {frac:.2e} along {name} "
                    f"exceeds {tail_warn:.1e}; band-limited interpolation will be "
                    "inaccurate", RuntimeWarning, stacklevel=2)

    x = spec.x_values()
    s = spec.s_values()

    # Pass 1: v1(x, s) = v(x, s + x/2), a per-column shift along q.
    v1 = _shift_along_axis(v.values, axis=1, delta=spec.dq, shifts=x / 2)
    # Pass 2: w(s, t) = v1(t - s, s), a per-row shift along x after transposing.
    w = _shift_along_axis(v1.T, axis=1, delta=spec.dx, shifts=-s)
    return GridFunction(spec, DOMAIN_ST, w)


def _shift_along_axis(values: np.ndarray, axis: int, delta: float,
                      shifts: np.ndarray) -> np.ndarray:
    """result[..., j] = values evaluated at coordinate + shift (per outer index).

    ``shifts`` has one entry per index of the other axis.  All-integer lattice
    shifts are rolled exactly; otherwise a Fourier phase ramp interpolates.
    """
    if axis != 1:
        raise ValueError("internal shift helper expects the shifted axis last")
    n = values.shape[1]
    steps = np.asarray(shifts) / delta
    rounded = np.rint(steps)
    if np.all(np.abs(steps - rounded) < 1e-9):
        offsets = rounded.astype(int) % n
        cols = (np.arange(n)[None, :] + offsets[:, None]) % n
        return np.take_along_axis(values, cols, axis=1)
    omega = 2 * np.pi * np.fft.fftfreq(n, delta)
    phase = np.exp(1j * np.outer(shifts, omega))
    return np.fft.ifft(phase * np.fft.fft(values, axis=1), axis=1)


def verify_conjugation(z: LieAlgebraElement, u: GridFunction, r_max: int,
                       method: str = "spectral") -> float:
    """Relative L2 mismatch between the two routes to the quantized generator.

    Route one: truncated star-multiplication on the (p, q) lattice followed
    by the partial Fourier transform.  Route two: the closed-form first-order
    operator applied after transforming.  Returns
    ||F(ell_Z u) - L_Z F(u)|| / ||u||, which decays factorially in r_max.
    """
    from .grids import partial_fourier

    route_series = partial_fourier(ell_z_truncated(z, u, r_max), tail_warn=None)
    route_closed = apply_generator(GeneratorOp.from_element(z),
                                   partial_fourier(u, tail_warn=None), method=method)
    diff = route_series.values - route_closed.values
    denom = norm_l2(u)
    if denom == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * route_series.measure()) / denom)


# -- exact generator algebra in the s-coordinate --------------------------------
#
# Reading p as d/ds and e^q as e^s, the symbol p^j e^{kq} stands for the
# operator e^{ks} d^j/ds^j, so the generators are exponential-polynomial
# symbols and symbol_algebra.compose multiplies them as operators.  The
# generator commutation relations are then checked with zero tolerance.

def generator_symbol(z: LieAlgebraElement) -> ExpPolySymbol:
    """Exact symbol of L_Z = alpha d/ds + i beta e^s.

    Accepts exact coefficients (int/Fraction) or floats, which convert to
    dyadic rationals without rounding.
    """
    return ExpPolySymbol({(1, 0): z.alpha, (0, 1): ComplexRational(0, z.beta)})


def _exact_coefficients(z: LieAlgebraElement) -> LieAlgebraElement:
    """z with each float coefficient replaced by the Fraction it equals."""
    if not (isinstance(z.alpha, float) or isinstance(z.beta, float)):
        return z
    return LieAlgebraElement(*(Fraction(c) if isinstance(c, float) else c
                               for c in (z.alpha, z.beta)))


def generator_commutator_matches_bracket(z: LieAlgebraElement,
                                         t: LieAlgebraElement) -> bool:
    """Whether [L_Z, L_T] equals L_[Z,T] exactly at the coefficient level.

    Exact when the elements carry rational (or dyadic float) coefficients:
    float coefficients are converted to their exact ``Fraction`` values
    first, so the bracket of a float and a Fraction is not rounded.
    """
    z, t = _exact_coefficients(z), _exact_coefficients(t)
    a, b = generator_symbol(z), generator_symbol(t)
    return compose(a, b) - compose(b, a) == generator_symbol(bracket(z, t))
