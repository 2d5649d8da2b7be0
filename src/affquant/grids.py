"""Rectangular lattices for the quantization pipeline and their transforms.

A (p, q) lattice carries complex samples of phase-space functions; the
partial Fourier transform exchanges the p-axis for its dual x-lattice.  The
discrete transform uses the kernel (1/sqrt(2 pi)) e^{-ipx} and is scaled to
be exactly unitary with respect to the lattice measures, so Parseval holds
to rounding error and transform identities can be tested tightly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

DOMAIN_PQ = "pq"
DOMAIN_XQ = "xq"
DOMAIN_ST = "st"
DOMAIN_S = "s"

# 8th-order central first-difference coefficients (offsets 1..4).
_FD8_COEFFS = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
# Largest |symbol| of the fd8 stencil, in units of 1/delta.
FD8_MAX_FREQ = 1.7305984210
_TAIL_BAND_FRACTION = 0.1


class DomainTagError(ValueError):
    """Raised when a grid operation receives a function on the wrong domain."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform (p, q) lattice and its Fourier-dual x-lattice.

    Sample counts must be powers of two and at least 8.  Lattices follow the
    periodic convention: p_j = p_min + j dp for j < n_p, and the centred dual
    lattice x_k = (k - n_p/2) dx with dx dp = 2 pi / n_p.
    """

    p_min: float = -16.0
    p_max: float = 16.0
    q_min: float = -8.0
    q_max: float = 8.0
    n_p: int = 256
    n_q: int = 256

    def __post_init__(self):
        for name in ("n_p", "n_q"):
            n = getattr(self, name)
            if not _is_power_of_two(n) or n < 8:
                raise ValueError(f"{name} must be a power of two >= 8, got {n}")
        if not (self.p_max > self.p_min and self.q_max > self.q_min):
            raise ValueError("lattice extents must be strictly positive")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dx(self) -> float:
        return 2 * np.pi / (self.n_p * self.dp)

    def p_values(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_p)

    def q_values(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n_q)

    def x_values(self) -> np.ndarray:
        return (np.arange(self.n_p) - self.n_p // 2) * self.dx

    def s_values(self) -> np.ndarray:
        """The q-lattice reused as the s-lattice after the shear to (s, t)."""
        return self.q_values()

    def t_values(self) -> np.ndarray:
        """The x-lattice reused as the t-lattice after the shear to (s, t)."""
        return self.x_values()


@dataclass
class GridFunction:
    """Complex samples on a lattice, tagged by domain.

    Shapes by domain: "pq" and "xq" are (n_p, n_q) with the p- or x-axis
    first; "st" is (n_q, n_p) with s on the q-lattice and t on the x-lattice;
    "s" is one-dimensional on the q-lattice-as-s.
    """

    spec: GridSpec
    domain: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        expected = {
            DOMAIN_PQ: (self.spec.n_p, self.spec.n_q),
            DOMAIN_XQ: (self.spec.n_p, self.spec.n_q),
            DOMAIN_ST: (self.spec.n_q, self.spec.n_p),
            DOMAIN_S: (self.spec.n_q,),
        }
        if self.domain not in expected:
            raise DomainTagError(f"unknown domain tag {self.domain!r}")
        if self.values.shape != expected[self.domain]:
            raise ValueError(
                f"values shape {self.values.shape} does not match domain "
                f"{self.domain!r} (expected {expected[self.domain]})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    def require_domain(self, domain: str) -> None:
        if self.domain != domain:
            raise DomainTagError(
                f"expected a {domain!r}-domain grid function, got {self.domain!r}")

    def copy_with(self, values: np.ndarray, domain: str | None = None) -> "GridFunction":
        return GridFunction(self.spec, domain or self.domain, values)

    def measure(self) -> float:
        """Cell volume of the lattice underlying this domain."""
        s = self.spec
        return {
            DOMAIN_PQ: s.dp * s.dq,
            DOMAIN_XQ: s.dx * s.dq,
            DOMAIN_ST: s.dq * s.dx,
            DOMAIN_S: s.dq,
        }[self.domain]


def norm_l2(u: GridFunction) -> float:
    """L2 norm with the lattice measure of the function's domain."""
    return float(np.sqrt(np.sum(np.abs(u.values) ** 2) * u.measure()))


def tail_mass_fraction(values: np.ndarray, axis: int,
                       band: float = _TAIL_BAND_FRACTION) -> float:
    """Fraction of spectral energy in the outer ``band`` of frequencies.

    A non-negligible fraction means the data is not band-limited on this
    lattice and spectral shifts/derivatives along ``axis`` are unreliable.
    """
    spec = np.fft.fft(values, axis=axis)
    n = values.shape[axis]
    freqs = np.fft.fftfreq(n)
    mask = np.abs(freqs) >= 0.5 * (1 - band)
    total = np.sum(np.abs(spec) ** 2)
    if total == 0:
        return 0.0
    sl = [slice(None)] * values.ndim
    sl[axis] = mask
    return float(np.sum(np.abs(spec[tuple(sl)]) ** 2) / total)


def _warn_tail(values: np.ndarray, axis: int, threshold, what: str) -> None:
    if threshold is None:
        return
    frac = tail_mass_fraction(values, axis)
    if frac > threshold:
        warnings.warn(
            f"{what}: {frac:.2e} of the spectral mass sits in the outer "
            f"frequency band (threshold {threshold:.1e}); the data is not "
            "band-limited on this lattice", RuntimeWarning, stacklevel=3)


def partial_fourier(u: GridFunction, tail_warn: float | None = 1e-6) -> GridFunction:
    """Partial Fourier transform along p, row by row in q.

    Discretizes (1/sqrt(2 pi)) integral e^{-ipx} u(p, q) dp onto the centred
    x-lattice.  The scaling makes the map exactly unitary between the (p, q)
    and (x, q) lattice measures.
    """
    u.require_domain(DOMAIN_PQ)
    spec = u.spec
    _warn_tail(u.values, 0, tail_warn, "partial_fourier")
    signs = np.where(np.arange(spec.n_p) % 2 == 0, 1.0, -1.0)[:, None]
    transformed = np.fft.fft(signs * u.values, axis=0)
    phase = np.exp(-1j * spec.p_min * spec.x_values())[:, None]
    out = (spec.dp / np.sqrt(2 * np.pi)) * phase * transformed
    return GridFunction(spec, DOMAIN_XQ, out)


def inverse_partial_fourier(v: GridFunction) -> GridFunction:
    """Inverse of :func:`partial_fourier`; round trips to rounding error."""
    v.require_domain(DOMAIN_XQ)
    spec = v.spec
    phase = np.exp(1j * spec.p_min * spec.x_values())[:, None]
    back = np.fft.ifft(phase * v.values, axis=0)
    signs = np.where(np.arange(spec.n_p) % 2 == 0, 1.0, -1.0)[:, None]
    out = (spec.dx * spec.n_p / np.sqrt(2 * np.pi)) * signs * back
    return GridFunction(spec, DOMAIN_PQ, out)


def spectral_derivative(values: np.ndarray, axis: int, delta: float,
                        order: int = 1) -> np.ndarray:
    """Differentiate along ``axis`` by multiplying with (i omega)^order in Fourier space."""
    n = values.shape[axis]
    omega = 2 * np.pi * np.fft.fftfreq(n, delta)
    shape = [1] * values.ndim
    shape[axis] = n
    mult = (1j * omega) ** order
    return np.fft.ifft(mult.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)


def fd8_derivative(values: np.ndarray, axis: int, delta: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """First derivative by the 8th-order central stencil with periodic wrap.

    The stencil is local, so a mismatch between the two ends of a truncated
    domain only pollutes the four cells next to each edge.  One periodic
    halo copy of four cells per side is built along ``axis``; the terms
    c_k (f_{j+k} - f_{j-k}) are then summed in place into ``out`` (a
    complex128 array of the shape of ``values`` whose last axis is
    contiguous, allocated when omitted), which is returned.

    Real scalars multiply the float64 view of the complex data, and the
    division by ``delta`` is a multiplication by ``1.0 / delta``: numpy
    divides a complex array by a real scalar exactly that way, so the
    result equals the term-by-term complex expression bit for bit.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[axis]
    if n < 4:
        raise ValueError(f"fd8 needs at least 4 samples along axis {axis}, got {n}")
    lead = (slice(None),) * (axis % values.ndim)

    def along(start, stop):
        return lead + (slice(start, stop),)

    pad = np.concatenate((values[along(n - 4, n)], values, values[along(0, 4)]),
                         axis=axis)
    if out is None:
        out = np.empty(values.shape, dtype=complex)
    term = np.empty(values.shape, dtype=complex)
    for offset, c in enumerate(_FD8_COEFFS, start=1):
        dst = out if offset == 1 else term
        np.subtract(pad[along(4 + offset, n + 4 + offset)],
                    pad[along(4 - offset, n + 4 - offset)], out=dst)
        dst_re = dst.view(np.float64)
        np.multiply(dst_re, c, out=dst_re)
        if offset > 1:
            np.add(out, term, out=out)
    out_re = out.view(np.float64)
    np.multiply(out_re, 1.0 / delta, out=out_re)
    return out


def derivative(values: np.ndarray, axis: int, delta: float, order: int = 1,
               method: str = "spectral", out: np.ndarray | None = None) -> np.ndarray:
    """Derivative along one axis; ``method`` is "spectral" or "fd8".

    When ``out`` is given the result is written into it and it is returned.
    """
    if method == "spectral":
        result = spectral_derivative(values, axis, delta, order)
        if out is None:
            return result
        out[...] = result
        return out
    if method == "fd8":
        if order != 1:
            raise ValueError("fd8 differentiation is implemented for first derivatives only")
        return fd8_derivative(values, axis, delta, out=out)
    raise ValueError(f"unknown derivative method {method!r}")


def cosine_taper(n: int, frac: float = 0.1) -> np.ndarray:
    """Window equal to 1 inside, rolling off to 0 over the outer ``frac`` of each end."""
    if not 0 < frac < 0.5:
        raise ValueError("taper fraction must lie in (0, 0.5)")
    w = np.ones(n)
    m = max(1, int(round(n * frac)))
    ramp = 0.5 * (1 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[-m:] = ramp[::-1]
    return w


def taper_2d(spec: GridSpec, frac: float = 0.1) -> np.ndarray:
    return np.outer(cosine_taper(spec.n_p, frac), cosine_taper(spec.n_q, frac))


def gaussian_pq(spec: GridSpec, sigma_p: float = 1.0, sigma_q: float = 1.0,
                taper: bool = True) -> GridFunction:
    """Separable Gaussian test function on the (p, q) lattice.

    The default widths decay far inside the standard box, so the function is
    band-limited and the cosine taper only touches negligible values.
    """
    p = spec.p_values()[:, None]
    q = spec.q_values()[None, :]
    vals = np.exp(-(p / sigma_p) ** 2 / 2 - (q / sigma_q) ** 2 / 2).astype(complex)
    if taper:
        vals = vals * taper_2d(spec)
    return GridFunction(spec, DOMAIN_PQ, vals)


def plane_wave_xq(spec: GridSpec, m_x: int, m_q: int) -> GridFunction:
    """Lattice-periodic plane wave e^{i(k1 x + k2 q)} on the (x, q) lattice.

    Frequencies are chosen as exact lattice harmonics: k1 = m_x * dp and
    k2 = m_q * 2 pi / (q extent), so the wave is an exact eigenfunction of
    the spectral derivatives.
    """
    k1 = m_x * spec.dp
    k2 = m_q * 2 * np.pi / (spec.q_max - spec.q_min)
    x = spec.x_values()[:, None]
    q = spec.q_values()[None, :]
    vals = np.exp(1j * (k1 * x + k2 * q))
    return GridFunction(spec, DOMAIN_XQ, vals)


def plane_wave_frequencies(spec: GridSpec, m_x: int, m_q: int) -> tuple[float, float]:
    """The (k1, k2) frequencies used by :func:`plane_wave_xq`."""
    return m_x * spec.dp, m_q * 2 * np.pi / (spec.q_max - spec.q_min)
