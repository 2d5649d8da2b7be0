"""Irreducible unitary representations of the connected affine group.

The infinite-dimensional representations act on L2 of a half-line with the
scale-invariant measure dy/|y| by (T(g) f)(y) = e^{iby} f(ay).  On the
logarithmic lattice y = sigma e^s the measure pulls back to Lebesgue ds, the
dilation part becomes a shift in s, and unitarity is a lattice-exact
statement.  The one-parameter flows solve the transport equation

    du/dt = alpha du/ds + i beta sigma e^s u,

which is integrated here both along characteristics (exact shift plus a
quadrature phase) and by RK4 on the discretized operator, so the closed form
and the initial-value problem validate each other.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import FD8_MAX_FREQ, cosine_taper, derivative
from .lie_aff import GroupElement, LieAlgebraElement


class LatticeMismatchError(ValueError):
    """Raised when two half-line functions live on different lattices."""


class SignMismatchError(ValueError):
    """Raised when a representation choice and a half-line sign disagree."""


@dataclass(frozen=True)
class ReprChoice:
    """One entry of the representation list.

    kind is "omega_plus", "omega_minus" or "character"; characters carry
    epsilon in {0, 1} and a real lambda and are one-dimensional.
    """

    kind: str
    epsilon: int | None = None
    lam: float | None = None

    @classmethod
    def character(cls, epsilon: int, lam: float) -> "ReprChoice":
        if epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")
        return cls("character", epsilon, lam)

    @property
    def sigma(self) -> int:
        if self.kind == "omega_plus":
            return 1
        if self.kind == "omega_minus":
            return -1
        raise ValueError("characters do not act on a half-line")


OMEGA_PLUS = ReprChoice("omega_plus")
OMEGA_MINUS = ReprChoice("omega_minus")


@dataclass
class HalfLineFunction:
    """Samples of f on the logarithmic lattice y = sigma e^s.

    s_j = -s_max + j * ds with ds = 2 s_max / n (periodic convention), so
    the plain l2 sum with weight ds equals the L2(dy/|y|) norm of f.
    """

    sigma: int
    s_max: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.s_max <= 0:
            raise ValueError("s_max must be positive")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("half-line samples must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("half-line samples must be finite")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ds(self) -> float:
        return 2 * self.s_max / self.n

    def s_values(self) -> np.ndarray:
        return -self.s_max + self.ds * np.arange(self.n)

    def y_values(self) -> np.ndarray:
        return self.sigma * np.exp(self.s_values())

    def copy_with(self, values: np.ndarray) -> "HalfLineFunction":
        return HalfLineFunction(self.sigma, self.s_max, values)

    def same_lattice(self, other: "HalfLineFunction") -> bool:
        return (self.sigma == other.sigma and self.n == other.n
                and self.s_max == other.s_max)

    @classmethod
    def from_callable(cls, fn, sigma: int = 1, s_max: float = 8.0, n: int = 4096,
                      taper: bool = True) -> "HalfLineFunction":
        """Sample fn(s) on the lattice, optionally tapered to zero at the ends."""
        obj = cls(sigma, s_max, np.zeros(n, dtype=complex))
        vals = np.asarray(fn(obj.s_values()), dtype=complex)
        if taper:
            vals = vals * cosine_taper(n)
        obj.values = vals
        return obj

    @classmethod
    def gaussian(cls, sigma: int = 1, s_max: float = 8.0, n: int = 4096,
                 center: float = 0.0, width: float = 1.0,
                 taper: bool = True) -> "HalfLineFunction":
        """exp(-((s - center)/width)^2), the standard smooth test function."""
        return cls.from_callable(lambda s: np.exp(-((s - center) / width) ** 2),
                                 sigma=sigma, s_max=s_max, n=n, taper=taper)


def inner_product(f: HalfLineFunction, g: HalfLineFunction) -> complex:
    """Trapezoid value of integral conj(f) g ds on the shared lattice.

    Under the periodic lattice convention the trapezoid weights are uniform,
    so this is ds * sum conj(f_j) g_j.
    """
    if not f.same_lattice(g):
        raise LatticeMismatchError("inner product requires matching lattices and signs")
    return complex(np.vdot(f.values, g.values) * f.ds)


def norm(f: HalfLineFunction) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


def _shift_samples(values: np.ndarray, h: float, ds: float) -> np.ndarray:
    """result[j] = f(s_j + h): exact roll for lattice shifts, else band-limited."""
    steps = h / ds
    rounded = round(steps)
    if abs(steps - rounded) < 1e-9:
        return np.roll(values, -rounded)
    n = len(values)
    omega = 2 * np.pi * np.fft.fftfreq(n, ds)
    return np.fft.ifft(np.fft.fft(values) * np.exp(1j * omega * h))


def _warn_window(f: HalfLineFunction, h: float, window_tol: float | None) -> None:
    """Estimate the mass that a shift by h wraps across the window edges."""
    if window_tol is None or h == 0:
        return
    m = min(f.n, int(abs(h) / f.ds) + 1)
    power = np.abs(f.values) ** 2
    total = power.sum()
    if total == 0:
        return
    edge = power[:m].sum() + power[-m:].sum()
    frac = float(edge / total)
    if frac > window_tol:
        warnings.warn(
            f"shift by {h:.3g} moves {frac:.2e} of the mass across the "
            f"truncated s-window (threshold {window_tol:.1e})",
            RuntimeWarning, stacklevel=3)


def rep_apply(choice: ReprChoice, g: GroupElement, f: HalfLineFunction,
              window_tol: float | None = 1e-8) -> HalfLineFunction:
    """(T(g) f)(y) = e^{iby} f(ay) on the half-line of the chosen orbit.

    On the log-lattice the dilation acts as a shift by ln(a) in s and the
    translation part a pointwise unimodular phase, so the map is an exact
    lattice isometry whenever ln(a) is a lattice multiple.
    """
    if choice.kind == "character":
        raise ValueError("rep_apply acts on the infinite-dimensional representations")
    if choice.sigma != f.sigma:
        raise SignMismatchError(
            f"{choice.kind} acts on sigma={choice.sigma} functions, got sigma={f.sigma}")
    h = math.log(float(g.a))
    _warn_window(f, h, window_tol)
    shifted = _shift_samples(f.values, h, f.ds)
    phase = np.exp(1j * float(g.b) * f.y_values())
    return f.copy_with(phase * shifted)


def rep_one_param(z: LieAlgebraElement, t: float, f: HalfLineFunction,
                  window_tol: float | None = 1e-8) -> HalfLineFunction:
    """Closed form of the one-parameter flow T(exp tZ).

    The phase coefficient beta (e^{t alpha} - 1)/alpha is evaluated through
    expm1 so the alpha -> 0 limit (coefficient beta t) is reached smoothly.
    """
    alpha = float(z.alpha)
    beta = float(z.beta)
    h = t * alpha
    if alpha == 0.0:
        b_t = beta * t
    else:
        b_t = beta * math.expm1(h) / alpha
    _warn_window(f, h, window_tol)
    shifted = _shift_samples(f.values, h, f.ds)
    phase = np.exp(1j * b_t * f.y_values())
    return f.copy_with(phase * shifted)


RK4_IMAGINARY_STABILITY = 2.0 * math.sqrt(2.0)


def evolve_cauchy(z: LieAlgebraElement, t: float, f: HalfLineFunction,
                  steps: int, method: str = "characteristics",
                  deriv: str = "spectral") -> HalfLineFunction:
    """Integrate du/dt = alpha du/ds + i beta sigma e^s u from 0 to t.

    method "characteristics" shifts the profile by alpha*t and multiplies by
    the phase exp(i beta sigma e^s J) with J = integral_0^t e^{alpha tau} d tau
    evaluated by composite Simpson quadrature; it is unconditionally stable.
    method "rk4" is the classic Runge-Kutta scheme on the discretized
    operator (derivative backend "spectral" or "fd8"); a warning is issued
    when the step size leaves RK4's imaginary-axis stability region, and
    FloatingPointError is raised if the integrated profile is not finite.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    alpha = float(z.alpha)
    beta = float(z.beta)
    s = f.s_values()

    if method == "characteristics":
        panels = steps if steps % 2 == 0 else steps + 1
        tau = np.linspace(0.0, t, panels + 1)
        weights = np.ones(panels + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        j_int = float(np.sum(weights * np.exp(alpha * tau)) * (t / panels) / 3.0)
        shifted = _shift_samples(f.values, alpha * t, f.ds)
        phase = np.exp(1j * beta * f.sigma * np.exp(s) * j_int)
        return f.copy_with(phase * shifted)

    if method != "rk4":
        raise ValueError(f"unknown evolution method {method!r}")

    dt = t / steps
    omega_max = (np.pi if deriv == "spectral" else FD8_MAX_FREQ) / f.ds
    cfl = (abs(alpha) * omega_max + abs(beta) * math.exp(f.s_max)) * abs(dt)
    if cfl > RK4_IMAGINARY_STABILITY:
        warnings.warn(
            f"RK4 step size violates the stability bound: |lambda| dt = {cfl:.2f} "
            f"> 2*sqrt(2); increase steps or shrink the s-window", RuntimeWarning)

    mult = 1j * beta * f.sigma * np.exp(s)

    # Every stage is computed in place; the operations and their order are
    # those of u + (dt/6) (k1 + 2 k2 + 2 k3 + k4) with k = alpha D w + mult w,
    # so the result equals the allocating form bit for bit.  Real scalars
    # multiply float64 views, which gives the values of complex * float.
    def scale(dst, x, c):
        np.multiply(x.view(np.float64), c, out=dst.view(np.float64))

    def rhs(v, k):
        derivative(v, 0, f.ds, method=deriv, out=k)
        scale(k, k, alpha)
        np.multiply(mult, v, out=scratch)
        np.add(k, scratch, out=k)

    def stage(k, h):
        scale(w, k, h)
        np.add(u, w, out=w)

    u = f.values.astype(complex)
    k1, k2, k3, k4, w, scratch = (np.empty_like(u) for _ in range(6))
    for _ in range(steps):
        rhs(u, k1)
        stage(k1, 0.5 * dt)
        rhs(w, k2)
        stage(k2, 0.5 * dt)
        rhs(w, k3)
        stage(k3, dt)
        rhs(w, k4)
        scale(scratch, k2, 2.0)
        np.add(k1, scratch, out=k1)
        scale(scratch, k3, 2.0)
        np.add(k1, scratch, out=k1)
        np.add(k1, k4, out=k1)
        scale(k1, k1, dt / 6.0)
        np.add(u, k1, out=u)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError(
            f"RK4 produced non-finite values: |lambda| dt = {cfl:.2f} against the "
            f"stability bound 2*sqrt(2) = {RK4_IMAGINARY_STABILITY:.2f}; increase "
            "steps or shrink the s-window")
    return f.copy_with(u)


def generator_on_lattice(z: LieAlgebraElement, f: HalfLineFunction,
                         deriv: str = "spectral") -> HalfLineFunction:
    """alpha df/ds + i beta y f, the infinitesimal action on the lattice."""
    vals = (float(z.alpha) * derivative(f.values, 0, f.ds, method=deriv)
            + 1j * float(z.beta) * f.y_values() * f.values)
    return f.copy_with(vals)


def check_generator(z: LieAlgebraElement, f: HalfLineFunction, h: float,
                    deriv: str = "spectral") -> float:
    """Relative mismatch of the flow derivative against the generator.

    Central difference of rep_one_param at +-h versus the lattice generator;
    decays as O(h^2) on smooth data.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    fwd = rep_one_param(z, h, f, window_tol=None)
    bwd = rep_one_param(z, -h, f, window_tol=None)
    diff = (fwd.values - bwd.values) / (2 * h)
    gen = generator_on_lattice(z, f, deriv=deriv).values
    denom = norm(f)
    if denom == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(diff - gen) ** 2) * f.ds) / denom)


def character_apply(epsilon: int, lam: float, a: float, b: float) -> complex:
    """One-dimensional representation |a|^{i lambda} (sgn a)^epsilon.

    Defined on the full group of affine maps, so a may be negative but not
    zero; b never enters.  Multiplicative in (a, b).
    """
    if epsilon not in (0, 1):
        raise ValueError("epsilon must be 0 or 1")
    a = float(a)
    if a == 0.0:
        raise ValueError("a must be non-zero")
    value = cmath.exp(1j * lam * math.log(abs(a)))
    if epsilon == 1 and a < 0:
        value = -value
    return value
