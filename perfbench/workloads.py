"""The four benchmark workloads: seeded inputs, the timed request, its gates.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned and been checked.  A request's inputs are
generated from the seed before timing starts; the program sees only them.
``run`` is the timed call.  ``check`` is the correctness gate and runs
outside the timed region; it returns (checks attempted, checks failed).
Tolerances come from affquant's own RunConfig defaults.

Requests are grouped in blocks of a fixed size, the unit behind ``wall_s``;
a block holds the same mix of request shapes on every seed.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import affquant
from affquant import cli
from affquant import grids
from affquant import io as aio
from affquant import lie_aff
from affquant import quantize
from affquant import representation
from affquant import symbol_algebra
from affquant.verify import RunConfig

import oracles

TOL = RunConfig()


def _random_fraction(rng, lo=-9, hi=9, max_den=8) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, max_den + 1)))


class Workload:
    name = ""
    why = ""
    block = 1          # requests per block
    trace_blocks = 1   # blocks served by the traced phase
    warm_requests = 0  # requests served untimed during set-up
    ref_every = 0      # requests between reference-kernel samples; 0: raw times
    kernels: tuple = ()  # reference kernels that do the workload's kind of work

    def __init__(self, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.tiny = tiny
        if tiny:
            self.block = min(self.block, 5)
        self.diagnostics: dict = {}

    def setup(self, seed: int) -> list:
        """Generate the seeded request pool (input generation)."""
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> tuple[int, int]:
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Gates deferred until after the timed phase: (attempted, failed)."""
        return 0, 0


class VerifyAll(Workload):
    name = "verify-all"
    why = ("The run users and the ROADMAP care about; RK4 with fd8 derivatives "
           "does most of its work.")

    def setup(self, seed):
        out = self.workdir / f"verify-{seed}.jsonl"
        argv = ["verify", "all", "--seed", str(seed), "--out", str(out)]
        if self.tiny:
            argv += ["--sigma", "plus", "--alpha", "1", "--beta", "0", "--t", "0.1"]
        return [(argv, out)]

    def run(self, req):
        with contextlib.redirect_stdout(stdio.StringIO()):
            return cli.main(req[0])

    def check(self, req, out):
        report = req[1]
        try:
            return self.gate(report, out)
        finally:
            report.unlink(missing_ok=True)

    @staticmethod
    def gate(report: Path, code: int) -> tuple[int, int]:
        """Every check record passes and the exit code is 0."""
        try:
            records = [json.loads(line) for line in report.read_text().splitlines() if line]
        except (OSError, ValueError):
            return 1, 1
        if not records:
            return 1, 1
        failed = sum(1 for r in records
                     if not (r.get("pass") is True and r["discrepancy"] <= r["tolerance"]))
        if code != 0 and failed == 0:
            failed = 1
        return len(records), failed


class ExactAlgebra(Workload):
    name = "exact-algebra"
    why = ("Only the exact layers run: 80% shallow bracket-homomorphism requests "
           "set op_p50_ms, 20% deep general star products set op_tail_ms.")
    block = 100
    trace_blocks = 2
    warm_requests = 10
    ref_every = 5
    kernels = ("fraction",)
    # Every fifth request is deep; deep shapes cycle with period 20, so one
    # block of 100 holds each (deg_u, deg_v, terms_u, terms_v) shape once.
    DEEP_EVERY = 5
    SHAPES = tuple((2 + j % 4, 2 + (j + 1) % 4, 2 + j % 5, 2 + (j + 2) % 5)
                   for j in range(20))
    # sympy checks every seventh distinct deep request; 7 is prime to the
    # shape period, so every shape is checked.
    ORACLE_EVERY = 7

    def __init__(self, workdir, tiny=False):
        super().__init__(workdir, tiny)
        self.I = affquant.ComplexRational(0, 1)
        self._first_result = {}
        self._oracle_pending = []

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n = 10 if self.tiny else 1500
        pool = []
        for i in range(n):
            if i % self.DEEP_EVERY == self.DEEP_EVERY - 1:
                du, dv, tu, tv = self.SHAPES[(i // self.DEEP_EVERY) % len(self.SHAPES)]
                u = symbol_algebra.ExpPolySymbol(self._random_terms(rng, du, tu))
                v = symbol_algebra.ExpPolySymbol(self._random_terms(rng, dv, tv))
                point = (_random_fraction(rng), Fraction(int(rng.integers(1, 10)),
                                                         int(rng.integers(1, 10))))
                pool.append(("deep", i, u, v, point))
            else:
                z = lie_aff.LieAlgebraElement(_random_fraction(rng), _random_fraction(rng))
                t = lie_aff.LieAlgebraElement(_random_fraction(rng), _random_fraction(rng))
                g = lie_aff.GroupElement(Fraction(int(rng.integers(1, 10)),
                                                  int(rng.integers(1, 10))),
                                         _random_fraction(rng))
                pt = lie_aff.CoadjointPoint(_random_fraction(rng),
                                            _random_fraction(rng, lo=-4, hi=4))
                pool.append(("shallow", i, z, t, g, pt))
        return pool

    # Fixed term layout per shape, so only coefficient values depend on the
    # seed and a deep request costs about the same on every seed.
    FREQUENCIES = (1, -1, 2, -2, 3, -3)

    @classmethod
    def _random_terms(cls, rng, degree, count):
        terms = {}
        for j in range(count):
            re, im = _random_fraction(rng), _random_fraction(rng)
            if re == 0 and im == 0:
                re = Fraction(1)
            key = (degree - j % (degree + 1), cls.FREQUENCIES[j])
            terms[key] = affquant.ComplexRational(re, im)
        return terms

    def run(self, req):
        if req[0] == "deep":
            return symbol_algebra.star(req[2], req[3])
        _, _, z, t, g, pt = req
        lhs = symbol_algebra.star_commutator(self.I * lie_aff.hamiltonian(z),
                                             self.I * lie_aff.hamiltonian(t))
        generators = quantize.generator_commutator_matches_bracket(z, t)
        moved = lie_aff.coadjoint_act(g, pt)
        return lhs, generators, moved, lie_aff.classify_orbit(moved)

    def check(self, req, out):
        if req[0] == "deep":
            return 1, int(not self.deep_gate(req, out))
        return 1, int(not self.shallow_gate(req, out))

    @staticmethod
    def shallow_gate(req, out) -> bool:
        """Zero-tolerance identities, with expectations written out by hand."""
        _, _, z, t, g, pt = req
        lhs, generators, moved, orbit = out
        w = Fraction(z.alpha * t.beta - t.alpha * z.beta)
        expected = {(0, 1): (Fraction(0), w)} if w else {}
        x, y = Fraction(pt.x + g.b / g.a * pt.y), Fraction(pt.y / g.a)
        if y == 0:
            orbit_ok = orbit.kind == "point" and orbit.lam == x
        else:
            orbit_ok = orbit.kind == ("upper" if y > 0 else "lower")
        return (oracles.terms_of(lhs) == expected and generators is True
                and moved.x == x and moved.y == y and orbit_ok)

    def deep_gate(self, req, out) -> bool:
        """Exact evaluation at a seeded point; sympy on a fixed share later."""
        _, index, u, v, (p0, w0) = req
        tu, tv, result = oracles.terms_of(u), oracles.terms_of(v), oracles.terms_of(out)
        if oracles.moyal_at(tu, tv, p0, w0) != oracles.value_at(result, p0, w0):
            return False
        first = self._first_result.setdefault(index, result)
        if first is result and (index // self.DEEP_EVERY) % self.ORACLE_EVERY == 0:
            self._oracle_pending.append((tu, tv, result))
        return first == result

    def finish(self):
        failed = sum(not oracles.sympy_star_matches(*item) for item in self._oracle_pending)
        attempted = len(self._oracle_pending)
        self._oracle_pending = []
        self.diagnostics["sympy_checked"] = self.diagnostics.get("sympy_checked", 0) + attempted
        return attempted, failed


def _off_centre_gaussian(spec, rng):
    sigma_p, sigma_q = rng.uniform(0.75, 1.5, 2)
    p0, q0 = rng.uniform(-4, 4), rng.uniform(-2, 2)
    p = spec.p_values()[:, None]
    q = spec.q_values()[None, :]
    vals = np.exp(-((p - p0) / sigma_p) ** 2 / 2 - ((q - q0) / sigma_q) ** 2 / 2)
    return grids.GridFunction(spec, "pq", vals * grids.taper_2d(spec))


class Lattice(Workload):
    name = "lattice"
    why = ("FFT-bound 256x256 conjugation, shear and file round trip in grids, "
           "quantize and io; never touches representation or fd8.")
    block = 16
    trace_blocks = 2
    warm_requests = 2
    ref_every = 1
    kernels = ("fft256x256",)
    FILES = 16
    R = 20

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        spec = grids.GridSpec()
        paths = []
        for j in range(self.FILES):
            path = self.workdir / f"lattice-in-{j}.bin"
            aio.write_grid_binary(_off_centre_gaussian(spec, rng), path)
            paths.append(path)
        n = 4 if self.tiny else 400
        pool = []
        for i in range(n):
            alpha, beta = rng.uniform(-3, 3, 2)
            pool.append((paths[i % self.FILES], lie_aff.LieAlgebraElement(alpha, beta),
                         self.workdir / f"lattice-out-{i % self.FILES}.bin"))
        self.diagnostics["quantize.s_route_mismatch.max"] = 0.0
        return pool

    def run(self, req):
        src, z, dst = req
        u = aio.read_grid_binary(src)
        disc = quantize.verify_conjugation(z, u, self.R)
        v = grids.partial_fourier(u)
        w = quantize.to_s_coordinates(v)
        out = quantize.apply_generator(quantize.GeneratorOp.from_element(z), w)
        aio.write_grid_binary(out, dst)
        return disc, v, w, out

    def check(self, req, out):
        ok = self.gate(req, out)
        _, z, _ = req
        _, v, _, generated = out
        # The x-q route to the s-lattice generator, recorded but not gated.
        op = quantize.GeneratorOp.from_element(z)
        route = quantize.to_s_coordinates(quantize.apply_generator(op, v), tail_warn=None)
        key = "quantize.s_route_mismatch.max"
        mismatch = np.linalg.norm(route.values - generated.values) / np.linalg.norm(v.values)
        self.diagnostics[key] = max(self.diagnostics[key], float(mismatch))
        return 1, int(not ok)

    @staticmethod
    def gate(req, out) -> bool:
        """Conjugation within tolerance, shear norm-preserving, file round trip exact."""
        _, _, dst = req
        disc, v, w, generated = out
        # The x-q and s-t cells have the same area, so plain norms compare.
        norm_v = np.linalg.norm(v.values)
        shear = abs(np.linalg.norm(w.values) - norm_v) / norm_v
        back = aio.read_grid_binary(dst)
        return (disc <= TOL.tol_conjugation and shear <= TOL.tol_unitarity
                and back.domain == generated.domain
                and np.array_equal(back.values, generated.values))


class HalfLine(Workload):
    name = "halfline"
    why = ("1-D closed-form and shift path of representation (rep_apply, "
           "rep_one_param, characteristics) that RK4 hides in verify-all.")
    block = 500
    trace_blocks = 2
    warm_requests = 20
    ref_every = 20
    kernels = ("python", "fft4096", "fft256x256")
    FUNCTIONS = 16
    STEPS = 1000

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        fns = []
        for j in range(self.FUNCTIONS):
            f = representation.HalfLineFunction.gaussian(
                sigma=1 if j % 2 == 0 else -1, n=4096,
                center=float(rng.uniform(-1, 1)), width=float(rng.uniform(0.75, 1.5)))
            fns.append((f, float(np.linalg.norm(f.values)) * math.sqrt(f.ds)))
        n = 20 if self.tiny else 20000
        pool = []
        for i in range(n):
            f, f_norm = fns[i % self.FUNCTIONS]
            choice = representation.OMEGA_PLUS if f.sigma == 1 else representation.OMEGA_MINUS
            g = lie_aff.GroupElement(math.exp(rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))
            alpha, beta = rng.uniform(-3, 3, 2)
            z = lie_aff.LieAlgebraElement(float(alpha), float(beta))
            pool.append((f, f_norm, choice, g, z, float(rng.uniform(0, 0.5))))
        return pool

    def run(self, req):
        f, _, choice, g, z, t = req
        moved = representation.rep_apply(choice, g, f)
        closed = representation.rep_one_param(z, t, f)
        integrated = representation.evolve_cauchy(z, t, f, self.STEPS,
                                                  method="characteristics")
        return moved, closed, integrated

    def check(self, req, out):
        return 1, int(not self.gate(req, out))

    @staticmethod
    def gate(req, out) -> bool:
        """rep_apply is an isometry; characteristics match the closed form."""
        f, f_norm, *_ = req
        moved, closed, integrated = out
        iso = abs(np.linalg.norm(moved.values) * math.sqrt(f.ds) - f_norm) / f_norm
        flow = np.linalg.norm(integrated.values - closed.values) * math.sqrt(f.ds) / f_norm
        return iso <= TOL.tol_unitarity and flow <= TOL.tol_exp_char


WORKLOADS = {cls.name: cls for cls in (VerifyAll, ExactAlgebra, Lattice, HalfLine)}
