"""Serialization of domain objects.

Wire formats:

* algebra/group/coadjoint elements: JSON objects with explicit field names
  ("alpha", "beta"), ("a", "b"), ("x", "y"); exact rationals travel as
  "num/den" strings, floats as JSON numbers.
* symbols: a JSON list of {"m": int, "k": int, "re": str, "im": str} with
  rationals always encoded as "num/den" strings.
* lattice functions: CSV with one row per q-index and each complex sample as
  an adjacent re, im column pair, or a compact binary layout (little-endian
  float64 interleaved re/im) -- both prefixed by a one-line JSON header that
  carries the lattice description.
* half-line functions: CSV rows (s, re, im) after a JSON header line with
  sigma, S and n.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .grids import GridFunction, GridSpec
from .lie_aff import CoadjointPoint, GroupElement, LieAlgebraElement
from .rational import ComplexRational
from .representation import HalfLineFunction
from .symbol_algebra import ExpPolySymbol

_HEADER_PREFIX = "# "


def _number_to_json(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)


def _number_from_json(value):
    if isinstance(value, str):
        return Fraction(value)
    return value


def element_to_dict(z: LieAlgebraElement) -> dict:
    return {"alpha": _number_to_json(z.alpha), "beta": _number_to_json(z.beta)}


def element_from_dict(obj: dict) -> LieAlgebraElement:
    return LieAlgebraElement(_number_from_json(obj["alpha"]),
                             _number_from_json(obj["beta"]))


def group_to_dict(g: GroupElement) -> dict:
    return {"a": _number_to_json(g.a), "b": _number_to_json(g.b)}


def group_from_dict(obj: dict) -> GroupElement:
    return GroupElement(_number_from_json(obj["a"]), _number_from_json(obj["b"]))


def point_to_dict(f: CoadjointPoint) -> dict:
    return {"x": _number_to_json(f.x), "y": _number_to_json(f.y)}


def point_from_dict(obj: dict) -> CoadjointPoint:
    return CoadjointPoint(_number_from_json(obj["x"]), _number_from_json(obj["y"]))


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
        else str(value.numerator)


def symbol_to_obj(sym: ExpPolySymbol) -> list:
    out = []
    for (m, k) in sorted(dict(sym.items())):
        c = sym.coefficient(m, k)
        out.append({"m": m, "k": k,
                    "re": _fraction_to_str(c.re), "im": _fraction_to_str(c.im)})
    return out


def symbol_from_obj(obj: list) -> ExpPolySymbol:
    terms = {}
    for entry in obj:
        coeff = ComplexRational(Fraction(str(entry["re"])), Fraction(str(entry["im"])))
        key = (int(entry["m"]), int(entry["k"]))
        terms[key] = terms.get(key, ComplexRational(0)) + coeff
    return ExpPolySymbol(terms)


def symbol_to_json(sym: ExpPolySymbol) -> str:
    return json.dumps(symbol_to_obj(sym), sort_keys=True)


def symbol_from_json(text: str) -> ExpPolySymbol:
    obj = json.loads(text)
    if not isinstance(obj, list):
        raise ValueError("symbol JSON must be a list of term objects")
    return symbol_from_obj(obj)


# -- grid functions -------------------------------------------------------------

def _grid_header(gf: GridFunction) -> str:
    spec = gf.spec
    return json.dumps({
        "domain": gf.domain,
        "p_min": spec.p_min, "p_max": spec.p_max,
        "q_min": spec.q_min, "q_max": spec.q_max,
        "n_p": spec.n_p, "n_q": spec.n_q,
    }, sort_keys=True)


def _grid_from_header(obj: dict):
    spec = GridSpec(p_min=obj["p_min"], p_max=obj["p_max"],
                    q_min=obj["q_min"], q_max=obj["q_max"],
                    n_p=int(obj["n_p"]), n_q=int(obj["n_q"]))
    return spec, obj["domain"]


def _rows_view(gf: GridFunction) -> np.ndarray:
    """2-D view with the q-like lattice along rows (one CSV row per q-index)."""
    if gf.domain in ("pq", "xq"):
        return gf.values.T
    if gf.domain == "st":
        return gf.values
    return gf.values[None, :]


def _from_rows(spec: GridSpec, domain: str, rows: np.ndarray) -> GridFunction:
    if domain in ("pq", "xq"):
        return GridFunction(spec, domain, rows.T)
    if domain == "st":
        return GridFunction(spec, domain, rows)
    return GridFunction(spec, domain, rows[0])


def write_grid_csv(gf: GridFunction, path) -> None:
    rows = _rows_view(gf)
    with open(path, "w") as fh:
        fh.write(_HEADER_PREFIX + _grid_header(gf) + "\n")
        for row in rows:
            flat = np.empty(2 * len(row))
            flat[0::2] = row.real
            flat[1::2] = row.imag
            fh.write(",".join(repr(float(v)) for v in flat) + "\n")


def read_grid_csv(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError("missing JSON header line in grid CSV")
        spec, domain = _grid_from_header(json.loads(header[len(_HEADER_PREFIX):]))
        rows = []
        for line in fh:
            if not line.strip():
                continue
            flat = np.array([float(tok) for tok in line.split(",")])
            rows.append(flat[0::2] + 1j * flat[1::2])
    return _from_rows(spec, domain, np.array(rows))


def write_grid_binary(gf: GridFunction, path) -> None:
    header = _grid_header(gf).encode() + b"\n"
    rows = _rows_view(gf)
    interleaved = np.empty(rows.shape + (2,))
    interleaved[..., 0] = rows.real
    interleaved[..., 1] = rows.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved.astype("<f8").tobytes())


def read_grid_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        header = fh.readline()
        spec, domain = _grid_from_header(json.loads(header.decode()))
        payload = fh.read()
    shape = (1, spec.n_q) if domain == "s" else (spec.n_q, spec.n_p)
    expected = 2 * shape[0] * shape[1]
    if len(payload) != 8 * expected:
        raise ValueError(
            f"binary grid payload is {len(payload)} bytes ({len(payload) / 8:g} "
            f"float64 values) but the header declares {expected} float64 values "
            f"({shape[0]}x{shape[1]} complex samples)")
    raw = np.frombuffer(payload, dtype="<f8")
    rows = (raw[0::2] + 1j * raw[1::2]).reshape(shape)
    return _from_rows(spec, domain, rows)


# -- half-line functions ---------------------------------------------------------

def write_halfline_csv(f: HalfLineFunction, path) -> None:
    header = json.dumps({"sigma": f.sigma, "S": f.s_max, "n": f.n}, sort_keys=True)
    s = f.s_values()
    with open(path, "w") as fh:
        fh.write(_HEADER_PREFIX + header + "\n")
        for sj, vj in zip(s, f.values):
            fh.write(f"{float(sj)!r},{float(vj.real)!r},{float(vj.imag)!r}\n")


def read_halfline_csv(path) -> HalfLineFunction:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError("missing JSON header line in half-line CSV")
        meta = json.loads(header[len(_HEADER_PREFIX):])
        values = []
        for line in fh:
            if not line.strip():
                continue
            _s, re_part, im_part = line.split(",")
            values.append(float(re_part) + 1j * float(im_part))
    values = np.array(values)
    if len(values) != int(meta["n"]):
        raise ValueError("half-line CSV row count does not match header n")
    return HalfLineFunction(int(meta["sigma"]), float(meta["S"]), values)
