from fractions import Fraction

import numpy as np
import pytest

from affquant import (CoadjointPoint, ExpPolySymbol, GridFunction, GridSpec,
                      GroupElement, HalfLineFunction, LieAlgebraElement,
                      gaussian_pq, partial_fourier)
from affquant import io as aio
from affquant.rational import ComplexRational


class TestElementJson:
    def test_algebra_round_trip_exact(self):
        z = LieAlgebraElement(Fraction(1, 3), Fraction(-7, 2))
        back = aio.element_from_dict(aio.element_to_dict(z))
        assert back == z and isinstance(back.alpha, Fraction)

    def test_algebra_floats(self):
        z = LieAlgebraElement(0.25, -1.5)
        assert aio.element_from_dict(aio.element_to_dict(z)) == z

    def test_group_and_point(self):
        g = GroupElement(Fraction(5, 4), Fraction(0))
        assert aio.group_from_dict(aio.group_to_dict(g)) == g
        f = CoadjointPoint(1.0, -2.0)
        assert aio.point_from_dict(aio.point_to_dict(f)) == f

    def test_field_names(self):
        assert set(aio.element_to_dict(LieAlgebraElement(1, 2))) == {"alpha", "beta"}
        assert set(aio.group_to_dict(GroupElement(1, 2))) == {"a", "b"}
        assert set(aio.point_to_dict(CoadjointPoint(1, 2))) == {"x", "y"}


class TestSymbolJson:
    def test_round_trip_exact(self):
        sym = ExpPolySymbol({(1, 0): ComplexRational(Fraction(1, 3), Fraction(-2, 7)),
                             (0, -2): ComplexRational(4)})
        assert aio.symbol_from_json(aio.symbol_to_json(sym)) == sym

    def test_wire_format_fields(self):
        obj = aio.symbol_to_obj(ExpPolySymbol.monomial(1, 0, Fraction(1, 2)))
        assert obj == [{"m": 1, "k": 0, "re": "1/2", "im": "0"}]

    def test_rejects_non_list(self):
        with pytest.raises(ValueError):
            aio.symbol_from_json('{"m": 1}')


@pytest.fixture(scope="module")
def small():
    spec = GridSpec(n_p=16, n_q=8)
    return gaussian_pq(spec, taper=False)


class TestGridIo:
    def test_csv_round_trip(self, small, tmp_path):
        path = tmp_path / "grid.csv"
        aio.write_grid_csv(small, path)
        back = aio.read_grid_csv(path)
        assert back.domain == small.domain
        assert back.spec == small.spec
        assert np.array_equal(back.values, small.values)

    def test_csv_rows_follow_q_index(self, small, tmp_path):
        path = tmp_path / "grid.csv"
        aio.write_grid_csv(small, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + small.spec.n_q
        assert len(lines[1].split(",")) == 2 * small.spec.n_p

    def test_binary_round_trip(self, small, tmp_path):
        path = tmp_path / "grid.bin"
        v = partial_fourier(small, tail_warn=None)
        aio.write_grid_binary(v, path)
        back = aio.read_grid_binary(path)
        assert back.domain == "xq"
        assert np.array_equal(back.values, v.values)

    def test_s_domain_round_trip(self, tmp_path):
        spec = GridSpec(n_p=8, n_q=32)
        gf = GridFunction(spec, "s", np.exp(1j * spec.q_values()))
        for writer, reader, name in ((aio.write_grid_csv, aio.read_grid_csv, "s.csv"),
                                     (aio.write_grid_binary, aio.read_grid_binary, "s.bin")):
            path = tmp_path / name
            writer(gf, path)
            back = reader(path)
            assert back.domain == "s" and np.array_equal(back.values, gf.values)

    @pytest.mark.parametrize("edit, count", [
        (lambda payload: payload[:-8], "127 float64"),
        (lambda payload: payload + bytes(8), "129 float64"),
        (lambda payload: payload[:-3], "127.625 float64"),
    ], ids=["truncated", "extended", "odd_length"])
    def test_binary_payload_length_checked(self, tmp_path, edit, count):
        spec = GridSpec(n_p=8, n_q=8)
        gf = GridFunction(spec, "xq", np.ones((8, 8), dtype=complex))
        path = tmp_path / "grid.bin"
        aio.write_grid_binary(gf, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header + b"\n" + edit(payload))
        with pytest.raises(ValueError, match=rf"{count} values\) but the header "
                                             r"declares 128 float64"):
            aio.read_grid_binary(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            aio.read_grid_csv(path)


class TestHalfLineIo:
    def test_round_trip(self, tmp_path):
        f = HalfLineFunction.gaussian(sigma=-1, s_max=4.0, n=256)
        path = tmp_path / "f.csv"
        aio.write_halfline_csv(f, path)
        back = aio.read_halfline_csv(path)
        assert back.sigma == -1 and back.s_max == 4.0 and back.n == 256
        assert np.array_equal(back.values, f.values)

    def test_row_format(self, tmp_path):
        f = HalfLineFunction(1, 2.0, np.array([1 + 2j, 3 - 4j, 0j, 1j]))
        path = tmp_path / "f.csv"
        aio.write_halfline_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# {")
        s0, re0, im0 = lines[1].split(",")
        assert float(s0) == -2.0 and float(re0) == 1.0 and float(im0) == 2.0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text('# {"S": 2.0, "n": 4, "sigma": 1}\n'
                        "-2.0,1.0,0.0\n"
                        f"-1.0,{cell},0.0\n"
                        "0.0,0.0,1.0\n"
                        "1.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="finite"):
            aio.read_halfline_csv(path)
