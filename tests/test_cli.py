"""End-to-end tests of the command-line interface via ``main``."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    REF_FUNCTION,
    REF_POINT,
    REF_STEP,
    random_hermitian,
    reference_hessian,
)
from signflip.cli import main
from signflip.expr import parse
from signflip.linalg import hermitian_eigen, symmetric_eigen
from signflip.matio import parse_matrix, write_matrix
from signflip.signgroup import SignPattern
from signflip.stencil import StencilInput, order_estimate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def hessian_file(tmp_path):
    path = tmp_path / "hessian.txt"
    write_matrix(path, reference_hessian())
    return str(path)


@pytest.fixture()
def hermitian_file(tmp_path):
    path = tmp_path / "herm.txt"
    write_matrix(path, random_hermitian(np.random.default_rng(8), 3))
    return str(path)


@pytest.fixture()
def asymmetric_file(tmp_path):
    path = tmp_path / "asym.txt"
    write_matrix(path, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return str(path)


class TestEig:
    def test_text_output(self, capsys, hessian_file):
        code, out, err = run(capsys, "eig", hessian_file)
        assert code == 0
        assert "values:" in out
        assert "vector rows:" in out
        assert "residual:" in out

    def test_json_matches_library(self, capsys, hessian_file):
        code, out, err = run(capsys, "eig", "--json", hessian_file)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"values", "V", "residual", "orthogonality"}
        decomp = symmetric_eigen(reference_hessian())
        assert payload["values"] == list(decomp.values)
        assert payload["residual"] == decomp.residual
        assert payload["orthogonality"] == decomp.orthogonality
        v = np.array(payload["V"])
        assert np.array_equal(v, decomp.vectors)

    def test_complex_hermitian_file(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 4)
        path = tmp_path / "herm.txt"
        write_matrix(path, a)
        code, out, err = run(capsys, "eig", "--json", str(path))
        assert code == 0
        payload = json.loads(out)
        decomp = hermitian_eigen(a)
        assert payload["values"] == list(decomp.values)
        v = parse_matrix(
            "\n".join(
                [str(len(payload["V"]))]
                + [" ".join(entry for entry in row) for row in payload["V"]]
            )
        )
        assert np.array_equal(v, decomp.vectors)

    def test_asymmetric_exits_3(self, capsys, asymmetric_file):
        code, out, err = run(capsys, "eig", asymmetric_file)
        assert code == 3
        assert err != ""

    def test_value_beyond_float_range_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        write_matrix(path, 1e308 * np.ones((4, 4)))
        code, out, err = run(capsys, "eig", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eig", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2 3\n4 5 6\n")
        code, out, err = run(capsys, "eig", str(path))
        assert code == 2


class TestCheck:
    def test_symmetric_verdict(self, capsys, hessian_file):
        code, out, err = run(capsys, "check", hessian_file)
        assert code == 0
        assert "symmetric: yes" in out

    def test_asymmetric_verdict(self, capsys, asymmetric_file):
        code, out, err = run(capsys, "check", asymmetric_file)
        assert code == 1
        assert "symmetric: no" in out
        assert "max generator commutator" in out
        assert "worst generator: 0" in out

    def test_commutator_beyond_float_range_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge_shear.txt"
        write_matrix(path, 1.7e308 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "float range" in err

    def test_symmetric_near_float_range_exits_0(self, capsys, tmp_path):
        # the symmetric part 0.5 * (A + A^T) of this matrix overflows unless
        # it is formed at unit scale
        path = tmp_path / "huge_exchange.txt"
        write_matrix(path, 1.7e308 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "check", str(path))
        assert code == 0
        assert "symmetric: yes" in out
        assert err == ""

    def test_complex_input_exits_2(self, capsys, hermitian_file):
        code, out, err = run(capsys, "check", hermitian_file)
        assert code == 2
        assert err.startswith("error:") and "complex" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tolerance_exits_2(self, capsys, tmp_path, tol):
        path = tmp_path / "identity.txt"
        write_matrix(path, np.eye(2))
        code, out, err = run(capsys, "check", str(path), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tol must be non-negative" in err


class TestGroup:
    def test_generators_default(self, capsys, hessian_file):
        code, out, err = run(capsys, "group", hessian_file)
        assert code == 0
        assert "generators" in out
        assert "closure" in out
        residual = float(out.split("gram residual: ")[1].split()[0])
        vectors = symmetric_eigen(reference_hessian()).vectors
        assert residual == pytest.approx(
            np.linalg.norm(vectors @ vectors.T - np.eye(3)), rel=1e-5, abs=1e-20
        )

    def test_full_enumeration_labels(self, capsys, hessian_file):
        code, out, err = run(capsys, "group", "--full", hessian_file)
        assert code == 0
        assert "order: 8" in out
        for label in ("+++", "-++", "+-+", "++-", "---"):
            assert label in out

    def test_full_over_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "eye13.txt"
        write_matrix(path, np.eye(13))
        code, out, err = run(capsys, "group", "--full", str(path))
        assert code == 3

    def test_max_n_flag(self, capsys, tmp_path):
        path = tmp_path / "eye13.txt"
        write_matrix(path, np.eye(13))
        code, out, err = run(capsys, "group", "--full", "--max-n", "13", str(path))
        assert code == 0
        assert "order: 8192" in out

    def test_max_n_capped_at_enumeration_cap(self, capsys, tmp_path):
        # refused before any element is built, whatever --max-n says
        path = tmp_path / "diag21.txt"
        write_matrix(path, np.diag(np.arange(1.0, 22.0)))
        code, out, err = run(capsys, "group", "--full", "--max-n", "40", str(path))
        assert code == 3
        assert "cap n <= 20" in err
        assert "pattern" not in out

    def test_complex_input_exits_2(self, capsys, hermitian_file):
        code, out, err = run(capsys, "group", hermitian_file)
        assert code == 2
        assert err.startswith("error:") and "complex" in err
        assert "Traceback" not in out + err


class TestStencil:
    ARGS = [
        "stencil",
        "--f", REF_FUNCTION,
        "--n", "3",
        "--x", "1,1,1",
        "--h", "0.2,0.05,0.1",
        "--s1", "+++",
        "--s2=-++",
    ]

    def test_table_and_order(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        assert "scale" in out
        assert "fitted order" in out

    def test_csv_written(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, err = run(capsys, *self.ARGS, "--csv", str(target))
        assert code == 0
        f = parse(REF_FUNCTION, 3)
        inp = StencilInput(
            f,
            REF_POINT,
            REF_STEP,
            SignPattern.from_string("+++"),
            SignPattern.from_string("-++"),
        )
        assert target.read_text() == order_estimate(inp).to_csv()

    def test_custom_scales(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--scales", "1.0,0.1")
        assert code == 0
        assert "fitted order" in out

    def test_degenerate_pair_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "stencil",
            "--f", "x1^3",
            "--n", "1",
            "--x", "0",
            "--h", "0.3",
            "--s1", "+",
            "--s2", "+",
        )
        assert code == 3
        assert "pair-degenerate" in out + err

    def test_bad_vector_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "stencil",
            "--f", "x1^2",
            "--n", "1",
            "--x", "zero",
            "--h", "0.1",
            "--s1", "+",
            "--s2", "-",
        )
        assert code == 2

    def test_unparseable_function_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "stencil",
            "--f", "x1 +",
            "--n", "1",
            "--x", "0",
            "--h", "0.1",
            "--s1", "+",
            "--s2", "-",
        )
        assert code == 2

    def test_domain_error_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            "stencil",
            "--f", "log(x1)",
            "--n", "1",
            "--x", "0.05",
            "--h", "0.2",
            "--s1", "+",
            "--s2", "-",
        )
        assert code == 3


    @pytest.mark.parametrize(
        ("f", "x"),
        [("x1^4 + x2^4 + x1*1e308*10", "1,1"), ("x1^4 + x2^4 + x1/x2", "1,1e-320")],
    )
    def test_non_finite_exits_3_with_one_error_line(self, capsys, f, x):
        code, out, err = run(
            capsys, "stencil", "--f", f, "--n", "2", "--x", x, "--h", "0.1,0.2",
            "--s1", "++", "--s2=-+",
        )
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_deep_nesting_exits_2(self, capsys):
        deep = "(" * 1200 + "x1" + ")" * 1200
        code, out, err = run(
            capsys, "stencil", "--f", deep, "--n", "1", "--x", "1", "--h", "0.1",
            "--s1", "+", "--s2=-",
        )
        assert code == 2
        assert len(err.splitlines()) == 1 and "nesting" in err


class TestDemo:
    def test_demo_passes(self, capsys):
        code, out, err = run(capsys, "demo")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("PASS ")) == 6
        assert not any(ln.startswith("FAIL ") for ln in lines)

    def test_demo_deterministic(self, capsys):
        _, first, _ = run(capsys, "demo")
        _, second, _ = run(capsys, "demo")
        assert first == second


class TestArgumentHandling:
    def test_no_command_exits_2(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys, hessian_file):
        code, out, err = run(capsys, "eig", "--frobnicate", hessian_file)
        assert code == 2

    def test_help_exits_0(self, capsys):
        # main translates argparse's SystemExit(0) into return code 0
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "eig" in out


class TestMainReturnType:
    def test_returns_int(self, capsys, hessian_file):
        assert isinstance(main(["eig", hessian_file]), int)
        capsys.readouterr()
