"""End-to-end checks of the command-line interface and its manifests."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shlex
import subprocess
import sys

import pytest

from pascalchar.char_sequences import A_count_bruteforce
from pascalchar.cli import main
from pascalchar.core_arith import make_context


def _sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_phi_exact_and_numeric(capsys):
    assert main(["phi", "--p", "5", "--k", "0", "--n", "25"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "T(25) = 2"
    assert out[1] == "     ~ 2+0i"
    assert out[2] == "phi(25) = 225"
    assert out[3] == "     ~ 225+0i"


def test_phi_nonprincipal(capsys):
    assert main(["phi", "--p", "5", "--k", "1", "--n", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "phi(5) = 8 - zeta"
    assert out[3] == "     ~ 8-1i"


def test_phi_huge_n(capsys):
    n = "9" * 400
    assert main(["phi", "--p", "7", "--k", "2", "--n", n]) == 0
    out = capsys.readouterr().out
    assert f"T({n}) = " in out
    assert f"phi({n}) = " in out
    assert out.count("~") == 2


def test_phi_rejects_non_numeric(capsys):
    assert main(["phi", "--p", "5", "--k", "0", "--n", "12x"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_count_formula_and_brute_agree(capsys):
    assert main(["count", "--p", "5", "--r", "1", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    for p, r, n in ((5, 1, 5), (7, 3, 999)):
        assert main(["count", "--p", str(p), "--r", str(r), "--n", str(n)]) == 0
        assert capsys.readouterr().out.strip() == str(A_count_bruteforce(n, make_context(p))[r])


def test_count_exit_codes(capsys):
    assert main(["count", "--p", "7", "--r", "0", "--n", "10"]) == 2
    assert "usage error" in capsys.readouterr().err


def _c4_mul(a, b):
    return tuple(sum(a[i] * b[(e - i) % 4] for i in range(4)) for e in range(4))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_count_n_past_int_digit_limit(capsys):
    # n = 5^7155 has 5002 digits, past CPython's default 4300-digit limit on
    # int <-> str. Rows 0..5^j-1 tally by discrete log (g = 2) as the j-th
    # power of the fundamental domain's tally: 1 x10, 2 x1, 4 x2, 3 x2.
    j, domain = 7155, (10, 1, 2, 2)
    want = (1, 0, 0, 0)
    for bit in bin(j)[2:]:
        want = _c4_mul(want, want)
        if bit == "1":
            want = _c4_mul(want, domain)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        n_text, want_text = str(5**j), str(want[3])  # residue 3 has dlog 3
        sys.set_int_max_str_digits(4300)
        assert main(["count", "--p", "5", "--r", "3", "--n", n_text]) == 0
        assert capsys.readouterr().out.strip() == want_text
    finally:
        sys.set_int_max_str_digits(saved)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pascalchar.cli", "bounds", "--p", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "trivial      = 15" in proc.stdout


def test_scan_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--pmax", "40", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "p,k,paper_label,parity,re_phi,im_phi,abs_phi,max_T_b,max_T_abs,verdict"
    assert lines[1] == (
        "37,10,chi(2)=e^{20pi i/36},even,33.7472651243455,2.96112697681142,"
        "33.8769269023279,36,37,RowDominant"
    )
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    row = rows[0]
    assert (row["p"], row["k"], row["verdict"]) == ("37", "10", "RowDominant")
    assert row["paper_label"] == "chi(2)=e^{20pi i/36}"
    assert float(row["abs_phi"]) == pytest.approx(33.8769269023279)
    mpath = tmp_path / "scan.csv.manifest.json"
    assert mpath.exists()
    manifest = json.loads(mpath.read_text())
    assert manifest["command"] == f"pascalchar scan --pmax 40 --out {out}"
    assert manifest["outputs"][str(out)] == _sha256_file(out)
    assert manifest["seeds"] == []
    assert manifest["wall_time_s"] >= 0
    assert "version" in manifest


def test_manifest_command_reruns_verbatim(tmp_path, capsys):
    out = tmp_path / "my run.csv"
    argv = ["bounds", "--p", "5", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out} and {out}.manifest.json\n")
    manifest = json.loads((tmp_path / "my run.csv.manifest.json").read_text())
    words = shlex.split(manifest["command"])
    assert words[0] == "pascalchar" and words[1:] == argv
    assert manifest["outputs"] == {str(out): _sha256_file(out)}


# exact CSV bytes, CRLF line ends included, of outputs whose values come from no BLAS product
_PINNED_CSV = [
    pytest.param(
        ["scan", "--pmax", "40"],
        b"p,k,paper_label,parity,re_phi,im_phi,abs_phi,max_T_b,max_T_abs,verdict\r\n"
        b"37,10,chi(2)=e^{20pi i/36},even,33.7472651243455,2.96112697681142,"
        b"33.8769269023279,36,37,RowDominant\r\n",
        id="scan",
    ),
    pytest.param(
        ["ratio", "--p", "5", "--r", "2", "--kmax", "4"],
        b"k,n,A,phi,ratio\r\n"
        b"0,1,0,1,0\r\n"
        b"1,5,1,15,0.266666666666667\r\n"
        b"2,25,28,225,0.497777777777778\r\n"
        b"3,125,566,3375,0.670814814814815\r\n"
        b"4,625,10008,50625,0.790755555555556\r\n",
        id="ratio",
    ),
    pytest.param(
        ["psi", "--p", "5", "--k", "1", "--grid", "1:5:4@2"],
        b"x,re_psi,im_psi,abs_psi\r\n"
        b"1,1,0,1\r\n"
        b"2.32,1.14520885061399,0.219509714532362,1.16605652791736\r\n"
        b"3.64,1.23359688579198,0.138742047978278,1.24137449325853\r\n"
        b"5,1,0,1\r\n",
        id="psi",
    ),
]


@pytest.mark.parametrize("argv, want", _PINNED_CSV)
def test_csv_bytes_pinned(tmp_path, capsys, argv, want):
    out = tmp_path / "pinned.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == want


def test_scan_empty_range_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["scan", "--pmax", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().strip().split("\n") == [
        "p,k,paper_label,parity,re_phi,im_phi,abs_phi,max_T_b,max_T_abs,verdict"
    ]


def test_scan_output_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["scan", "--pmax", "50", "--out", str(a)])
    main(["scan", "--pmax", "50", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scatter_csv_and_svg(tmp_path, capsys):
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    assert main(["scatter", "--pmax", "20", "--out", str(out), "--svg", str(svg)]) == 0
    printed = capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    expected_points = sum(p - 2 for p in (3, 5, 7, 11, 13, 17, 19))
    assert printed == f"{expected_points} points; wrote {out}, {svg} and {out}.manifest.json\n"
    assert lines[0] == "p,k,parity,re_phi_over_p,im_phi_over_p"
    assert len(lines) == 1 + expected_points
    svg_text = svg.read_text()
    assert svg_text.count("<circle") == expected_points
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {str(out), str(svg)}
    assert manifest["outputs"][str(svg)] == _sha256_file(svg)


def test_model_json_round_trip(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main([
        "model", "--p", "13", "--samples", "200", "--seed", "11",
        "--target", "Ycount:2", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    data = json.loads(out.read_text())
    assert list(data) == sorted(data)  # emitted with sorted keys
    assert data["p"] == 13 and data["samples"] == 200 and data["seed"] == 11
    assert data["target"] == "Ycount:2"
    assert json.loads(printed.split("wrote")[0]) == data
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["seeds"] == [11]


def test_model_rejects_negative_seed(capsys):
    argv = ["model", "--p", "5", "--samples", "100", "--seed", "-1", "--target", "Ycount:2"]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err


def test_ratio_manifest_records_calibration(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["ratio", "--p", "5", "--r", "2", "--kmax", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,n,A,phi,ratio"
    assert len(lines) == 8  # k = 0..6
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    cal = manifest["calibration"]
    assert set(cal) == {"abs_ratio_minus_1_by_k", "final_abs_ratio_minus_1"}
    assert cal["final_abs_ratio_minus_1"] == cal["abs_ratio_minus_1_by_k"]["6"]
    by_k = cal["abs_ratio_minus_1_by_k"]
    assert by_k["6"] < by_k["2"]  # the deviation shrinks with k


@pytest.mark.parametrize("scale", ["inf", "-inf", "nan"])
def test_ratio_rejects_non_finite_scale(capsys, scale):
    assert main(["ratio", "--p", "5", "--r", "2", "--kmax", "3", f"--scale={scale}"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_alpha_csv(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["alpha", "--p", "5", "--k", "1", "--kmax", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,alpha_k,delta,bound_delta"
    assert len(lines) == 5
    assert lines[1].startswith("1,1.22668690829452,,")
    # stdout prints the same rows at 12 digits
    for shown, row in zip(printed[1:5], lines[1:]):
        k, *vals = row.split(",")
        assert shown.split() == [k] + [f"{float(v):.12g}" for v in vals if v]


def test_alpha_steps_never_negative(tmp_path, capsys):
    # bands 3 and 4 at p = 37, k = 10 add no new maximum: their steps are 0
    out = tmp_path / "a.csv"
    assert main(["alpha", "--p", "37", "--k", "10", "--kmax", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    assert len(rows) == 3
    assert all(float(delta) >= 0 for _, _, delta, _ in rows), rows


def test_alpha_work_limit_without_forming_the_power(capsys):
    # 7^100000 has 84510 digits; the limit is decided before any such power
    assert main(["alpha", "--p", "7", "--k", "1", "--kmax", "100000"]) == 1
    err = capsys.readouterr().err
    assert "LimitExceeded" in err and "k_max = 100000" in err


def test_psi_csv_and_grid(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    assert main([
        "psi", "--p", "5", "--k", "1", "--grid", "1:5:9@2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,re_psi,im_psi,abs_psi"
    assert len(lines) > 2
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 1.0  # psi(1) = 1 exactly
    assert main(["psi", "--p", "5", "--k", "1", "--grid", "oops"]) == 2


@pytest.mark.parametrize("grid", ["1:1e400:3", "-inf:2:3", "nan:2:3", "1:inf:3@2"])
def test_psi_rejects_non_finite_grid(capsys, grid):
    assert main(["psi", "--p", "5", "--k", "1", f"--grid={grid}"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_psi_grid_past_double_range(capsys):
    # numerators near 5^500 ~ 10^349: phi and n^theta both leave double range
    assert main(["psi", "--p", "5", "--k", "1", "--grid", "1:2:5@500"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert math.isfinite(float(line.rsplit("|psi| = ", 1)[1]))


def test_means_table(tmp_path, capsys):
    out = tmp_path / "mu.csv"
    assert main(["means", "--pmax", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,re_mu_even,im_mu_even,re_mu_odd,im_mu_odd,ratio_even,ratio_odd"
    assert len(lines) == 4  # p = 3, 5, 7
    p5 = lines[2].split(",")
    assert p5[0] == "5"
    assert float(p5[5]) == pytest.approx(1.8)
    assert float(p5[6]) == pytest.approx(1.6)


