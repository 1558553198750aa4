"""Command-line behavior: formats, exit codes, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import ebcv
from ebcv.cli import CSV_HEADER, main
from ebcv.geodesics import MAX_STEPS
from ebcv.verify import MAX_SAMPLES

ORIGIN14 = ["0"] * 14


def _init(p_overrides):
    vals = [0.0] * 14
    for idx, v in p_overrides.items():
        vals[idx] = v
    return [str(v) for v in vals]


# index map: 0..6 = r s t w x y z, 7..13 = pr ps pt pw px py pz
CIRCLE_INIT = _init({7: 1.0, 10: 1.0})   # p_r = 1, p_w = 1
LINE_INIT = _init({10: 1.0})             # p_w = 1 only


# -- verify ----------------------------------------------------------------


def test_verify_json_schema_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--m", "0", "--l", "1", "--samples", "20", "--seed", "7",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"summary", "checks"}
    ids = [c["id"] for c in doc["checks"]]
    assert "scalar-vs-corollary" in ids
    rec = next(c for c in doc["checks"] if c["id"] == "scalar-vs-corollary")
    assert rec["status"] == "paper-discrepancy"
    assert rec["printed"] == "48*m"


def test_verify_text_to_stdout(capsys):
    code = main(["verify", "--m", "0", "--l", "0", "--samples", "15",
                 "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "pass" in captured.out
    assert "verification report" in captured.out


def test_verify_byte_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main([
            "verify", "--m", "1", "--l", "1", "--samples", "15", "--seed", "5",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        text = re.sub(r'"elapsed": [0-9eE+.-]+', '"elapsed": 0', out.read_text())
        outs.append(text)
    assert outs[0] == outs[1]


BASE_ARGV = {
    "verify": ["verify", "--m", "0", "--l", "1"],
    "geodesic": ["geodesic", "--init", *ORIGIN14],
    "killing": ["killing", "--l", "1", "list"],
    "curvature": ["curvature", "--m", "1", "--l", "1"],
    "classify": ["classify", "--m", "1", "--l", "1"],
}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("verify", "--samples=0"),
        ("verify", f"--samples={MAX_SAMPLES + 1}"),
        ("verify", "--seed=-1"),
        ("geodesic", "--h=0"),
        ("geodesic", "--h=-1e-3"),
        ("geodesic", "--h=nan"),
        ("geodesic", "--n=0"),
        ("geodesic", f"--n={MAX_STEPS + 1}"),
        ("verify", "--m=nan"),
        ("verify", "--l=nan"),
        ("verify", "--l=inf"),
        ("geodesic", "--m=nan"),
        ("geodesic", "--l=-inf"),
        ("geodesic", "--init nan" + " 0" * 13),
        ("killing", "--l=nan"),
        ("curvature", "--m=nan"),
        ("curvature", "--l=nan"),
        ("curvature", "--point nan 0 0 0 0 0 0"),
        ("classify", "--m=inf"),
        ("classify", "--l=nan"),
        # opened before the command runs, so verify runs no report first
        *((command, "--out=/nonexistent/dir/x.txt") for command in BASE_ARGV),
    ],
)
def test_invalid_usage_exits_2_naming_the_flag(command, bad, capsys):
    # bad is one flag with its values, split on spaces into argv words
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + bad.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {bad.split()[0].split('=')[0]}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "killing --l 1 list",              # more than stdout's buffer
    "verify --m 0 --l 1 --samples 5",
    "classify --m 1 --l 1",            # flushed only at exit
], ids=["killing", "verify", "classify"])
def test_a_closed_stdout_exits_2_without_a_traceback(argv):
    # the reader closes the pipe before anything is written, as `| head`
    # can: the output cannot be written, as with an unwritable --out
    src = str(pathlib.Path(ebcv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "ebcv.cli", *argv.split()],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.communicate(timeout=300)[1]
    assert proc.returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_verify_pathological_exit_2(capsys):
    code = main(["verify", "--m=-1e9", "--l", "1", "--samples", "10",
                 "--seed", "1"])
    assert code == 2
    assert "domain violation" in capsys.readouterr().err


def test_verify_subnormal_l_exit_2(capsys):
    code = main(["verify", "--m", "0", "--l", "5e-324", "--samples", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("domain violation: l = 4.94066e-324 is subnormal")
    assert err.count("\n") == 1


@pytest.mark.parametrize("m, l", [
    ("1e200", "1"),     # C already overflows
    ("0", "1e200"),     # R overflows, and so would l**2 in a table
    ("1e-300", "1e300"),
    ("0", "1e154"),     # R is finite, nabla R is not
    ("1", "1e154"),     # R is finite, the Ambrose-Singer residual not
    ("1e150", "1e-3"),
    ("1e-3", "1e154"),  # so is that residual
    ("1e-6", "1e120"),  # nabla R of the first points is not
])
def test_verify_curvature_overflow_exit_2(m, l, capsys):
    code = main(["verify", "--m", m, "--l", l, "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"(m, l) = ({float(m):g}, {float(l):g})" in captured.err


# Known defect (ROADMAP item 1): at large l these records are judged against
# absolute tolerances while their operands grow with l, so a report on
# correct code fails them. Scaling the verdicts changes this test on purpose.
@pytest.mark.parametrize("l, failed", [
    ("1e60", ["bracket-vs-finite-difference", "curvature-second-bianchi",
              "frame-orthonormality", "killing-basis-rank"]),
    ("1e100", ["bracket-vs-finite-difference", "frame-orthonormality",
               "killing-basis-rank"]),
])
def test_verify_large_l_fails_absolute_tolerance_records(l, failed, capsys):
    code = main(["verify", "--m", "0", "--l", l, "--samples", "5",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert sorted(c["id"] for c in doc["checks"]
                  if c["status"] == "fail") == failed


@pytest.mark.parametrize("argv, read, value", [
    (["curvature", "--m", "0", "--l", "1",
      "--point", "0", "0", "0", "-1e-3", "0", "0", "0"],
     lambda out: json.loads(out)["point"][3], -1e-3),
    (["classify", "--m", "-1e2", "--l", "1", "--format", "json"],
     lambda out: json.loads(out)["m"], -1e2),
    (["geodesic", "--init", *LINE_INIT[:3], "-1e-1", *LINE_INIT[4:],
      "--n", "5"],
     lambda out: float(out.splitlines()[1].split(",")[4]), -1e-1),
], ids=["curvature-point", "classify-m", "geodesic-init"])
def test_negative_values_in_exponent_form(argv, read, value, capsys):
    assert main(argv) == 0
    assert read(capsys.readouterr().out) == value


# -- geodesic ----------------------------------------------------------------


def test_geodesic_csv_format(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main([
        "geodesic", "--mode", "heisenberg", "--init", *CIRCLE_INIT,
        "--h", "1e-3", "--n", "100", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102  # header + n + 1 samples
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0      # u
    assert first[8] == 1.0      # pr
    assert first[11] == 1.0     # pw
    assert first[15] == pytest.approx(0.5)  # H = |P_h|^2 / 2
    summary = capsys.readouterr().out
    assert "status=complete" in summary
    assert "verdict=circle, radius 1.000000" in summary


def test_geodesic_line_verdict(tmp_path, capsys):
    out = tmp_path / "line.csv"
    # a line, then a circle of |Lambda| ~ 2.4e-9, too wide to tell from one
    near_line = "0 0 0 0.3 -0.2 0.1 0.4 1e-9 -2e-9 1e-9 1 0.5 -0.3 0.2".split()
    for init, n in ((LINE_INIT, "50"), (near_line, "2000")):
        code = main([
            "geodesic", "--mode", "heisenberg", "--init", *init,
            "--n", n, "--out", str(out),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "verdict=line" in summary
        deviation = summary.split("closed-form-deviation=")[1].split()[0]
        assert float(deviation) < 1e-12


def test_geodesic_json_format(tmp_path):
    out = tmp_path / "traj.json"
    code = main([
        "geodesic", "--mode", "riemannian", "--m", "1", "--l", "1",
        "--init", *CIRCLE_INIT, "--n", "20", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "complete"
    assert doc["columns"] == CSV_HEADER.split(",")
    assert len(doc["rows"]) == 21
    assert doc["params"] == {"m": 1.0, "l": 1.0}


def test_geodesic_stdout_when_no_out(capsys):
    code = main([
        "geodesic", "--mode", "heisenberg", "--init", *LINE_INIT, "--n", "5",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)
    assert "status=complete" in captured.err


def test_geodesic_json_stdout_ends_with_newline(capsys):
    code = main([
        "geodesic", "--mode", "heisenberg", "--init", *LINE_INIT, "--n", "5",
        "--format", "json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert len(json.loads(out)["rows"]) == 6


def test_geodesic_domain_exit_code_3(tmp_path, capsys):
    out = tmp_path / "exit.csv"
    code = main([
        "geodesic", "--mode", "riemannian", "--m", "-1", "--l", "1",
        "--init", *_init({3: 0.5, 10: 2.0}), "--h", "1.0", "--n", "5",
        "--out", str(out),
    ])
    assert code == 3
    assert "step 1" in capsys.readouterr().err


def test_geodesic_non_finite_initial_energy_exit_2(capsys):
    code = main([
        "geodesic", "--mode", "riemannian", "--m", "1", "--l", "1",
        "--init", *(["0"] * 7 + ["1e200"] * 7), "--h", "1e-3", "--n", "10",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "initial energy is not finite" in captured.err


def test_geodesic_closed_form_overflow_exit_2(tmp_path, capsys):
    # the RK4 trajectory stays finite, but |u Lambda| reaches 8e300 and the
    # closed form overflows: refused before anything is written, not NaN
    out = tmp_path / "traj.csv"
    code = main([
        "geodesic", "--mode", "heisenberg", "--init", *_init({7: 1.0}),
        "--h", "1e300", "--n", "8", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert out.read_text() == "" and captured.out == ""
    assert captured.err.count("\n") == 1 and "overflow" in captured.err
    assert "nan" not in captured.err.lower()


def test_geodesic_mode_mismatch_exit_2(capsys):
    code = main([
        "geodesic", "--mode", "heisenberg", "--m", "1", "--l", "1",
        "--init", *ORIGIN14,
    ])
    assert code == 2
    assert "invalid mode" in capsys.readouterr().err


def test_geodesic_csv_has_full_precision(tmp_path):
    out = tmp_path / "traj.csv"
    main([
        "geodesic", "--mode", "heisenberg", "--init", *CIRCLE_INIT,
        "--n", "10", "--out", str(out),
    ])
    from ebcv.frames import ModelParams
    from ebcv.geodesics import CotangentState, integrate

    state = CotangentState(np.zeros(7), np.array([1, 0, 0, 1, 0, 0, 0.0]))
    traj = integrate(state, ModelParams(0.0, 1.0), mode="heisenberg",
                     h=1e-3, n=10)
    rows = traj.to_rows()
    lines = out.read_text().strip().splitlines()[1:]
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    np.testing.assert_array_equal(parsed, rows)


# -- killing -----------------------------------------------------------------


def test_killing_list(capsys):
    code = main(["killing", "--l", "1", "list"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 13
    assert len(doc["fields"]) == 13
    for fld in doc["fields"]:
        assert set(fld) == {f"e{i}" for i in range(1, 8)}


def test_killing_check_vertical_field(tmp_path, capsys):
    field = {"e1": {"0,0,0,0,0,0,0": 1.0}, **{f"e{i}": {} for i in range(2, 8)}}
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(field))
    code = main(["killing", "--l", "1", "check", "--input", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "killing"
    assert doc["max_residual"] < 1e-14


def test_killing_check_horizontal_field_rejected(tmp_path, capsys):
    field = {f"e{i}": {} for i in range(1, 8)}
    field["e4"] = {"0,0,0,0,0,0,0": 1.0}
    path = tmp_path / "x4.json"
    path.write_text(json.dumps(field))
    code = main(["killing", "--l", "1", "check", "--input", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not-killing"
    assert doc["max_residual"] >= 1.0


@pytest.mark.parametrize(
    "payload",
    [
        '{"e1": {"0,0": 1.0}}',            # wrong exponent arity
        "not json at all",                   # not JSON
        '{"e1": {}}',                        # missing components
        '{"e1": {"0,0,0,0,0,0,0": "x"}}',  # non-numeric coefficient
    ],
)
def test_killing_malformed_input_exit_4(tmp_path, payload, capsys):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code = main(["killing", "--l", "1", "check", "--input", str(path)])
    capsys.readouterr()
    assert code == 4


def test_killing_check_overflowing_field_exit_4(tmp_path, capsys):
    # finite coefficients whose residual overflows: refused, not NaN
    field = {f"e{i}": {} for i in range(1, 8)}
    field["e4"] = {"0,0,0,0,2,0,0": 1e308, "0,0,0,0,0,2,0": -1e308}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(field))
    code = main(["killing", "--l", "1", "check", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "overflows" in captured.err


@pytest.mark.parametrize("l", [0.0, 1e-12, 1e-9, 1.0, 37.0])
def test_killing_check_threshold_scales_with_l(l, tmp_path, capsys):
    # the horizontal X4's residual is exactly |l|, and that of X1, the basis
    # field of C1, exactly 0: X4 is a Killing field only at l = 0
    for e, want in (("e1", "killing"),
                    ("e4", "killing" if l == 0.0 else "not-killing")):
        field = {f"e{i}": {} for i in range(1, 8)}
        field[e] = {"0,0,0,0,0,0,0": 1.0}
        path = tmp_path / f"{e}.json"
        path.write_text(json.dumps(field))
        code = main(["killing", "--l", repr(l), "check", "--input", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_residual"] == (abs(l) if e == "e4" else 0.0), e
        assert doc["threshold"] == 1e-8 * abs(l)
        assert doc["verdict"] == want, e


def test_killing_check_without_input_exit_4(capsys):
    code = main(["killing", "--l", "1", "check"])
    capsys.readouterr()
    assert code == 4


# -- classify / curvature ----------------------------------------------------


def test_classify_seven_cases(capsys):
    expected = {
        (0.0, 0.0): ("Euclidean3", "i"),
        (1.0, 0.0): ("S2xR", "iii"),
        (-1.0, 0.0): ("H2xR", "iv"),
        (0.0, 2.0): ("Nil3", "vii"),
        (1.0, 1.0): ("SU2", "v"),
        (-1.0, 1.0): ("SL2R", "vi"),
        (0.25, 1.0): ("Sphere3", "ii"),
    }
    for (m, l), (label, case) in expected.items():
        code = main(["classify", "--m", str(m), "--l", str(l),
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["label"], doc["case"]) == (label, case)


def test_classify_case2_predicate_switch(capsys):
    # case (ii), the sphere, is 4m = l^2, not the printed m = l/4, and the
    # output names no predicate
    for m, case in (("1", "ii"), ("0.5", "v")):
        code = main(["classify", "--m", m, "--l", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"m", "l", "label", "case"}
        assert doc["case"] == case


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "0", "--l", "1", "--tol-scale", "2"],
    ["classify", "--m", "1", "--l", "2", "--case2", "squared"],
])
def test_removed_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in (
        capsys.readouterr().err)


def test_classify_text(capsys):
    code = main(["classify", "--m", "0", "--l", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Nil3 (case vii)"


def test_curvature_json(capsys):
    code = main(["curvature", "--m", "1", "--l", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalar"] == pytest.approx(45.0, abs=1e-9)
    assert doc["K"] == 1.0
    assert len(doc["ricci"]) == 7
    assert "riemann" not in doc


def test_curvature_full_and_point(capsys):
    code = main([
        "curvature", "--m", "0", "--l", "1",
        "--point", "0", "0", "0", "0.2", "0", "0", "0", "--full",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalar"] == pytest.approx(-3.0, abs=1e-9)
    R = np.array(doc["riemann"])
    assert R.shape == (7, 7, 7, 7)
    assert R[0, 3, 0, 3] == pytest.approx(0.25, abs=1e-9)
    # the sectional curvature of all 21 frame planes a < b is R's own; the
    # three vertical planes read 0, as the fibres are flat
    assert list(doc["sectional"]) == [
        f"{a},{b}" for a in range(1, 8) for b in range(a + 1, 8)]
    for key, value in doc["sectional"].items():
        a, b = (int(v) - 1 for v in key.split(","))
        assert value == R[a, b, a, b], key
    assert [doc["sectional"][k] for k in ("1,2", "1,3", "2,3")] == [0.0] * 3


def test_curvature_outside_chart_exit_2(capsys):
    code = main([
        "curvature", "--m", "-1", "--l", "1",
        "--point", "0", "0", "0", "1.5", "0", "0", "0",
    ])
    assert code == 2
    assert "domain violation" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_curvature_overflow_exit_2(fmt, capsys):
    # at (1e200, 1) C already overflows, and at (0, 1e155) R, of order l^2
    for m, l in (("1e200", "1"), ("0", "1e155")):
        code = main([
            "curvature", "--m", m, "--l", l,
            "--point", "0", "0", "0", "0.3", "0", "0", "0", "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "overflow" in captured.err
