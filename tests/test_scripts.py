"""Smoke tests for the command-line scripts in ``scripts/``."""

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from ebcv.cli import main as ebcv_main
from ebcv.geodesics import MAX_STEPS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_python_blocks_run():
    # every python block of the README in order, in one namespace, as a
    # reader pastes them into one session
    text = (SCRIPTS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_gallery_csv_matches_the_cli(tmp_path, capsys):
    gallery = _load_script("geodesic_gallery")
    out_dir = tmp_path / "gallery"
    assert gallery.main(["--out-dir", str(out_dir), "--n", "200"]) == 0
    assert f"wrote {len(gallery.GALLERY)} trajectories" in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"{name}.csv" for name in gallery.GALLERY
    )
    for name, momenta in gallery.GALLERY.items():
        cli_csv = tmp_path / f"{name}-cli.csv"
        init = ["0"] * 7 + [repr(float(v)) for v in momenta]
        code = ebcv_main([
            "geodesic", "--format", "csv", "--h", "1e-3", "--n", "200",
            "--init", *init, "--out", str(cli_csv),
        ])
        assert code == 0
        assert (out_dir / f"{name}.csv").read_bytes() == cli_csv.read_bytes(), name


def test_convergence_study_reports_the_ratio_range(capsys):
    study = _load_script("convergence_study")
    code = study.main(["--states", "2", "--levels", "2", "--span", "0.5"])
    assert code == 0
    assert "observed ratio range" in capsys.readouterr().out


def test_report_matrix_writes_every_report_without_elapsed(tmp_path, capsys):
    matrix = _load_script("report_matrix")
    out = tmp_path / "matrix"
    assert matrix.main(["--out", str(out), "--samples", "3"]) == 0
    assert "wrote 18 reports" in capsys.readouterr().out
    assert len(list(out.iterdir())) == len(matrix.PARAMS) * len(matrix.SEEDS) == 18
    cli_json = tmp_path / "cli.json"
    ebcv_main(["verify", "--m", "1", "--l", "1", "--samples", "3", "--seed", "2",
               "--format", "json", "--out", str(cli_json)])
    want = json.loads(cli_json.read_text())
    want["summary"].pop("elapsed")
    got = json.loads((out / "verify_m1_l1_samples3_seed2.json").read_text())
    assert got == want


def _write_report(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    checks = [{"id": cid, "status": status, "max_residual": residual}
              for cid, status, residual in records]
    path.write_text(json.dumps({"checks": checks, "summary": {}}))


def test_report_diff_lists_moved_records_and_fails_on_status(tmp_path, capsys):
    diff = _load_script("report_diff")
    before, after = tmp_path / "before", tmp_path / "after"
    base = [("a", "pass", 1e-16), ("b", "paper-discrepancy", 0.5)]
    _write_report(before / "r.json", base)
    _write_report(after / "r.json", base)
    assert diff.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out == ""
    # a residual that moves at the same status is listed, and passes
    _write_report(after / "r.json", [base[0], ("b", "paper-discrepancy", 0.25)])
    assert diff.main([str(before / "r.json"), str(after / "r.json")]) == 0
    assert capsys.readouterr().out == (
        "b: paper-discrepancy -> paper-discrepancy; max_residual 0.5 -> 0.25\n")
    # a record whose other fields move is listed with their names
    moved = [dict(c, witness=[0.0] * 7) for c in json.loads(
        (before / "r.json").read_text())["checks"]]
    moved[1]["oracle"] = "-3"
    (after / "r.json").write_text(json.dumps({"checks": moved, "summary": {}}))
    assert diff.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "r.json: a: pass -> pass; max_residual 1e-16 -> 1e-16; moved: witness",
        "r.json: b: paper-discrepancy -> paper-discrepancy; max_residual "
        "0.5 -> 0.5; moved: oracle, witness",
    ]
    # a status that changes, a record and a report on one side only fail
    _write_report(after / "r.json", [("a", "fail", 0.1), base[1], ("c", "pass", 0.0)])
    _write_report(after / "s.json", base)
    assert diff.main([str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "r.json: a: pass -> fail; max_residual 1e-16 -> 0.1",
        "r.json: c: absent -> pass; max_residual - -> 0.0",
        "s.json: report absent -> present",
    ]


def test_report_diff_lists_summary_keys(tmp_path, capsys):
    diff = _load_script("report_diff")
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    checks = [{"id": "a", "status": "pass", "max_residual": 0.0}]
    summary = {"counts": {"fail": 0, "pass": 1}, "elapsed": 0.5,
               "samples": 20, "tol_scale": 1.0}
    before.write_text(json.dumps({"checks": checks, "summary": summary}))

    def write_after(**changes):
        new = {k: v for k, v in {**summary, **changes}.items()
               if v is not None}
        after.write_text(json.dumps({"checks": checks, "summary": new}))

    # elapsed is skipped, and a value that moves is listed but passes
    write_after(elapsed=0.7, samples=5, counts={"pass": 1, "fail": 0})
    assert diff.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out == "summary.samples: 20 -> 5\n"
    # a key on one side only is listed with absent, and fails
    write_after(tol_scale=None, seed=0)
    assert diff.main([str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "summary.tol_scale: 1.0 -> absent",
        "summary.seed: absent -> 0",
    ]


def test_report_diff_compares_other_files_byte_for_byte(tmp_path, capsys):
    # tests/data/ holds integrate_contract.json beside the verify reports
    diff = _load_script("report_diff")
    before, after = tmp_path / "before", tmp_path / "after"
    base = [("a", "pass", 1e-16)]
    for side in (before, after):
        _write_report(side / "verify.json", base)
        (side / "contract.json").write_text('{"cases": {"x": "00"}}')
        (side / "notes.txt").write_bytes(b"\xff not json")
    assert diff.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out == ""
    (after / "contract.json").write_text('{"cases": {"x": "01"}}')
    (after / "notes.txt").write_bytes(b"\xfe not json")
    assert diff.main([str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "contract.json: differs",
        "notes.txt: differs",
    ]


@pytest.mark.parametrize("script, argv", [
    ("geodesic_gallery", ["--n", "0"]),
    ("geodesic_gallery", ["--h", "0"]),
    ("geodesic_gallery", ["--h", "nan"]),
    ("convergence_study", ["--span", "0"]),
    ("convergence_study", ["--h0", "-1"]),
    ("convergence_study", ["--states", "0"]),
    ("convergence_study", ["--span", "0.001"]),
    ("geodesic_gallery", ["--n", str(MAX_STEPS + 1)]),
    ("report_matrix", ["--samples", "0", "--out", "matrix"]),
    ("report_diff", ["missing-before", "missing-after"]),
])
def test_invalid_arguments_exit_2(script, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the gallery writes to ./gallery by default
    module = _load_script(script)
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


def _ebcv_namespaces() -> dict:
    """A copy of the namespace of every loaded ebcv module and, if loaded,
    of ``ebcv.jets.Jet``, by name."""
    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "ebcv" or name.startswith("ebcv.")}
    if "ebcv.jets" in spaces:
        spaces["ebcv.jets.Jet"] = dict(vars(spaces["ebcv.jets"]["Jet"]))
    return spaces


def test_the_benchmark_tracer_installs_and_puts_every_hook_back():
    # the traced benchmark run wraps every public function of the loaded
    # ebcv modules and the methods of ebcv.jets.Jet; everything it looks up
    # must be there, and uninstall must leave each attribute as it was
    import ebcv
    import ebcv.cli  # noqa: F401

    tracer = _load_script("tracer", PERFBENCH)
    before = _ebcv_namespaces()
    rec = tracer.Recorder()
    try:
        rec.install()
        assert ebcv.curvature.riemann_frame is not before["ebcv.curvature"][
            "riemann_frame"]
        assert vars(sys.modules["ebcv.jets"].Jet)["__mul__"] is not before[
            "ebcv.jets.Jet"]["__mul__"]
    finally:
        rec.uninstall()
    after = _ebcv_namespaces()
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert after[name].keys() == space.keys(), name
        moved = [attr for attr, obj in space.items()
                 if after[name][attr] is not obj]
        assert moved == [], name
