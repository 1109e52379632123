import json

import pytest

from oulab.cli import main


def test_unconverged_probe_fails_everywhere(tmp_path, capsys):
    # with no refinement the variation cannot converge, so the exit code,
    # the printed verdict and the JSON pass flags must all say FAIL
    code = main(["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
                 "--refine", "0", "--samples", "1000",
                 "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    report = json.loads((tmp_path / "weak-type-full.json").read_text())
    assert report["statistics"]["variation_unconverged"] is True
    assert code == 2
    flag_lines = [ln for ln in printed.splitlines() if ln.startswith("  ")]
    assert flag_lines and all(ln.endswith(": FAIL") for ln in flag_lines)
    assert "overall: FAIL" in printed
    assert report["pass_flags"] and not any(report["pass_flags"].values())


@pytest.mark.parametrize("argv", [["torus", "qian", "--N", "20"],
                                  ["torus", "failure", "--N", "2,4"]])
def test_out_of_range_settings_exit_one_without_a_report(argv, tmp_path,
                                                         capsys):
    code = main([*argv, "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model,x", [("standard1", "0.3"),
                                     ("standard3", "0.4,0.4,0.4")])
def test_semigroup_apply_routes_agree(model, x, capsys):
    code = main(["semigroup", "apply", "--model", model, "--t",
                 "0.5" if model == "standard1" else "5", "--x", x])
    printed = capsys.readouterr().out
    assert code == 0
    assert "agreement: PASS" in printed
