import json

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
