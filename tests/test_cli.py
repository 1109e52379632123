import json
import re
from pathlib import Path

import pytest

from oulab.cli import build_parser, main


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
                                  ["torus", "failure", "--N", "2,4"],
                                  ["torus", "qian", "--N", ","],
                                  ["probe", "kernel-bounds", "--model",
                                   "standard1", "--samples", "2"]])
def test_out_of_range_settings_exit_one_without_a_report(argv, tmp_path,
                                                         capsys):
    code = main([*argv, "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["zeros", "--x", "1", "--u", "2", "--scan", "0"],
    ["zeros", "--x", "1", "--u", "2", "--scan", "-5"],
    ["zeros", "--x", "1", "--u", "2", "--scan", "1"],
    ["bounds", "--samples", "0"],
    ["bounds", "--samples", "2"],
    ["bounds", "--samples", "3", "--which", "tail-integral"],
    ["bounds", "--rate", "-1"],
    ["bounds", "--rate", "0"]])
def test_bad_kernel_sizes_exit_one_before_any_work(argv, tmp_path, capsys,
                                                   monkeypatch):
    from importlib import import_module
    kernel_mod = import_module("oulab.kernel")

    def no_work(*args):
        raise AssertionError("ran before the size check")

    for name in ("propagators", "_calibration_sample"):
        monkeypatch.setattr(kernel_mod, name, no_work)
    monkeypatch.chdir(tmp_path)
    code = main(["kernel", argv[0], "--model", "standard1", *argv[1:]])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["torus", "qian", "--N", "abc"],
    ["torus", "failure", "--p", "x"],
    ["probe", "enhanced", "--model", "standard1", "--alphas", "4,q"],
    ["torus", "delta", "--N", "2,x"],
    ["kernel", "eval", "--model", "standard1", "--t", "1", "--x", "1,2",
     "--u", "1"],
    ["kernel", "zeros", "--model", "standard1", "--x", "1,2", "--u", "1"],
    ["semigroup", "apply", "--model", "standard1", "--t", "1",
     "--x", "1,2"],
    ["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
     "--center", "1,2"],
    ["probe", "enhanced", "--model", "standard2", "--center", "1"]])
def test_malformed_lists_and_points_exit_one_without_a_report(
        argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out"] if argv[0] in ("probe", "torus") else []
    code = main([*argv, *out])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_difference_bound_rejects_n_other_than_one_before_any_work(
        tmp_path, capsys, monkeypatch):
    import oulab.torus

    def no_work(*args):
        raise AssertionError("ran before the dimension check")

    monkeypatch.setattr(oulab.torus, "_difference_ratio_pieces", no_work)
    code = main(["torus", "delta", "--model", "standard2",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "n = 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--rate", "-1"],
    ["--rate", "0"],
    ["--rate", "nan"],
    ["--samples", "0"],
    ["--samples", "1"],
    ["--samples", "3"],
    ["--xpoints", "0"],
    ["--N", "1"],
    ["--N", "2,6"],
    ["--N", "9"],
    ["--N", ","]])
def test_bad_difference_settings_exit_one_before_any_work(
        argv, tmp_path, capsys, monkeypatch):
    import oulab.torus

    def no_work(*args):
        raise AssertionError("ran before the range check")

    monkeypatch.setattr(oulab.torus, "_difference_ratio_pieces", no_work)
    code = main(["torus", "delta", *argv, "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rate", ["0.6", "5"])
def test_overflowing_difference_rate_fails_the_bound(rate, tmp_path, capsys):
    # the maximal ratio exp(a + c b) leaves the float range at these rates
    code = main(["torus", "delta", "--rate", rate, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "oulab: bound failed:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the report each report-writing verb below names its JSON after
REPORTS = {("torus", "fourier"): "fourier-gap",
           ("torus", "qian"): "variation-growth-E",
           ("torus", "failure"): "weak-type-failure",
           ("torus", "delta"): "kernel-difference-bound",
           ("probe", "enhanced"): "annulus-superlevel",
           ("probe", "cz"): "cz-sweeps",
           ("probe", "kernel-bounds"): "kernel-bounds"}


@pytest.mark.parametrize("argv,code,printed", [
    (["model", "check", "standard2"], 0, "check: PASS"),
    (["kernel", "eval", "--model", "standard1", "--t", "0.5", "--x", "0.3",
      "--u", "0.1"], 0, "K_t(x, u)     = "),
    (["kernel", "zeros", "--model", "standard1", "--x", "1", "--u", "2"], 0,
     "grid-doubling stable: yes"),
    (["kernel", "bounds", "--model", "standard1", "--which",
      "kernel-small-t", "--rate", "1"], 2, None),
    (["variation", "path", "--rho", "2", "--values", "0,1,0.5,2,-1",
      "--check"], 0, "3.605551"),    # sqrt(2^2 + 3^2)
    (["torus", "fourier"], 0, "sup of summed gap"),
    (["torus", "qian", "--N", "6", "--samples", "1000"], 0,
     "median v(2)/sqrt(N) = 1.414214"),
    (["torus", "failure", "--N", "4,6", "--samples", "1000"], 0,
     "quotients across N"),
    (["probe", "enhanced", "--model", "standard1"], 0, "statistic"),
    (["probe", "cz", "--model", "standard1", "--rho", "2.5"], 0,
     "size sweep"),
    (["probe", "kernel-bounds", "--model", "standard1", "--samples",
      "2000"], 0, "tail-integral: c = "),
    (["torus", "delta"], 0, "  operator_bounded: pass"),
])
def test_verbs_keep_the_exit_code_contract(argv, code, printed, tmp_path,
                                           capsys):
    report = REPORTS.get(tuple(argv[:2]))
    out_dir = [] if report is None else ["--out", str(tmp_path)]
    assert main([*argv, *out_dir]) == code
    out, err = capsys.readouterr()
    if printed is None:
        # a rate the bound cannot support ends in RateTooLargeError
        assert "bound failed" in err
    else:
        assert printed in out
    if report is not None:
        # the exit code, the printed verdict and the JSON flags agree
        flags = json.loads((tmp_path / f"{report}.json").read_text())[
            "pass_flags"]
        assert flags and all(flags.values())
        assert "overall: PASS" in out


@pytest.mark.parametrize("model,x", [("standard1", "0.3"),
                                     ("standard3", "0.4,0.4,0.4")])
def test_semigroup_apply_routes_agree(model, x, capsys):
    code = main(["semigroup", "apply", "--model", model, "--t",
                 "0.5" if model == "standard1" else "5", "--x", x])
    printed = capsys.readouterr().out
    assert code == 0
    assert "agreement: PASS" in printed


@pytest.mark.parametrize("text", ["{not json", '{"Q": [[2.0]]}',
                                  '{"n": 2, "Q": [1.0], "B": [-1.0]}'])
def test_malformed_model_file_exits_one_without_a_report(text, tmp_path,
                                                         capsys):
    spec = tmp_path / "model.json"
    spec.write_text(text)
    out = tmp_path / "out"
    code = main(["probe", "weak-type", "--model", str(spec), "--rho", "2.5",
                 "--samples", "1000", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_budget_is_checked_after_the_report_is_written(tmp_path, capsys):
    argv = ["probe", "enhanced", "--model", "standard1", "--samples", "1000"]
    assert main([*argv, "--out", str(tmp_path / "free")]) == 0
    code = main([*argv, "--budget", "0", "--out", str(tmp_path / "spent")])
    assert code == 2
    assert "budget exceeded" in capsys.readouterr().err
    # the report is written before the budget is checked, and is the same
    name = "annulus-superlevel.json"
    assert (tmp_path / "spent" / name).read_bytes() == \
        (tmp_path / "free" / name).read_bytes()


def test_parser_bound_choices_are_the_kernel_bound_names():
    # the parser is built before numpy loads, so it keeps its own copy
    from oulab import cli
    from oulab.kernel import BOUND_NAMES
    assert cli._BOUND_NAMES == BOUND_NAMES


def test_combined_torus_qian_is_read_from_the_single_n_reports(tmp_path,
                                                               capsys):
    from oulab.torus import CounterexampleConfig, variation_growth_experiment
    code = main(["torus", "qian", "--N", "6,8", "--samples", "1000",
                 "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "qian_growth.csv", "threshold_measure.csv", "torus-growth.json"]
    report = json.loads((tmp_path / "torus-growth.json").read_text())
    singles = {N: variation_growth_experiment(
        CounterexampleConfig(N=N, seed=0, sample_size=1000), "E")
        for N in (6, 8)}
    medians = [singles[N].statistics["median_scaled"] for N in (6, 8)]
    assert report["statistics"]["medians_scaled"] == medians
    assert report["tables"]["qian_growth"] == [
        {"N": N, "median_scaled": rep.statistics["median_scaled"],
         "drift": rep.statistics["drift"]} for N, rep in singles.items()]
    assert report["tables"]["threshold_measure"] == [
        {"N": N, **row} for N, rep in singles.items()
        for row in rep.tables["threshold_measure"]]
    flags = report["pass_flags"]
    assert flags == {
        **{f"N{N}/{k}": v for N, rep in singles.items()
           for k, v in rep.pass_flags.items()},
        "median_nondecreasing": medians[1] >= medians[0] - 1e-12}
    assert {"N6/finite", "N6/stable", "N6/lower_bound",
            "N8/finite", "N8/stable", "N8/lower_bound"} <= set(flags)
    # the exit code, the printed verdict and the JSON flags agree
    for N, m in zip((6, 8), medians):
        assert f"N={N}  median v(2)/sqrt(N) = {m:.6f}" in printed
    for key, value in flags.items():
        assert f"  {key}: {'pass' if value else 'FAIL'}" in printed
    assert all(flags.values()) and "overall: PASS" in printed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_bounds_verb_fails_on_an_infinite_cap(capsys):
    # on general2 the small-t bisection reaches the natural rate with an
    # infinite cap; probe kernel-bounds fails it through its finite flag
    model = str(Path(__file__).resolve().parents[1] / "bench" / "models"
                / "general2.json")
    code = main(["kernel", "bounds", "--model", model, "--which",
                 "kernel-small-t"])
    out = capsys.readouterr().out
    assert "prefactor cap = inf, stable = True" in out
    assert code == 2


def test_kernel_bounds_verb_and_probe_print_one_calibration(tmp_path,
                                                           capsys):
    from oulab.kernel import BOUND_NAMES
    argv = ["--model", "standard1", "--samples", "2000"]
    assert main(["kernel", "bounds", *argv]) == 0
    verb = re.findall(r"^(\S+): rate c = (\S+), prefactor cap = (\S+), "
                      r"stable = True$", capsys.readouterr().out, re.M)
    assert main(["probe", "kernel-bounds", *argv,
                 "--out", str(tmp_path)]) == 0
    probe = re.findall(r"^(\S+): c = (\S+), cap = (\S+)$",
                       capsys.readouterr().out, re.M)
    assert [row[0] for row in verb] == list(BOUND_NAMES)
    assert verb == probe


# cheap calls of several verbs, with and without their optional flags
_SEQUENCE = [
    ["variation", "path", "--rho", "2", "--values", "0,1,0.5,2,-1",
     "--check"],
    ["kernel", "zeros", "--model", "standard1", "--x", "1", "--u", "2",
     "--scan", "512"],
    ["variation", "path", "--rho", "2.5", "--values", "0,1,0.5,2,-1"],
    ["kernel", "zeros", "--model", "standard1", "--x", "1", "--u", "2"],
    ["model", "check", "standard2"],
    ["kernel", "eval", "--model", "standard1", "--t", "0.5", "--x", "0.3",
     "--u", "0.1"],
    ["variation", "path", "--rho", "0.5", "--values", "1,2"],
]


def test_one_parser_serves_successive_calls_like_fresh_ones(capsys):
    fresh = []
    for argv in _SEQUENCE:
        build_parser.cache_clear()
        code = main(argv)
        fresh.append((code, capsys.readouterr().out))
    build_parser.cache_clear()
    parser = build_parser()
    for argv, expected in zip(_SEQUENCE, fresh):
        assert (main(argv), capsys.readouterr().out) == expected
        # a usage error in between leaves the parser as it was
        with pytest.raises(SystemExit):
            main(["kernel", "zeros", "--model", "standard1"])
    assert build_parser() is parser


def test_no_default_leaks_from_one_call_into_the_next():
    parser = build_parser()
    first = parser.parse_args(["kernel", "zeros", "--model", "standard1",
                               "--x", "1", "--u", "2", "--scan", "64",
                               "--t-hi", "3", "--threads", "2"])
    again = parser.parse_args(["kernel", "zeros", "--model", "standard1",
                               "--x", "1", "--u", "2"])
    assert (first.scan, first.t_hi, first.threads) == (64, 3.0, 2)
    assert (again.scan, again.t_hi, again.threads) == (4096, 1.0, None)
    checked = parser.parse_args(["variation", "path", "--rho", "2",
                                 "--values", "1,2", "--check"])
    plain = parser.parse_args(["variation", "path", "--rho", "2",
                               "--file", "path.txt"])
    assert checked.check and checked.values == "1,2"
    assert not plain.check and plain.values is None
    assert plain.file == "path.txt" and checked.file is None
    # namespaces of other verbs carry none of these attributes
    other = parser.parse_args(["model", "check", "standard1"])
    assert not hasattr(other, "scan") and not hasattr(other, "check")


@pytest.mark.parametrize("values", ["1,nan,2", "1,inf,2", "0,-inf", "nan"])
def test_variation_path_refuses_non_finite_values(values, monkeypatch,
                                                  capsys):
    from oulab import variation

    def no_work(*args):
        raise AssertionError("the variation ran")

    monkeypatch.setattr(variation, "variation_values", no_work)
    code = main(["variation", "path", "--rho", "2", "--values", values])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "error: path values must be finite" in err


def test_variation_path_refuses_non_finite_values_in_a_file(tmp_path,
                                                            capsys):
    path = tmp_path / "path.txt"
    path.write_text("0.5\n1e400\n-2\n")          # 1e400 reads as inf
    code = main(["variation", "path", "--rho", "2", "--file", str(path)])
    assert code == 1 and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["probe", "enhanced", "--model", "standard1", "--center", "nan"],
    ["probe", "enhanced", "--model", "standard1", "--width", "nan"],
    ["kernel", "zeros", "--model", "standard1", "--x", "nan", "--u", "1.0"],
    ["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
     "--regime", "full", "--center", "nan"],
    ["kernel", "eval", "--model", "standard1", "--t", "nan", "--x", "0.1",
     "--u", "0.2"],
    ["kernel", "eval", "--model", "standard2", "--t", "1", "--x", "nan,0",
     "--u", "0,0"]])
def test_non_finite_inputs_exit_one_before_any_work(argv, tmp_path, capsys,
                                                    monkeypatch):
    # each of these printed a verdict (or ran for half a minute) on NaN
    from importlib import import_module

    def no_work(*args, **kwargs):
        raise AssertionError("ran on a non-finite input")

    for module, name in (("oulab.semigroup", "variation_batch_paths"),
                         ("oulab.semigroup", "annulus_indicator"),
                         ("oulab.kernel", "_scan_counts")):
        monkeypatch.setattr(import_module(module), name, no_work)
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out"] if argv[0] == "probe" else []
    code = main([*argv, *out])
    printed, err = capsys.readouterr()
    assert code == 1 and printed == ""
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []


# runs with a point of --x, --u or --center that starts with a negative
# number, which argparse alone takes for an option when it is spaced
NEGATIVE_POINT_ARGVS = [
    ["kernel", "eval", "--model", "standard2", "--t", "0.7",
     "--x", "0.3,0.1", "--u", "-0.4,0.2"],
    ["kernel", "eval", "--model", "standard3", "--t", "1.5",
     "--x", "-0.3,0.1,-2e-1", "--u", "-.4, 0.2,1"],
    ["kernel", "zeros", "--model", "standard2", "--x", "-1,0.5",
     "--u", "-0.5,1", "--scan", "64"],
    ["semigroup", "apply", "--model", "standard2", "--t", "0.5",
     "--x", "-0.3,0.2", "--center", "-0.1,0.4"],
    ["probe", "enhanced", "--model", "standard2", "--center", "-0.2,0.1",
     "--samples", "200"],
]


@pytest.mark.parametrize("argv", NEGATIVE_POINT_ARGVS)
def test_negative_points_parse_alike_spaced_and_joined(argv, tmp_path,
                                                       capsys):
    out = ["--out", str(tmp_path)] if argv[0] == "probe" else []
    joined, it = [], iter(argv)
    for a in it:
        joined.append(f"{a}={next(it)}" if a in ("--x", "--u", "--center")
                      else a)
    runs = []
    for form in (argv, joined):
        code = main([*form, *out])
        captured = capsys.readouterr()
        assert "error" not in captured.err
        runs.append((code, captured.out))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2) and runs[0][1]


def test_no_option_looks_like_a_negative_number():
    import argparse

    def parsers(p):
        yield p
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    seen = 0
    for p in parsers(build_parser()):
        assert not p._has_negative_number_optionals
        for action in p._actions:
            for opt in action.option_strings:
                assert not p._negative_number_matcher.match(opt)
        seen += 1
    assert seen > 14
