import json
import re
from pathlib import Path

import pytest

from oulab.cli import build_parser, main
from test_model import SLOW_NON_NORMAL


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

    for name in ("propagators", "_log_caps"):
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
def test_kernel_bounds_verb_names_the_critical_rate(capsys):
    # general2's Gaussian caps are finite at their default rates
    model = str(Path(__file__).resolve().parents[1] / "bench" / "models"
                / "general2.json")
    for which in ("kernel-small-t", "dkernel-small-t", "dkernel-large-t"):
        assert main(["kernel", "bounds", "--model", model, "--which",
                     which]) == 0
        out = capsys.readouterr().out
        assert "stable = True" in out and "cap = inf" not in out
    # above standard1's critical rate 1 / (2 (e^2 - 1)), set at t = 1, the
    # supremum is infinite: the verb fails and names the critical rate
    code = main(["kernel", "bounds", "--model", "standard1", "--which",
                 "dkernel-small-t", "--rate", "0.2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "bound failed" in err and "critical rate 0.0783" in err


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


def test_variation_path_check_refuses_more_than_16_values(monkeypatch,
                                                         capsys):
    # the exhaustive check enumerates 2^n subsequences; past 16 values it
    # is refused before any work, not skipped with exit 0
    from oulab import variation

    def no_work(*args):
        raise AssertionError("the variation ran")

    monkeypatch.setattr(variation, "variation_values", no_work)
    values = ",".join(str(v) for v in range(20))
    code = main(["variation", "path", "--rho", "2", "--values", values,
                 "--check"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "oulab: error: --check enumerates at most 16 values, got 20" \
        in err


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
                         ("oulab.kernel", "_scan_counts"),
                         ("oulab.kernel", "kdot_polynomial")):
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


def test_a_singular_propagator_exits_one_with_an_error_line(tmp_path,
                                                           capsys):
    # e^(-800 t) underflows to 0 from t = 0.931, so e^(tB) is singular at
    # t = 1, where the kernel's small-time form inverts it
    model = tmp_path / "stiff.json"
    model.write_text(json.dumps({"Q": [[1, 0], [0, 1]],
                                 "B": [[-1, 0], [0, -800]]}))
    code = main(["kernel", "eval", "--model", str(model), "--t", "1",
                 "--x", "0.3,0.2", "--u", "0.1,0.4"])
    printed, err = capsys.readouterr()
    assert code == 1
    assert "oulab: error: e^(tB) is singular in floating point at t = 1," \
        in err
    assert "Traceback" not in err
    assert printed == ""


@pytest.mark.parametrize("t", ["0.5", "0.9"])
def test_a_cancelled_small_time_form_exits_one_with_an_error_line(
        t, tmp_path, capsys):
    # on the same drift A = Qt^-1 - Qinf^-1 is only semidefinite from
    # t = 0.0234; log K read 32.2287109445 at t = 0.5 (true 0.2287109445)
    # and nan at t = 0.9, both with exit 0
    model = tmp_path / "stiff.json"
    model.write_text(json.dumps({"Q": [[1, 0], [0, 1]],
                                 "B": [[-1, 0], [0, -800]]}))
    code = main(["kernel", "eval", "--model", str(model), "--t", t,
                 "--x", "0.3,0.2", "--u", "0.1,0.4"])
    printed, err = capsys.readouterr()
    assert code == 1
    assert ("oulab: error: A = Qt^-1 - Qinf^-1 is not positive definite "
            f"in floating point at t = {t}:") in err
    assert "Traceback" not in err
    assert printed == ""


SLOW_NON_NORMAL_JSON = json.dumps(SLOW_NON_NORMAL)


@pytest.mark.parametrize("argv", [
    ["probe", "weak-type", "--rho", "2.5", "--regime", "full",
     "--samples", "1000", "--refine", "1"],
    ["probe", "weak-type", "--rho", "2.5", "--regime", "large-t",
     "--samples", "1000", "--refine", "1"],
    ["probe", "kernel-bounds"]])
def test_a_drift_singular_only_above_the_switch_runs_its_probes(
        argv, tmp_path, capsys):
    # this e^(tB) loses rank near t = 50, where no form inverts it
    model = tmp_path / "slow.json"
    model.write_text(SLOW_NON_NORMAL_JSON)
    out = tmp_path / "out"
    code = main([*argv[:2], "--model", str(model), *argv[2:],
                 "--out", str(out)])
    printed, err = capsys.readouterr()
    assert "error" not in err
    (report,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
    passed = all(report["pass_flags"].values())
    assert code == (0 if passed else 2)
    assert ("overall: PASS" if passed else "overall: FAIL") in printed


def test_semigroup_apply_routes_agree_where_e_tb_is_singular(tmp_path,
                                                             capsys):
    model = tmp_path / "slow.json"
    model.write_text(SLOW_NON_NORMAL_JSON)
    code = main(["semigroup", "apply", "--model", str(model), "--t", "45",
                 "--x", "0.3,0.2,0.1"])
    assert code == 0
    assert capsys.readouterr().out.endswith("agreement: PASS\n")


GENERAL2_JSON = ('{"Q": [[1.0, 0.3], [0.3, 0.5]], '
                 '"B": [[-1.0, 2.0], [0.0, -0.5]]}')


def _with_general2(argv, tmp_path):
    """argv with the model name general2 replaced by a model file."""
    path = tmp_path / "general2.json"
    path.write_text(GENERAL2_JSON)
    return [str(path) if a == "general2" else a for a in argv]


@pytest.mark.parametrize("name", ["standard01", "standard1dd",
                                  "standard2ddd", "standard7", "standard"])
def test_only_the_six_builtin_names_load(name, capsys):
    assert main(["model", "check", name]) == 1
    assert f"unknown builtin model {name!r}" in capsys.readouterr().err


def test_a_model_file_named_like_a_builtin_loads(tmp_path, capsys,
                                                monkeypatch):
    # standard_ou.json was refused as an unknown builtin name; only a
    # name with no such file is tried as a builtin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "standard_ou.json").write_text(
        '{"Q": [[2.0]], "B": [[-1.0]]}')
    (tmp_path / "my_ou.json").write_text('{"Q": [[2.0]], "B": [[-1.0]]}')
    printed = []
    for name in ("standard_ou.json", "my_ou.json"):
        assert main(["model", "check", name]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and "check: PASS" in printed[0]
    assert main(["model", "check", "standard7"]) == 1
    assert "error:" in capsys.readouterr().err


GENERAL2_TOML = """Q = [[1.0, 0.3], [0.3, 0.5]]
B = [[-1.0, 2.0], [0.0, -0.5]]
"""


def test_toml_model_checks_as_its_json_twin(tmp_path, capsys):
    pytest.importorskip("tomllib")
    printed = []
    for name, text in (("general2.json", GENERAL2_JSON),
                       ("general2.toml", GENERAL2_TOML)):
        (tmp_path / name).write_text(text)
        assert main(["model", "check", str(tmp_path / name)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "check: PASS" in printed[1]


def test_malformed_toml_model_exits_one(tmp_path, capsys):
    pytest.importorskip("tomllib")
    path = tmp_path / "broken.toml"
    path.write_text("Q = [[1.0, 0.3], [0.3\nB = ]\n")
    assert main(["model", "check", str(path)]) == 1
    assert "cannot read model" in capsys.readouterr().err


# the exact stdout of the kernel verbs on standard1 and general2: every
# printed digit is pinned, so a route that moves a bit of log K, of the
# slope or of a bisected zero shows here.  The zeros lines were printed by
# the scan; both models now take the slope polynomial, whose zeros read
# the same to every printed digit
KERNEL_GOLDEN = [
    (["eval", "--model", "standard1", "--t", "0.5", "--x", "0.3",
      "--u", "-1.2"], 0,
     "log K_t(x, u) = -0.561300863302\nK_t(x, u)     = 0.570466482043\n"),
    (["eval", "--model", "standard1", "--t", "40", "--x", "-2", "--u", "1"],
     0, "log K_t(x, u) = 0\nK_t(x, u)     = 1\n"),
    (["eval", "--model", "general2", "--t", "1e-4", "--x", "0.3,0.1",
      "--u", "0.31,0.1"], 0,
     "log K_t(x, u) = 8.56514815549\nK_t(x, u)     = 5245.61703006\n"),
    (["eval", "--model", "general2", "--t", "3", "--x", "1.7,2",
      "--u", "0.2,-0.3"], 0,
     "log K_t(x, u) = -0.0574170192874\nK_t(x, u)     = 0.944200237544\n"),
    # log K > 700: the log line, then an overflow error
    (["eval", "--model", "standard1", "--t", "0.5", "--x", "70",
      "--u", "42.4571"], 1, "log K_t(x, u) = 901.532007776\n"),
    (["zeros", "--model", "standard1", "--x", "1", "--u", "2"], 0,
     "sign changes of dK/dt on (1e-08, 1]: 1\n"
     "  zero near t = 0.448012153\n"
     "grid-doubling stable: yes\n"),
    (["zeros", "--model", "standard1", "--x", "-0.28", "--u", "0.5",
      "--t-lo", "1e-3", "--t-hi", "5"], 0,
     "sign changes of dK/dt on (0.001, 5]: 2\n"
     "  zero near t = 0.5210318993\n"
     "  zero near t = 1.420320804\n"
     "grid-doubling stable: yes\n"),
    (["zeros", "--model", "general2", "--x", "1,2", "--u", "2,3",
      "--scan", "512"], 0,
     "sign changes of dK/dt on (1e-08, 1]: 1\n"
     "  zero near t = 0.2655117968\n"
     "grid-doubling stable: yes\n"),
    (["zeros", "--model", "general2", "--x", "4.36,0.52",
      "--u", "4.97,-1.65", "--t-lo", "1e-3", "--t-hi", "5"], 0,
     "sign changes of dK/dt on (0.001, 5]: 3\n"
     "  zero near t = 0.6068211383\n"
     "  zero near t = 3.026388854\n"
     "  zero near t = 4.230992027\n"
     "grid-doubling stable: yes\n"),
]


@pytest.mark.parametrize("argv,code,stdout", KERNEL_GOLDEN)
def test_kernel_verbs_print_their_golden_lines(argv, code, stdout, tmp_path,
                                               capsys):
    assert main(["kernel", *_with_general2(argv, tmp_path)]) == code
    out, err = capsys.readouterr()
    assert out == stdout
    if code == 1:
        assert "oulab: error: K = e^(log K) overflows" in err


@pytest.mark.parametrize("model,route", [
    ("standard2", "zero-count route: polynomial, degree 5\n"),
    ("general2", "zero-count route: polynomial, degree 9\n"),
    ("rotating", "zero-count route: scan\n")])
def test_kernel_zeros_names_its_route_on_stderr(model, route, tmp_path,
                                                capsys):
    # B = [[-1, 1/2], [-1/2, -1]] has complex eigenvalues: it takes the scan
    rotating = tmp_path / "rotating.json"
    rotating.write_text('{"Q": [[1.0, 0.3], [0.3, 0.5]], '
                        '"B": [[-1.0, 0.5], [-0.5, -1.0]]}')
    argv = ["kernel", "zeros", "--model", model, "--x", "1,2", "--u", "2,3",
            "--scan", "512"]
    argv = [str(rotating) if a == "rotating" else a
            for a in _with_general2(argv, tmp_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.endswith("grid-doubling stable: yes\n")
    assert route in err.splitlines(keepends=True)


@pytest.mark.parametrize("argv,named", [
    # the critical-time route (standard1) and the grid route (general2)
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--refine", "-1"], "refinement count"),
    (["probe", "weak-type", "--model", "general2", "--rho", "2.5",
      "--refine", "-1", "--samples", "1000"], "refinement count"),
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--center", "45"], "bump centre [45.0]"),
    (["probe", "enhanced", "--model", "standard1", "--center", "45"],
     "bump centre [45.0]"),
    (["semigroup", "apply", "--model", "standard1", "--t", "0.5",
      "--x", "0.3", "--center", "45"], "bump centre [45.0]"),
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--width", "1e200"], "bump width 1e+200"),
    (["probe", "enhanced", "--model", "standard1", "--width", "1e200"],
     "bump width 1e+200"),
    (["semigroup", "apply", "--model", "standard1", "--t", "0.5",
      "--x", "0.3", "--width", "1e200"], "bump width 1e+200"),
    (["probe", "cz", "--model", "standard1", "--rho", "2.5", "--dirs", "0"],
     "at least one direction"),
    (["probe", "cz", "--model", "standard1", "--rho", "2.5",
      "--triples", "0"], "at least one direction and one triple"),
    # a curve of fewer than 2 levels reads nothing, so it must not pass
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--alphas", "0"], "at least 2 levels"),
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--alphas", "1"], "at least 2 levels"),
    # a negative rate turns the Gaussian average into a growing exponential
    (["probe", "enhanced", "--model", "standard1", "--delta", "-1"],
     "finite and positive"),
    # a width whose square is subnormal: 1 / width^2 overflows
    (["semigroup", "apply", "--model", "standard1", "--t", "0.5",
      "--x", "0.3", "--width", "1e-160"], "bump width 1e-160"),
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--width", "1e-160"], "bump width 1e-160"),
    # a frequency grid that np.geomspace cannot build, or builds of NaN
    (["torus", "fourier", "--xi-min", "0"], "finite and positive"),
    (["torus", "fourier", "--xi-min", "-5"], "finite and positive"),
    (["torus", "fourier", "--points", "0"], "at least 2 points"),
    # an empty half sample, and levels that the probe would read as none
    (["probe", "enhanced", "--model", "standard1", "--samples", "0"],
     "at least 2 samples"),
    (["probe", "enhanced", "--model", "standard1", "--samples", "1"],
     "at least 2 samples"),
    (["probe", "enhanced", "--model", "standard1", "--alphas", ",,"],
     "at least one level"),
    (["probe", "enhanced", "--model", "standard1", "--alphas", "4,nan"],
     "each finite"),
    (["probe", "enhanced", "--model", "standard1", "--alphas", "4,inf"],
     "each finite"),
    (["torus", "failure", "--p", ","], "at least one exponent p"),
    (["torus", "failure", "--N", ","], "one scale N"),
    # a Gauss-Hermite order past what hermegauss builds
    (["semigroup", "apply", "--model", "standard1", "--t", "1",
      "--x", "0.3", "--order", "400"], "order 400 is past"),
    # a base time grid of fewer than one point a decade is two times
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--points-per-decade", "0"], "at least 1 point a decade, got 0"),
    (["probe", "weak-type", "--model", "standard1", "--rho", "2.5",
      "--points-per-decade", "-3"], "at least 1 point a decade, got -3"),
])
def test_refused_settings_exit_one_with_an_error_line_and_no_report(
        argv, named, tmp_path, capsys, monkeypatch):
    argv = _with_general2(argv, tmp_path)
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    out = ["--out", "out"] if argv[0] == "probe" else []
    code = main([*argv, *out])
    printed, err = capsys.readouterr()
    assert code == 1
    assert "oulab: error: " in err and named in err
    assert "Warning" not in err
    assert "overall" not in printed
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # a scale compared with itself: a flat median, a growth of 1.0 and a
    # zero step would read as verdicts
    ["torus", "qian", "--N", "4,4"],
    ["torus", "delta", "--N", "2,2"],
    ["torus", "failure", "--N", "4,4"]])
def test_repeated_scales_exit_one_with_an_error_line_and_no_report(
        argv, tmp_path, capsys):
    code = main([*argv, "--samples", "1000", "--out", str(tmp_path)])
    printed, err = capsys.readouterr()
    assert code == 1
    assert "oulab: error: scale N repeats in" in err
    assert printed == ""
    assert list(tmp_path.iterdir()) == []


def test_a_non_integer_thread_count_exits_one_with_an_error_line(
        monkeypatch, capsys):
    monkeypatch.setenv("OULAB_THREADS", "abc")
    code = main(["model", "check", "standard1"])
    printed, err = capsys.readouterr()
    assert code == 1
    assert printed == ""
    assert [ln for ln in err.splitlines() if ln.startswith("oulab:")] == [
        "oulab: error: OULAB_THREADS must be an integer, got 'abc'"]
