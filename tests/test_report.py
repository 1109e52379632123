import json
import os

import numpy as np

from oulab.report import (ProbeReport, _atomic_write, config_fingerprint,
                          emit_plot_data)


def _report(**kw):
    fields = dict(name="demo", claim="a neutral claim",
                  inputs={"zeta": 0.1, "alpha": np.float64(1.0) / 3.0,
                          "grid": np.array([1.0, 2.5])},
                  statistics={"statistic": 2.0 / 3.0, "count": np.int64(7)},
                  pass_flags={"finite": True}, seed=4)
    fields.update(kw)
    return ProbeReport(**fields)


def test_json_has_sorted_keys_and_repr_floats():
    text = _report().to_json()
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert list(doc["inputs"]) == ["alpha", "grid", "zeta"]
    # every float is written as its shortest round-trip repr
    assert '"alpha": 0.3333333333333333' in text
    assert '"statistic": 0.6666666666666666' in text
    assert '"zeta": 0.1' in text
    assert doc["inputs"]["grid"] == [1.0, 2.5]
    assert doc["statistics"]["count"] == 7
    assert text.endswith("}\n")


def _strict_json(text):
    """json.loads that refuses the Infinity, -Infinity and NaN tokens."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_values_are_strict_json_strings():
    report = _report(
        statistics={"cap": float("inf"), "low": -np.inf,
                    "gap": np.float64("nan"), "count": 3},
        tables={"rows": [{"cap": np.array([1.5, np.inf])[1]}]},
        pass_flags={"finite": False})
    text = report.to_json()
    doc = _strict_json(text)
    assert doc["statistics"] == {"cap": "inf", "count": 3, "gap": "nan",
                                 "low": "-inf"}
    assert doc["tables"]["rows"] == [{"cap": "inf"}]
    # the verdict stays in the flags
    assert doc["pass_flags"] == {"finite": False}
    assert _strict_json(_report().to_json()) == json.loads(
        _report().to_json())


def test_json_bytes_do_not_depend_on_insertion_order():
    a = _report(inputs={"b": 1.5, "a": [1, 2], "c": {"y": 1, "x": 2}})
    b = _report(inputs={"c": {"x": 2, "y": 1}, "a": [1, 2], "b": 1.5})
    assert a.to_json() == b.to_json()


def test_fingerprint_ignores_insertion_order_but_not_values():
    one = {"rho": 2.5, "model": "standard1", "nested": {"u": 1, "v": [0.5]}}
    two = {"nested": {"v": [0.5], "u": 1}, "model": "standard1", "rho": 2.5}
    assert config_fingerprint(one) == config_fingerprint(two)
    assert len(config_fingerprint(one)) == 16
    three = dict(one, rho=2.5000000000000004)
    assert config_fingerprint(three) != config_fingerprint(one)


def test_atomic_write_replaces_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "sub" / "report.json"
    _atomic_write(str(path), "old contents that are longer\n")
    _atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(path.parent) == ["report.json"]


def test_plot_data_csv_bytes(tmp_path):
    rows = [{"alpha": 0.5, "lambda": np.float64(0.1), "n": 3},
            {"alpha": 1.0 / 3.0, "lambda": 0.0, "n": np.int64(4)}]
    report = _report(tables={"curve": rows, "empty": []})
    written = emit_plot_data(report, str(tmp_path))
    assert written == [str(tmp_path / "curve.csv")]
    assert (tmp_path / "curve.csv").read_bytes() == (
        b"# claim: a neutral claim\n"
        b"alpha,lambda,n\n"
        b"0.5,0.1,3\n"
        b"0.3333333333333333,0.0,4\n")
    assert sorted(os.listdir(tmp_path)) == ["curve.csv"]
