"""The golden corpus: exit code, stdout and report files of a few CLI runs.

Each case runs `oulab.cli.main` in-process from a fresh working directory
that holds the model files under fixed names, with reports written to the
relative directory `out`, so no path of the machine reaches stdout or a
report.  The runtime line goes to stderr and is not kept.  One JSON file
per case under tests/golden/ holds its argv, exit code, stdout and the
text of every file it wrote; versions.json names the Python, numpy and
scipy versions that made the corpus.

    PYTHONPATH=src python tests/golden/regen.py [NAME ...]

rewrites the named cases, or the whole corpus when no name is given, and
prints, for each text that moved, its largest absolute and relative move
of any number in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

MODEL_FILES = {
    "general2.json": {"Q": [[1.0, 0.3], [0.3, 0.5]],
                      "B": [[-1.0, 2.0], [0.0, -0.5]]},
    # a complex spectrum, so its zero count takes the scan route
    "rotating2.json": {"Q": [[1.0, 0.3], [0.3, 0.5]],
                       "B": [[-1.0, 0.5], [-0.5, -1.0]]},
    # tests/conftest.py's random_stable_model(3, 3): non-diagonal, 3-D
    "random3.json": {
        "Q": [[2.1601090781079533, -0.7267806813666141, 1.262415308515468],
              [-0.7267806813666141, 0.64547059873153, -0.9431980170358136],
              [1.262415308515468, -0.9431980170358136, 3.5720425650472287]],
        "B": [[-0.7272562356131882, -0.5211541317036479, 1.068067051744655],
              [0.38592879075267894, -0.9114415924235513, 0.3608398553729169],
              [-1.0614897956704012, -0.09945136215029404,
               -0.34727167860364283]]},
}

CASES = {
    "kernel-eval-general2-small-t": [
        "kernel", "eval", "--model", "general2.json", "--t", "0.7",
        "--x", "0.3,-0.4", "--u", "1.1,0.2"],
    "kernel-eval-general2-large-t": [
        "kernel", "eval", "--model", "general2.json", "--t", "12",
        "--x", "0.3,-0.4", "--u", "1.1,0.2"],
    "kernel-zeros-general2": [
        "kernel", "zeros", "--model", "general2.json", "--x", "1,2",
        "--u", "2,3"],
    # the tail integral's interval, on the one zero locator
    "kernel-zeros-general2-tail": [
        "kernel", "zeros", "--model", "general2.json", "--x", "1,2",
        "--u", "2,3", "--t-lo", "1", "--t-hi", "50"],
    "kernel-zeros-rotating2": [
        "kernel", "zeros", "--model", "rotating2.json", "--x", "1,2",
        "--u", "2,3"],
    "kernel-bounds-standard2": [
        "kernel", "bounds", "--model", "standard2", "--samples", "1000"],
    "probe-kernel-bounds-standard1": [
        "probe", "kernel-bounds", "--model", "standard1", "--samples",
        "1000", "--out", "out"],
    "probe-kernel-bounds-general2": [
        "probe", "kernel-bounds", "--model", "general2.json", "--samples",
        "1000", "--out", "out"],
    # the tail integral's grid route
    "probe-kernel-bounds-rotating2": [
        "probe", "kernel-bounds", "--model", "rotating2.json", "--samples",
        "1000", "--out", "out"],
    "probe-cz-general2": [
        "probe", "cz", "--model", "general2.json", "--rho", "2.5",
        "--dirs", "2", "--triples", "8", "--out", "out"],
    "torus-delta-standard1": [
        "torus", "delta", "--samples", "40", "--xpoints", "16",
        "--out", "out"],
    "semigroup-apply-general2": [
        "semigroup", "apply", "--model", "general2.json", "--t", "4.5",
        "--x", "0.3,-0.4"],
    # the critical-time route of isotropic models
    "probe-weak-type-full-standard1": [
        "probe", "weak-type", "--model", "standard1", "--rho", "2.5",
        "--samples", "1000", "--out", "out"],
    "probe-weak-type-large-t-standard1": [
        "probe", "weak-type", "--model", "standard1", "--rho", "2.5",
        "--regime", "large-t", "--samples", "1000", "--out", "out"],
    "probe-weak-type-large-t-general2": [
        "probe", "weak-type", "--model", "general2.json", "--rho", "2.5",
        "--regime", "large-t", "--samples", "1000", "--out", "out"],
    "probe-weak-type-full-standard2": [
        "probe", "weak-type", "--model", "standard2", "--rho", "2.5",
        "--samples", "1000", "--out", "out"],
    "probe-weak-type-large-t-standard2": [
        "probe", "weak-type", "--model", "standard2", "--rho", "2.5",
        "--regime", "large-t", "--samples", "1000", "--out", "out"],
    # the whole-grid route
    "probe-weak-type-full-general2": [
        "probe", "weak-type", "--model", "general2.json", "--rho", "2.5",
        "--samples", "1000", "--out", "out"],
    "probe-weak-type-local-small-t-standard1": [
        "probe", "weak-type", "--model", "standard1", "--rho", "2.5",
        "--regime", "local-small-t", "--samples", "1000", "--out", "out"],
    "probe-weak-type-global-small-t-standard1": [
        "probe", "weak-type", "--model", "standard1", "--rho", "2.5",
        "--regime", "global-small-t", "--samples", "1000", "--out", "out"],
    # the near/far split in 2-d, on a non-isotropic model
    "probe-weak-type-global-small-t-general2": [
        "probe", "weak-type", "--model", "general2.json", "--rho", "2",
        "--regime", "global-small-t", "--samples", "1000", "--refine", "0",
        "--out", "out"],
    "probe-enhanced-standard1": [
        "probe", "enhanced", "--model", "standard1", "--samples", "400",
        "--out", "out"],
    "probe-kernel-bounds-random3": [
        "probe", "kernel-bounds", "--model", "random3.json", "--samples",
        "1000", "--out", "out"],
    "variation-path-check": [
        "variation", "path", "--rho", "2.5", "--values",
        "0,1.5,-0.5,2,1.25,3,-1,0.5", "--check"],
    "model-check-general2": ["model", "check", "general2.json"],
    "torus-qian": [
        "torus", "qian", "--N", "4", "--samples", "1000", "--out", "out"],
    # the Gaussian chain
    "torus-qian-A": [
        "torus", "qian", "--operator", "A", "--N", "4", "--samples", "1000",
        "--out", "out"],
    "torus-failure": [
        "torus", "failure", "--N", "4,6", "--samples", "1000", "--out",
        "out"],
    "torus-fourier": ["torus", "fourier", "--points", "401", "--out", "out"],
}


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout and the written files of one in-process run."""
    from oulab.cli import main
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in MODEL_FILES.items():
            Path(tmp, name).write_text(json.dumps(spec))
        os.chdir(tmp)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(here)
        out = Path(tmp, "out")
        files = ({p.name: p.read_text() for p in sorted(out.iterdir())}
                 if out.exists() else {})
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "files": files}


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def largest_move(old: str, new: str) -> tuple[float, float] | None:
    """The largest absolute and relative move between the numbers of two
    texts read in order, or None when they hold different counts."""
    a, b = _NUM.findall(old), _NUM.findall(new)
    if len(a) != len(b):
        return None
    absolute = relative = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (x != x and y != y):
            continue
        d = abs(x - y)
        absolute = max(absolute, d)
        relative = max(relative, d / max(abs(x), abs(y)))
    return absolute, relative


def _texts(case: dict) -> dict:
    return {"exit": str(case["exit"]), "stdout": case["stdout"],
            **case["files"]}


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        print(f"no golden case named {', '.join(unknown)}", file=sys.stderr)
        return 1
    (GOLDEN / "versions.json").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    for name in names or CASES:
        argv = CASES[name]
        path = GOLDEN / f"{name}.json"
        new = run_case(argv)
        if path.exists():
            old = _texts(load(name))
            for key, text in _texts(new).items():
                if old.get(key) == text:
                    continue
                move = (largest_move(old[key], text) if key in old
                        else None)
                what = ("new or restructured" if move is None else
                        f"abs {move[0]:.3e}, rel {move[1]:.3e}")
                print(f"{name}/{key}: moved, {what}")
            for key in old.keys() - _texts(new).keys():
                print(f"{name}/{key}: no longer written")
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
