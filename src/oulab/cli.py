"""Command line driver for the laboratory.

Verb tree:

    model check FILE             validate a model and print invariant data
    kernel eval                  evaluate the transition kernel at (t, x, u)
    kernel zeros                 count sign changes of the kernel time slope
    kernel bounds                calibrate one pointwise kernel bound
    variation path               rho-variation of a sampled path
    semigroup apply              apply the semigroup to a bump, three routes
    probe weak-type              distribution-function probe, per regime
    probe cz                     size and smoothness sweeps, near kernel
    probe kernel-bounds          calibrate the four kernel bounds
    probe enhanced               annulus superlevel-set probe
    torus qian                   dyadic oscillation growth experiment
    torus fourier                Gaussian vs window-mean multiplier gap
    torus failure                weak (p, p) blowup of the dyadic chain
    torus delta                  flat-kernel replacement error

Every verb that writes a report loads its input, makes one library call
that returns the whole ProbeReport, prints lines read from that report,
and hands it to _finalize, which writes it and maps its pass flags to
the exit code.  The report's content is decided in the library; this
module only stamps what was typed (the model spec and the config
fingerprint) into its inputs.  The other verbs print what they compute
and exit on their own check.

Exit codes: 0 success / probe passed, 1 usage or configuration error,
2 probe ran but its statistic failed the stated criterion.  Reports and
plot CSVs land under --out and are written atomically; timing goes to
stderr so identical runs produce identical files.  OULAB_THREADS sets
the default BLAS thread count; --threads overrides it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

# Heavy imports stay inside the handlers so that `--help`, argument
# errors, and thread-count plumbing run before the numerics stack loads;
# so the parser's choices repeat kernel.BOUND_NAMES.
_BOUND_NAMES = ("kernel-small-t", "dkernel-small-t", "dkernel-large-t",
                "tail-integral")


_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
# a negative number, or a list of numbers (split as _parse_list splits)
# that starts with one, such as the point -0.4,0.2
_NEGATIVE_VALUE = re.compile(rf"^-{_NUMBER}([,\s]+[-+]?{_NUMBER})*$")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; the contract here wants 1.

    An argument that reads as a negative number or a list starting with
    one is a value, not an option (argparse alone takes -0.4,0.2 for an
    option); no option of the parser looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# shared plumbing


def _parse_list(text: str, cast):
    try:
        return [cast(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        from .errors import ArgumentRangeError
        raise ArgumentRangeError(f"bad list {text!r}: {exc}") from None


def _parse_point(text: str, model):
    import numpy as np
    x = np.array(_parse_list(text, float))
    if x.size != model.n:
        from .errors import DimensionError
        raise DimensionError(f"point {text!r} needs {model.n} coordinates")
    if not np.isfinite(x).all():
        from .errors import ArgumentRangeError
        raise ArgumentRangeError(f"point {text!r} must have finite "
                                 "coordinates")
    return x


def _load_model(spec: str):
    """Builtin name (standard1 / standard2 / standard3) or a JSON or TOML
    file with keys Q and B (n optional)."""
    from .errors import ModelFileError
    from .model import build_model, model_from_dict, standard_model
    if spec.startswith("standard"):
        tail = spec[len("standard"):].rstrip("d")
        if tail.isdigit() and 1 <= int(tail) <= 6:
            return standard_model(int(tail))
        raise ModelFileError(f"unknown builtin model {spec!r}")
    if not os.path.exists(spec):
        raise ModelFileError(f"model file not found: {spec}")
    try:
        if spec.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                raise ModelFileError(
                    "TOML models need Python 3.11+; use JSON") from None
            with open(spec, "rb") as fh:
                data = tomllib.load(fh)
        else:
            with open(spec) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ModelFileError(f"cannot read model {spec!r}: {exc}") from None
    if not isinstance(data, dict) or "Q" not in data or "B" not in data:
        raise ModelFileError(f"model {spec!r} needs keys Q and B")
    if "n" in data:
        return model_from_dict(data)
    return build_model(data["Q"], data["B"])


def _fingerprint_inputs(args) -> dict:
    skip = {"func", "out", "threads", "budget"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and not callable(v)}


def _finalize(report, args) -> int:
    """Stamp the config fingerprint, write report + plot CSVs, print the
    verdict, and map it to an exit code."""
    from .report import config_fingerprint, emit_plot_data, write_report
    out = args.out
    os.makedirs(out, exist_ok=True)
    report.inputs["config_fingerprint"] = config_fingerprint(
        _fingerprint_inputs(args))
    path = os.path.join(out, f"{report.name}.json")
    write_report(report, path)
    written = emit_plot_data(report, out)
    print(f"report {path}")
    for p in written:
        print(f"plot-data {p}")
    for key, flag in sorted(report.pass_flags.items()):
        print(f"  {key}: {'pass' if flag else 'FAIL'}")
    ok = report.overall_pass()
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# model / kernel / variation / semigroup verbs


def _cmd_model_check(args) -> int:
    import numpy as np
    model = _load_model(args.model)
    residual = float(np.abs(model.B @ model.Qinf + model.Qinf @ model.B.T
                            + model.Q).max())
    print(f"dimension            {model.n}")
    print(f"spectral abscissa    {model.spectral_abscissa:.6g}")
    print(f"invariant covariance {model.Qinf.tolist()}")
    print(f"lyapunov residual    {residual:.3e}")
    # no FAIL branch: build_model refused residuals > 1e-10 scale (exit 1)
    print("check: PASS")
    return 0


def _cmd_kernel_eval(args) -> int:
    from .kernel import kernel, log_kernel
    model = _load_model(args.model)
    x = _parse_point(args.x, model)
    u = _parse_point(args.u, model)
    lk = log_kernel(model, args.t, x, u)
    print(f"log K_t(x, u) = {lk:.12g}")
    print(f"K_t(x, u)     = {kernel(model, args.t, x, u):.12g}")
    return 0


def _cmd_kernel_zeros(args) -> int:
    from .kernel import count_kdot_zeros
    model = _load_model(args.model)
    zc = count_kdot_zeros(model, _parse_point(args.x, model),
                          _parse_point(args.u, model),
                          t_interval=(args.t_lo, args.t_hi),
                          n_scan=args.scan)
    print(f"sign changes of dK/dt on ({args.t_lo:g}, {args.t_hi:g}]: "
          f"{zc.count}")
    for t in zc.zeros:
        print(f"  zero near t = {t:.10g}")
    print("grid-doubling stable:", "yes" if zc.stable else "NO")
    return 0 if zc.stable else 2


def _cmd_kernel_bounds(args) -> int:
    from .kernel import BOUND_NAMES, calibrate_bound
    model = _load_model(args.model)
    which = BOUND_NAMES if args.which == "all" else (args.which,)
    worst = True
    for w in which:
        cal = calibrate_bound(model, w, n_samples=args.samples,
                              seed=args.seed, c=args.rate)
        print(f"{w}: rate c = {cal.exponent_rate:.6g}, prefactor cap = "
              f"{cal.prefactor_cap:.6g}, stable = {cal.stable}")
        # the finite flag of probe kernel-bounds: an infinite or NaN cap
        # bounds nothing
        worst = worst and cal.stable and cal.prefactor_cap < float("inf")
    return 0 if worst else 2


def _cmd_variation_path(args) -> int:
    import math
    from pathlib import Path
    from .errors import ArgumentRangeError, ModelFileError
    from .variation import variation_exhaustive, variation_values
    try:
        values = _parse_list(Path(args.file).read_text() if args.file
                             else args.values, float)
    except OSError as exc:
        raise ModelFileError(f"cannot read path file: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ArgumentRangeError("path values must be finite")
    v = variation_values(values, args.rho)
    if args.check and len(values) <= 16:
        ref = variation_exhaustive(values, args.rho)
        if abs(v - ref) > 1e-9 * max(1.0, abs(ref)):
            print(f"{v:.6f} (exhaustive check FAILED: {ref:.6f})")
            return 2
    print(f"{v:.6f}")
    return 0


def _cmd_semigroup_apply(args) -> int:
    import numpy as np
    from .model import propagators
    from .semigroup import (apply_semigroup, bump_semigroup_grid,
                            gaussian_bump)
    model = _load_model(args.model)
    x = _parse_point(args.x, model)
    center = (_parse_point(args.center, model) if args.center
              else np.zeros(model.n))
    bump = gaussian_bump(model, center, args.width)
    closed = float(bump_semigroup_grid(
        model, bump, propagators(model, np.array([args.t])), x)[0, 0])
    routes = [apply_semigroup(model, bump, x, args.t, form=form,
                              order=args.order)
              for form in ("kernel", "kolmogorov")]
    rel = max(abs(v - closed) for v in routes) / max(abs(closed), 1e-300)
    for label, v in zip(("closed form", "kernel quadrature",
                         "transition form"), (closed, *routes)):
        print(f"{label:<18} {v:.12g}")
    print(f"max relative gap   {rel:.3e}")
    ok = rel <= 1e-6
    print("agreement:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# probe verbs


def _cmd_probe_weak_type(args) -> int:
    from .semigroup import weak_type_probe
    model = _load_model(args.model)
    center = _parse_point(args.center, model) if args.center else None
    report = weak_type_probe(model, args.rho, regime=args.regime,
                             width=args.width, center=center,
                             sample_size=args.samples, seed=args.seed,
                             n_alphas=args.alphas,
                             points_per_decade=args.points_per_decade,
                             max_refine=args.refine)
    print(f"statistic {report.statistics['statistic']:.6g}  "
          f"(half sample {report.statistics['half_sample_statistic']:.6g})")
    return _finalize(report, args)


def _cmd_probe_cz(args) -> int:
    from .semigroup import cz_probe
    report = cz_probe(_load_model(args.model), args.rho, n_dirs=args.dirs,
                      n_triples=args.triples, seed=args.seed)
    report.inputs["model"] = args.model
    st = report.statistics
    print(f"size sweep   max {st['size_max']:.6g}  drift "
          f"{st['size_drift']:.3f}")
    print(f"smooth sweep max {st['smooth_max']:.6g}  drift "
          f"{st['smooth_drift']:.3f}")
    return _finalize(report, args)


def _cmd_probe_kernel_bounds(args) -> int:
    from .kernel import kernel_bounds_probe
    report = kernel_bounds_probe(_load_model(args.model),
                                 n_samples=args.samples, seed=args.seed)
    report.inputs["model"] = args.model
    for r in report.tables["calibrations"]:
        print(f"{r['bound']}: c = {r['rate']:.6g}, cap = "
              f"{r['prefactor_cap']:.6g}")
    return _finalize(report, args)


def _cmd_probe_enhanced(args) -> int:
    from .semigroup import annulus_superlevel_probe
    model = _load_model(args.model)
    center = _parse_point(args.center, model) if args.center else None
    report = annulus_superlevel_probe(
        model, _parse_list(args.alphas, float), args.delta,
        width=args.width, center=center, sample_size=args.samples,
        seed=args.seed)
    print(f"statistic {report.statistics['statistic']:.6g}")
    return _finalize(report, args)


# ---------------------------------------------------------------------------
# torus verbs


def _cmd_torus_qian(args) -> int:
    from .torus import variation_growth_report
    n_list = _parse_list(args.N, int)
    report = variation_growth_report(n_list, args.operator,
                                     sample_size=args.samples, seed=args.seed)
    st = report.statistics
    medians = st["medians_scaled"] if "medians_scaled" in st \
        else [st["median_scaled"]]
    for N, median in zip(n_list, medians):
        print(f"N={N}  median v(2)/sqrt(N) = {median:.6f}")
    return _finalize(report, args)


def _cmd_torus_fourier(args) -> int:
    import numpy as np
    from .torus import fourier_kernel_gap
    report = fourier_kernel_gap(lmax=args.lmax, xi=np.geomspace(
        args.xi_min, args.xi_max, args.points))
    st = report.statistics
    print(f"sup of summed gap {st['max']:.6f} at xi = "
          f"{st['argmax_xi']:.6g}; truncation tail <= "
          f"{st['tail_bound']:.3e}")
    return _finalize(report, args)


def _cmd_torus_failure(args) -> int:
    from .torus import weak_type_failure
    report = weak_type_failure(p_grid=_parse_list(args.p, float),
                               n_grid=_parse_list(args.N, int),
                               sample_size=args.samples, seed=args.seed)
    for p, q in report.statistics["quotients"].items():
        print(f"p = {p}: quotients across N = "
              + ", ".join(f"{v:.4g}" for v in q))
    return _finalize(report, args)


def _cmd_torus_delta(args) -> int:
    from .torus import kernel_difference_bound
    model = _load_model(args.model)
    report = kernel_difference_bound(model,
                                     n_grid=_parse_list(args.N, int),
                                     c=args.rate,
                                     sample_size=args.samples,
                                     x_points=args.xpoints, seed=args.seed)
    return _finalize(report, args)


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(p, out=True):
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS thread count (default: OULAB_THREADS or"
                        " library default)")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds, checked once the"
                        " run is done: the report is still written, and an"
                        " overrun turns the exit code into 2")
    if out:
        p.add_argument("--out", default="reports",
                       help="directory for reports and plot CSVs")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verb tree, built once per process: parsing leaves the parser
    as it was, and every call gets a fresh namespace."""
    root = _Parser(prog="oulab",
                   description="numerical laboratory for the "
                               "Ornstein-Uhlenbeck semigroup, its kernel, "
                               "and variation operators")
    top = root.add_subparsers(dest="group", required=True)

    g_model = top.add_parser("model", parents=[], help="model validation")
    sub = g_model.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("check", help="validate a model file")
    p.add_argument("model", help="builtin name (standard1..standard6) or"
                                 " JSON/TOML file with Q, B")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_model_check)

    g_kernel = top.add_parser("kernel", help="transition kernel tools")
    sub = g_kernel.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("eval", help="kernel value at (t, x, u)")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--u", required=True)
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_kernel_eval)
    p = sub.add_parser("zeros", help="sign changes of the time slope")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--t-lo", type=float, default=1e-8)
    p.add_argument("--t-hi", type=float, default=1.0)
    p.add_argument("--scan", type=int, default=4096)
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_kernel_zeros)
    p = sub.add_parser("bounds", help="calibrate a pointwise bound")
    p.add_argument("--model", required=True)
    p.add_argument("--which", default="all",
                   choices=_BOUND_NAMES + ("all",))
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=None,
                   help="explicit Gaussian rate c (default: calibrate)")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_kernel_bounds)

    g_var = top.add_parser("variation", help="path variation tools")
    sub = g_var.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("path", help="rho-variation of a sampled path")
    p.add_argument("--rho", type=float, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="text file of path values")
    src.add_argument("--values", help="inline comma-separated values")
    p.add_argument("--check", action="store_true",
                   help="cross-check against exhaustive enumeration")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_variation_path)

    g_semi = top.add_parser("semigroup", help="semigroup application")
    sub = g_semi.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("apply", help="H_t f at x for a Gaussian bump, by "
                                     "closed form and both quadratures")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--center", default=None)
    p.add_argument("--order", type=int, default=None)
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_semigroup_apply)

    g_probe = top.add_parser("probe", help="Monte Carlo probes")
    sub = g_probe.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("weak-type", help="distribution function of the "
                                         "variation operator")
    p.add_argument("--model", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--regime", default="full",
                   choices=("full", "large-t", "global-small-t",
                            "local-small-t"))
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--center", default=None)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphas", type=int, default=48)
    p.add_argument("--points-per-decade", type=int, default=16)
    p.add_argument("--refine", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_probe_weak_type)
    p = sub.add_parser("cz", help="size and smoothness kernel sweeps")
    p.add_argument("--model", required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--dirs", type=int, default=8)
    p.add_argument("--triples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_probe_cz)
    p = sub.add_parser("kernel-bounds", help="calibrate all four bounds")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_probe_kernel_bounds)
    p = sub.add_parser("enhanced", help="annulus superlevel-set probe")
    p.add_argument("--model", required=True)
    p.add_argument("--alphas", default="4,8,16,32",
                   help="comma list of levels, each > 2")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--center", default=None)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_probe_enhanced)

    g_torus = top.add_parser("torus", help="dyadic oscillation laboratory")
    sub = g_torus.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("qian", help="variation growth across scales")
    p.add_argument("--N", required=True,
                   help="scale count, or comma list for a combined report")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--operator", default="E",
                   choices=("A", "Dtorus", "E"))
    _add_common(p)
    p.set_defaults(func=_cmd_torus_qian)
    p = sub.add_parser("fourier", help="multiplier gap over frequencies")
    p.add_argument("--lmax", type=int, default=48)
    p.add_argument("--xi-min", type=float, default=1e-3)
    p.add_argument("--xi-max", type=float, default=1e9)
    p.add_argument("--points", type=int, default=4001)
    _add_common(p)
    p.set_defaults(func=_cmd_torus_fourier)
    p = sub.add_parser("failure", help="weak (p, p) quotients across N")
    p.add_argument("--p", default="1,2", help="comma list of exponents")
    p.add_argument("--N", default="4,6,8,10", help="comma list of scales")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_torus_failure)
    p = sub.add_parser("delta", help="flat-kernel replacement error")
    p.add_argument("--model", default="standard1")
    p.add_argument("--N", default="2,3,4", help="comma list of scales")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--xpoints", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_torus_delta)

    return root


def _set_threads(args) -> None:
    n = args.threads
    if n is None:
        env = os.environ.get("OULAB_THREADS")
        n = int(env) if env else None
    if n is not None and n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _set_threads(args)
    from .errors import OULabError, RateTooLargeError
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except RateTooLargeError as exc:
        print(f"oulab: bound failed: {exc}", file=sys.stderr)
        return 2
    except OULabError as exc:
        print(f"oulab: error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"runtime {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if args.budget is not None:
        spent = time.perf_counter() - t0
        if spent > args.budget:
            print(f"oulab: budget exceeded: {spent:.2f}s > "
                  f"{args.budget:.2f}s", file=sys.stderr)
            return max(code, 2)
    return code


if __name__ == "__main__":
    sys.exit(main())
