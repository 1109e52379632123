"""Numerical laboratory for the Ornstein-Uhlenbeck semigroup.

The package builds degenerate-diffusion models (Q, B), evaluates their
transition kernels in log form, applies the semigroup by independent
quadrature routes, measures rho-variation along time paths, and runs
Monte Carlo probes of weak-type and Calderon-Zygmund behavior, plus a
dyadic oscillation laboratory on the circle where the variation bound
provably degrades.

Submodules are imported lazily so the command line front end can
configure threading before the numerics stack loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # model
    "OUModel": "model", "build_model": "model", "standard_model": "model",
    "model_from_dict": "model", "propagators": "model",
    "Propagators": "model", "quadratic_r": "model",
    # geometry
    "local_weight": "geometry", "polar_decompose": "geometry",
    "annulus_indicator": "geometry", "smooth_step": "geometry",
    # quadrature
    "gaussian_measure": "quadrature", "product_gaussian": "quadrature",
    "gauss_hermite_rule": "quadrature",
    # kernel
    "count_kdot_zeros": "kernel", "count_kdot_zeros_batch": "kernel",
    "calibrate_bound": "kernel", "BoundCalibration": "kernel",
    "admissible_rate": "kernel", "natural_rate": "kernel",
    "kernel_bounds_probe": "kernel",
    # variation
    "variation_values": "variation", "variation_batch": "variation",
    "variation_exhaustive": "variation",
    # semigroup
    "GaussianBump": "semigroup", "gaussian_bump": "semigroup",
    "apply_semigroup": "semigroup",
    "variation_batch_paths": "semigroup",
    "cz_size_sweep": "semigroup", "cz_smoothness_sweep": "semigroup",
    "weak_type_probe": "semigroup", "cz_probe": "semigroup",
    "annulus_superlevel_probe": "semigroup", "t_max_for_tail": "semigroup",
    # torus
    "CounterexampleConfig": "torus",
    "chain_values": "torus",
    "apply_window_mean": "torus",
    "dyadic_moment": "torus", "line_moment": "torus",
    "variation_growth_experiment": "torus", "fourier_kernel_gap": "torus",
    "kernel_difference_bound": "torus", "weak_type_failure": "torus",
    "variation_growth_report": "torus",
    # report
    "ProbeReport": "report", "write_report": "report",
    "emit_plot_data": "report", "config_fingerprint": "report",
    # rng
    "substream": "rng", "dyadic_points": "rng",
    # errors
    "OULabError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
