"""Heat and static kernels, their bounds, and the alpha-derivative family."""

import math

import numpy as np
import pytest

from scipy import integrate

from shellbound import (
    InvalidArgumentError,
    KernelBoundConstants,
    PhysicalConstants,
    heat_kernel,
    heat_kernel_upper_bound,
    static_kernel_array,
)
from shellbound.geometry import flat_space, hyperbolic_space
from shellbound.kernels import _decay_rate


def static_kernel_numeric(space, constants, nu: float, d: float) -> float:
    """Adaptive time-quadrature of e^{-nu^2 t/hbar} K_t(d) / hbar, the
    check of the closed-form static kernel.

    Truncates at t_max = 40 hbar / nu^2 (hyperbolic decay only tightens
    this); the discarded tail is below e^{-40} of the total.
    """
    if nu <= 0.0:
        raise InvalidArgumentError("numeric static kernel needs nu > 0")
    if d <= 0.0:
        raise InvalidArgumentError("numeric static kernel needs distance > 0")
    m, hbar = constants.mass, constants.hbar
    rate = nu * nu / hbar
    t_max = 40.0 / rate

    def integrand(t):
        return math.exp(-rate * t) * heat_kernel(space, constants, t, d) / hbar

    # Hint the peak of t^{-3/2} e^{-a/t - b t} to the subdivision.
    a = m * d * d / (2.0 * hbar)
    t_peak = math.sqrt(a / rate) if a > 0 else None
    pts = [t_peak] if (t_peak is not None and 0.0 < t_peak < t_max) else None
    val, _err = integrate.quad(
        integrand, 0.0, t_max, points=pts, epsabs=0.0, epsrel=1e-12, limit=200
    )
    return val


def _g(space, constants, nu: float, d: float) -> float:
    """The static kernel at one distance, through the array path."""
    return float(static_kernel_array(space, constants, nu, np.array([d]))[0])


def test_flat_static_kernel_value(constants, flat):
    nu, d = 0.7, 1.3
    got = _g(flat, constants, nu, d)
    m, hbar = constants.mass, constants.hbar
    kappa = math.sqrt(2.0 * m) * nu / hbar
    expected = m / (2.0 * math.pi * hbar * hbar) * math.exp(-kappa * d) / d
    assert got == pytest.approx(expected, rel=1e-15)


def test_hyperbolic_static_kernel_value(constants):
    space = hyperbolic_space(0.8)
    nu, d = 0.7, 1.3
    got = _g(space, constants, nu, d)
    m, hbar = constants.mass, constants.hbar
    K = 0.8
    gamma = math.sqrt(K + 2.0 * m * nu * nu / (hbar * hbar))
    expected = (
        m / (2.0 * math.pi * hbar * hbar)
        * math.sqrt(K) / math.sinh(math.sqrt(K) * d)
        * math.exp(-gamma * d)
    )
    assert got == pytest.approx(expected, rel=1e-15)


def test_hyperbolic_kernel_flat_limit(constants, flat):
    nu, d = 0.9, 0.8
    soft = hyperbolic_space(1e-12)
    a = _g(soft, constants, nu, d)
    b = _g(flat, constants, nu, d)
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("d", [1e3, math.inf])
def test_hyperbolic_kernels_vanish_far_out(constants, d):
    # sqrt(K) d is past where sinh overflows (about 710): both kernels are
    # exactly 0 there, and at d = inf, without a warning (tier-1 turns
    # warnings into errors)
    space = hyperbolic_space(0.8)
    assert heat_kernel(space, constants, 1.0, d) == 0.0
    assert np.all(heat_kernel(space, constants, np.array([0.5, 2.0]), d) == 0.0)
    assert np.all(static_kernel_array(space, constants, 0.7, np.array([d, d])) == 0.0)


def test_static_kernel_edge_cases(constants, flat):
    # the array kernel takes strictly positive distances: near contact both
    # spaces keep the 1/d singularity, far out the flat kernel underflows to 0
    pref = constants.mass / (2.0 * math.pi * constants.hbar * constants.hbar)
    for space in (flat, hyperbolic_space(0.8)):
        tiny = static_kernel_array(space, constants, 1.0, np.array([1e-300, 1e-12]))
        assert np.all(np.isfinite(tiny))
        assert tiny[1] * 1e-12 == pytest.approx(pref, rel=1e-9)
    far = static_kernel_array(flat, constants, 1.0, np.array([1e3, 1e300]))
    assert np.all(far == 0.0)


@pytest.mark.parametrize("make_space", [lambda: flat_space(), lambda: hyperbolic_space(0.8)])
def test_static_kernel_matches_time_quadrature(constants, make_space):
    space = make_space()
    for nu, d in [(0.7, 1.3), (1.5, 0.4), (0.2, 2.5)]:
        assert _g(space, constants, nu, d) == pytest.approx(
            static_kernel_numeric(space, constants, nu, d), rel=1e-8
        )


def test_static_kernel_numeric_validation(constants, flat):
    with pytest.raises(InvalidArgumentError):
        static_kernel_numeric(flat, constants, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        static_kernel_numeric(flat, constants, 1.0, 0.0)


def _gl(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def test_flat_heat_kernel_semigroup(constants, flat):
    # int K_t(|x-y|) K_s(|y-z|) d^3 y = K_{t+s}(|x-z|)
    t, s, D = 0.3, 0.5, 1.2
    r, wr = _gl(220, 1e-9, 14.0)
    c, wc = _gl(128, -1.0, 1.0)
    rr = r[:, None]
    d2 = rr * rr + D * D - 2.0 * rr * D * c[None, :]
    inner = heat_kernel(flat, constants, s, np.sqrt(d2))
    outer = heat_kernel(flat, constants, t, r)
    total = 2.0 * math.pi * float(wr @ (outer * rr[:, 0] ** 2 * (inner @ wc)))
    assert total == pytest.approx(heat_kernel(flat, constants, t + s, D), rel=1e-8)


def test_hyperbolic_heat_kernel_semigroup(constants):
    # same composition with the H^3 volume element sinh^2(sqrt(K) r)/K and
    # the hyperbolic law of cosines for the inner distance
    K = 0.6
    space = hyperbolic_space(K)
    rK = math.sqrt(K)
    t, s, D = 0.4, 0.7, 0.9
    r, wr = _gl(260, 1e-9, 16.0)
    c, wc = _gl(128, -1.0, 1.0)
    rr = r[:, None]
    ch = np.cosh(rK * rr) * math.cosh(rK * D) - np.sinh(rK * rr) * math.sinh(rK * D) * c[None, :]
    d = np.arccosh(np.maximum(ch, 1.0)) / rK
    inner = heat_kernel(space, constants, s, d)
    outer = heat_kernel(space, constants, t, r)
    vol = np.sinh(rK * r) ** 2 / K
    total = 2.0 * math.pi * float(wr @ (outer * vol * (inner @ wc)))
    assert total == pytest.approx(heat_kernel(space, constants, t + s, D), rel=1e-6)


def test_heat_kernel_validation_and_broadcast(constants, flat):
    for t, d in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(InvalidArgumentError):
            heat_kernel(flat, constants, t, d)
    with pytest.raises(InvalidArgumentError):
        heat_kernel(flat, constants, np.array([0.1, math.nan]), 1.0)
    out = heat_kernel(flat, constants, np.array([0.1, 0.2, 0.3]), 1.0)
    assert out.shape == (3,)
    assert isinstance(heat_kernel(flat, constants, 0.1, 1.0), float)


def test_heat_kernel_bounds(constants, flat):
    space = hyperbolic_space(0.7)
    kc = KernelBoundConstants(1.0, 1.0, 1.0)
    ts = np.array([0.05, 0.3, 1.0, 4.0])
    ds = np.array([0.0, 0.4, 1.5, 3.0])
    for t in ts:
        flat_k = heat_kernel(flat, constants, t, ds)
        hyp_k = heat_kernel(space, constants, t, ds)
        upper = heat_kernel_upper_bound(kc, math.inf, constants, t, ds)
        # heat_kernel(flat, ...) is the Gaussian comparison lower bound, exact
        # in flat space; on H^3 both it and the upper bound lie above the kernel
        assert np.all(hyp_k <= upper * (1.0 + 1e-15))
        assert np.all(hyp_k <= flat_k * (1.0 + 1e-15))
        # a finite ambient volume only adds to the cap
        cap_vol = heat_kernel_upper_bound(kc, 50.0, constants, t, ds)
        assert np.all(cap_vol >= upper)
    for V_M, t, d in ((0.0, 1.0, 1.0), (math.inf, -1.0, 1.0), (math.inf, math.nan, 1.0),
                      (math.inf, 1.0, math.nan), (math.inf, 1.0, -1.0)):
        with pytest.raises(InvalidArgumentError):
            heat_kernel_upper_bound(kc, V_M, constants, t, d)


def test_kernel_bound_constants_validation():
    with pytest.raises(InvalidArgumentError):
        KernelBoundConstants(0.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        KernelBoundConstants(1.0, -2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        KernelBoundConstants(1.0, 1.0, math.inf)


# The alpha-derivative kernels are flat only: every variational entry point
# requires flat space.  Non-unit constants exercise kappa_factor.
CONSTANTS = [lambda: PhysicalConstants(), lambda: PhysicalConstants(hbar=2.0, mass=0.7)]


@pytest.mark.parametrize("make_constants", CONSTANTS)
def test_dalpha_kernel_matches_finite_difference(flat, make_constants):
    # the variational weight-t kernel -dG/dalpha is kappa_f / (2 nu) times
    # d G(d), the first distance moment of the static kernel's own pass
    constants = make_constants()
    d = np.array([0.3, 1.1, 2.4])
    alpha, h = 0.81, 1e-6
    nu = math.sqrt(alpha)
    up = static_kernel_array(flat, constants, math.sqrt(alpha + h), d)
    dn = static_kernel_array(flat, constants, math.sqrt(alpha - h), d)
    fd = (up - dn) / (2.0 * h)
    got = -constants.kappa_factor / (2.0 * nu) * d * static_kernel_array(flat, constants, nu, d)
    assert np.allclose(got, fd, rtol=1e-7)


@pytest.mark.parametrize("space", [flat_space(), hyperbolic_space(0.7)], ids=["flat", "hyp"])
def test_decay_rate_slope_matches_finite_difference(space):
    # hbar = 2, m = 1 puts kappa_f at 1/sqrt(2), so a misplaced kappa_f shows
    constants = PhysicalConstants(hbar=2.0, mass=1.0)
    h = 1e-6
    for nu in (0.2, 0.9, 2.5):
        gamma, slope = _decay_rate(space, constants, nu)
        up, dn = (_decay_rate(space, constants, nu + s)[0] for s in (h, -h))
        assert slope == pytest.approx((up - dn) / (2.0 * h), rel=1e-8)
        if space.is_flat:
            assert gamma == pytest.approx(constants.kappa_factor * nu, rel=1e-15)
        else:
            assert gamma == pytest.approx(math.sqrt(0.7 + nu * nu / 2.0), rel=1e-15)
