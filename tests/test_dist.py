"""Density constructors, moments and sampling."""

import copy
import math
import pickle

import numpy as np
import pytest

from pce_loops import dist
from pce_loops.bench import program_path
from pce_loops.dist import Density, RandomVector, density_from_dict
from pce_loops.lang import DistDraw, parse_file


def _phi(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _Phi(z):
    return 0.5 * (1 + math.erf(z / math.sqrt(2)))


def test_normal_raw_moments_closed_form():
    d = Density.normal(1.5, 0.7)
    # E[X^k] for X ~ N(mu, sigma^2) via binomial over central moments
    assert d.raw_moment(0) == 1.0
    assert d.raw_moment(1) == pytest.approx(1.5, abs=1e-14)
    assert d.raw_moment(2) == pytest.approx(1.5**2 + 0.7**2, abs=1e-13)
    mu, s = 1.5, 0.7
    m3 = mu**3 + 3 * mu * s**2
    m4 = mu**4 + 6 * mu**2 * s**2 + 3 * s**4
    assert d.raw_moment(3) == pytest.approx(m3, rel=1e-13)
    assert d.raw_moment(4) == pytest.approx(m4, rel=1e-13)


def test_uniform_raw_moments_closed_form():
    a, b = -0.1, 0.1
    d = Density.uniform(a, b)
    for k in range(8):
        want = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
        assert d.raw_moment(k) == pytest.approx(want, abs=1e-16)


def test_trunc_normal_mean_variance_closed_form():
    mu, sigma, a, b = 2.0, 0.1, 1.9, 2.15
    d = Density.trunc_normal(mu, sigma, a, b)
    al, be = (a - mu) / sigma, (b - mu) / sigma
    Z = _Phi(be) - _Phi(al)
    mean = mu + sigma * (_phi(al) - _phi(be)) / Z
    var = sigma**2 * (
        1 + (al * _phi(al) - be * _phi(be)) / Z - ((_phi(al) - _phi(be)) / Z) ** 2
    )
    assert d.mean() == pytest.approx(mean, abs=1e-10)
    assert d.raw_moment(2) - d.mean() ** 2 == pytest.approx(var, rel=1e-8)


def test_trunc_normal_wide_interval_matches_normal():
    # cutting ten sigmas out changes nothing at double precision
    wide = Density.trunc_normal(0.0, 0.1, -1.0, 1.0)
    free = Density.normal(0.0, 0.1)
    for k in range(1, 7):
        assert wide.raw_moment(k) == pytest.approx(free.raw_moment(k), abs=1e-12)


def test_symmetric_trunc_normal_odd_moments_are_exact_zeros():
    # quadrature would leave ~1e-19 here, enough to seed ghost odd terms
    d = Density.trunc_normal(0.0, 0.1, -1.0, 1.0)
    assert all(d.raw_moment(k) == 0.0 for k in range(1, 16, 2))
    assert d.raw_moment(2) > 0.0
    assert Density.trunc_normal(0.0, 0.1, -1.0, 2.0).raw_moment(1) != 0.0


def test_trunc_gamma_exponential_case():
    # shape 1 is a truncated exponential with scale 3; moments by parts
    theta, a, b = 3.0, 0.5, 1.0
    d = Density.trunc_gamma(1.0, theta, a, b)
    Z = theta * (math.exp(-a / theta) - math.exp(-b / theta))

    def m1():
        # int x e^{-x/t} dx = -t e^{-x/t} (x + t)
        F = lambda x: -theta * math.exp(-x / theta) * (x + theta)
        return (F(b) - F(a)) / Z

    def m2():
        F = lambda x: -theta * math.exp(-x / theta) * (x * x + 2 * theta * x + 2 * theta**2)
        return (F(b) - F(a)) / Z

    assert d.raw_moment(1) == pytest.approx(m1(), rel=1e-10)
    assert d.raw_moment(2) == pytest.approx(m2(), rel=1e-10)


@pytest.mark.parametrize("d", [
    Density.normal(0.0, 1.0),
    Density.uniform(4.0, 8.0),
    Density.trunc_normal(4.0, 1.0, 3.0, 5.0),
    Density.trunc_normal(2.0, 0.1, 0.0, 4.0),
    Density.trunc_gamma(1.0, 3.0, 0.5, 1.0),
])
def test_pdf_integrates_to_one(d):
    a, b = d.support
    if not math.isfinite(a):
        a, b = d.mean() - 12 * d.std(), d.mean() + 12 * d.std()
    xs = np.linspace(a, b, 20001)
    total = np.trapezoid(d.pdf(xs), xs)
    assert abs(total - 1.0) < 1e-6


def test_pdf_zero_outside_support():
    d = Density.trunc_normal(4.0, 1.0, 3.0, 5.0)
    assert d.pdf(np.array([2.9, 5.1])).tolist() == [0.0, 0.0]
    assert d.pdf(3.5) > 0


def test_sampling_moments_and_support():
    rng = np.random.default_rng(2024)
    cases = [
        Density.normal(2.0, 0.1),
        Density.uniform(-0.5, -0.3),
        Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
        Density.trunc_gamma(1.0, 3.0, 0.5, 1.0),
    ]
    n = 200_000
    for d in cases:
        xs = d.sample(rng, n)
        assert xs.shape == (n,)
        a, b = d.support
        if math.isfinite(a):
            assert xs.min() >= a and xs.max() <= b
        se = d.std() / math.sqrt(n)
        assert abs(xs.mean() - d.mean()) < 6 * se
        assert abs(xs.var() - d.std() ** 2) < 0.02 * d.std() ** 2


def test_sampling_is_reproducible():
    d = Density.trunc_normal(0.0, 0.1, -1.0, 1.0)
    a = d.sample(np.random.default_rng(7), 1000)
    b = d.sample(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def test_dict_round_trip():
    cases = [
        Density.normal(0.0, 1.0),
        Density.uniform(1.0, 2.0),
        Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
        Density.trunc_gamma(2.0, 1.5, 0.0, 4.0),
    ]
    for d in cases:
        d2 = density_from_dict(d.to_dict())
        assert d2.family == d.family
        assert d2.params == d.params


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_densities_and_programs_copy_as_family_and_parameters(copy_of):
    program = parse_file(program_path("turning.ppl"))
    again = copy_of(program)
    assert again.inits == program.inits and again.body == program.body
    pairs = [(d, copy_of(d)) for d in (Density.normal(1.5, 0.7), Density.uniform(1, 2),
                                       Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
                                       Density.trunc_gamma(2.0, 1.5, 0.5, 4.0))]
    pairs += [(u.density, v.density) for u, v in zip(program.body, again.body)
              if isinstance(u, DistDraw)]
    pairs += [(i.value, j.value) for i, j in zip(program.inits, again.inits)]
    for d, c in pairs:
        assert c is not d and c == d and c.params == d.params
        assert c.support == d.support and c.norm_const == d.norm_const
        assert c.raw_moment(4) == d.raw_moment(4)


def test_densities_compare_by_value():
    for build in (lambda: Density.normal(0.5, 2.0), lambda: Density.uniform(0, 3),
                  lambda: Density.trunc_gamma(2.0, 1.5, 0.0, 4.0)):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
    # equal parameters of another type are another density
    assert Density.uniform(0, 3) != Density.uniform(0.0, 3.0)
    assert Density.normal(0.0, 1.0) != Density.uniform(0.0, 1.0)
    d = Density.uniform(0.0, 3.0)
    with pytest.raises(TypeError):
        d.params["b"] = 4.0
    with pytest.raises(AttributeError):
        d.params = {"a": 0.0, "b": 4.0}
    assert d == Density.uniform(0.0, 3.0) and d.params == {"a": 0.0, "b": 3.0}
    # nothing outside the value can be written, rebound or deleted either
    t = Density.trunc_normal(0.0, 1.0, -1.0, 2.0)
    for name in ("family", "params", "support", "norm_const"):
        with pytest.raises(AttributeError):
            setattr(t, name, getattr(t, name))
        with pytest.raises(AttributeError):
            delattr(t, name)
    with pytest.raises(AttributeError):
        t.norm_const *= 2
    with pytest.raises(AttributeError):
        t.support = (-1.0, 5.0)
    fresh = Density.trunc_normal(0.0, 1.0, -1.0, 2.0)
    assert t.support == fresh.support == (-1.0, 2.0) and t.norm_const == fresh.norm_const
    # and the constructor takes the family and its parameters, nothing else
    with pytest.raises(TypeError):
        Density("Normal", {"mu": 0.0, "sigma": 1.0}, (-1.0, 1.0))


def test_density_from_dict_rejects_unknown_family():
    with pytest.raises(ValueError):
        density_from_dict({"family": "Cauchy", "x0": 0, "gamma": 1})


def test_family_table_gives_constructor_parameter_order():
    args = {"Normal": (0.5, 2.0), "Uniform": (1.0, 3.0),
            "TruncNormal": (2.0, 0.1, 1.0, 3.0), "TruncGamma": (2.0, 1.5, 0.5, 4.0)}
    assert set(args) == set(dist.FAMILY_PARAMS)
    for family, names in dist.FAMILY_PARAMS.items():
        d = Density.of(family, *args[family])
        assert d.family == family
        assert d.params == dict(zip(names, args[family]))
        assert density_from_dict(d.to_dict()).params == d.params


@pytest.mark.parametrize("spec, message", [
    (5, "JSON object"),
    ([{"family": "Normal", "mu": 0, "sigma": 1}], "JSON object"),
    (None, "JSON object"),
    ({"family": ["Normal"], "mu": 0, "sigma": 1}, "unknown density family"),
    ({"family": 5}, "unknown density family"),
    ({"mu": 0, "sigma": 1}, "unknown density family"),
    ({"family": "Normal", "mu": 0}, "missing parameter 'sigma'"),
    ({"family": "Normal", "mu": None, "sigma": 1}, "'mu' of Normal must be a number"),
    ({"family": "Normal", "mu": True, "sigma": 1}, "'mu' of Normal must be a number"),
    ({"family": "Uniform", "a": "0", "b": 1}, "'a' of Uniform must be a number"),
    ({"family": "TruncGamma", "k": 1, "theta": [3], "a": 0.5, "b": 1},
     "'theta' of TruncGamma must be a number"),
    ({"family": "Normal", "mu": 0, "sigma": 0}, "sigma must be positive"),
    ({"family": "Uniform", "a": 1, "b": 1.0}, "need a < b"),
    ({"family": "TruncGamma", "k": 1, "theta": 3, "a": -0.5, "b": 1},
     "need k > 0, theta > 0 and a >= 0"),
    ({"family": "TruncGamma", "k": 1, "theta": 0.0, "a": 0.5, "b": 1},
     "need k > 0, theta > 0 and a >= 0"),
    ({"family": "Normal", "mu": 0, "sigma": 1e308}, "empty or unbounded"),
    ({"family": "Uniform", "a": 10**20, "b": 10**20 + 1}, "empty or unbounded"),
    ({"family": "TruncNormal", "mu": 0, "sigma": 1, "a": 100, "b": 200}, "has no mass"),
])
def test_density_from_dict_rejects_malformed_specs(spec, message):
    with pytest.raises(ValueError, match=message):
        density_from_dict(spec)


@pytest.mark.parametrize("spec, message", [
    ({"family": "Uniform", "a": 0, "b": math.inf}, "'b' of Uniform must be finite"),
    ({"family": "Normal", "mu": math.nan, "sigma": 1}, "'mu' of Normal must be finite"),
    ({"family": "TruncNormal", "mu": 0, "sigma": 1, "a": -math.inf, "b": 1},
     "'a' of TruncNormal must be finite"),
])
def test_density_from_dict_rejects_non_finite_parameters(spec, message):
    with pytest.raises(ValueError, match=message):
        density_from_dict(spec)


def test_location_scale_maps_the_standard_member():
    for d, standard in ((Density.normal(2.0, 0.1), Density.normal(0.0, 1.0)),
                        (Density.uniform(4.0, 8.0), Density.uniform(-1.0, 1.0))):
        got, loc, scale = dist.location_scale(d)
        assert got.params == standard.params and got.support == standard.support
        assert tuple(loc + scale * z for z in got.support) == d.support
        assert dist.from_location_scale(got, loc, scale).params == d.params
    assert dist.location_scale(Density.trunc_normal(2.0, 0.1, 1.0, 3.0)) is None


def test_density_of_rejects_unknown_family():
    for family in ("Cauchy", "normal", ["Normal"], None):
        with pytest.raises(ValueError, match="unknown density family"):
            Density.of(family, 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown density family"):
            Density(family, {"mu": 0.0, "sigma": 1.0})


def test_densities_take_exactly_their_family_parameters():
    with pytest.raises(ValueError, match="Normal takes 2 parameters, not 1"):
        Density.of("Normal", 0.0)
    with pytest.raises(ValueError, match="Uniform takes 2 parameters, not 3"):
        Density.of("Uniform", 0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="missing parameter 'sigma' for family Normal"):
        Density("Normal", {"mu": 0.0})
    with pytest.raises(ValueError, match="Normal takes only the parameters mu, sigma"):
        Density("Normal", {"mu": 0.0, "sigma": 1.0, "nu": 3.0})
    # parameters are stored in the family's order, whatever order they came in
    d = Density("TruncGamma", {"b": 4.0, "a": 0.5, "theta": 1.5, "k": 2.0})
    assert list(d.params) == ["k", "theta", "a", "b"]
    assert d == Density.trunc_gamma(2.0, 1.5, 0.5, 4.0)


def test_random_vector_sampling():
    rv = RandomVector([Density.normal(0.0, 1.0), Density.uniform(1.0, 2.0)])
    assert len(rv) == 2
    xs = rv.sample(np.random.default_rng(1), 500)
    assert xs.shape == (2, 500)
    assert xs[1].min() >= 1.0 and xs[1].max() <= 2.0


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        Density.uniform(2.0, 2.0)
    with pytest.raises(ValueError):
        Density.trunc_normal(0.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        Density.normal(0.0, 0.0)


def test_memoized_raw_moments_are_bitwise_fresh(monkeypatch):
    def build():
        return [Density.normal(1.5, 0.7), Density.uniform(-0.1, 0.3),
                Density.trunc_normal(2.0, 0.1, 1.0, 3.0),
                Density.trunc_gamma(2.0, 1.5, 0.5, 6.0)]

    kept = build()
    first = [[d.raw_moment(k) for k in range(13)] for d in kept]

    # a second call must come from the memo, not from new quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("raw moment recomputed")

    monkeypatch.setattr(dist, "_panel_integral", no_quadrature)
    again = [[d.raw_moment(k) for k in range(13)] for d in kept]
    monkeypatch.undo()
    fresh = [[d.raw_moment(k) for k in range(13)] for d in build()]
    assert np.array_equal(np.array(again), np.array(first))
    assert np.array_equal(np.array(again), np.array(fresh))
    assert kept[0].raw_moment(3.0) == kept[0].raw_moment(3)
