"""Comparison scores, ratio mapping, mixtures, regression, scaling."""

import json
import math

import pytest

from altlab.analysis import (
    CALT_RATIO_OFFSET,
    alt_ratio_from_calt,
    compare,
    coordination_score,
    episodes_for,
    fit_alt_ratio_regression,
    pa_equivalent,
    relative_change,
    synth_pa_mixture,
)
from altlab.errors import ComparisonError, ConfigError, FitError
from altlab.metrics import alt_score


def test_relative_change_values():
    assert relative_change(0.322, 0.486) == pytest.approx(-33.7448, abs=1e-3)
    assert relative_change(0.486, 0.486) == 0.0
    assert relative_change(0.6, 0.4) == pytest.approx(50.0)


def test_relative_change_rejects_degenerate_reference():
    with pytest.raises(ComparisonError):
        relative_change(0.5, 0.0)
    with pytest.raises(ComparisonError):
        relative_change(0.5, -0.1)


def test_coordination_score_values():
    assert coordination_score(0.322, 0.486) == pytest.approx(-31.9066, abs=1e-3)
    assert coordination_score(1.0, 0.486) == pytest.approx(100.0)
    assert coordination_score(0.486, 0.486) == 0.0


def test_coordination_score_rejects_bad_bounds():
    with pytest.raises(ComparisonError):
        coordination_score(0.5, 1.0)
    with pytest.raises(ComparisonError):
        coordination_score(0.5, 0.4, perfect=0.4)
    with pytest.raises(ComparisonError):
        coordination_score(0.5, -0.1)


def test_compare_bundles_both_views():
    record = compare("calt", 0.322, 0.486)
    assert record.variant == "calt"
    assert record.rel_change_pct == relative_change(0.322, 0.486)
    assert record.coord_score_pct == coordination_score(0.322, 0.486)
    with pytest.raises(ConfigError):
        compare("bogus", 0.1, 0.2)


def test_alt_ratio_mapping():
    assert alt_ratio_from_calt(0.0) == 0.0
    assert alt_ratio_from_calt(CALT_RATIO_OFFSET / 2) == 0.0
    assert alt_ratio_from_calt(1.0) == pytest.approx(1.0, abs=1e-5)
    assert alt_ratio_from_calt(0.3222) == pytest.approx(0.568, abs=0.005)
    assert alt_ratio_from_calt(0.0482) == pytest.approx(0.219, abs=0.005)
    assert alt_ratio_from_calt(0.25) == pytest.approx(0.5, abs=1e-6)


def test_pa_equivalent_scaling():
    pa = pa_equivalent(0.219, 10)
    assert pa.pa_equiv_agents == pytest.approx(2.19, abs=0.005)
    assert pa.pct_of_perfect == pytest.approx(21.9, abs=0.05)
    with pytest.raises(ConfigError):
        pa_equivalent(1.2, 4)
    with pytest.raises(ConfigError):
        pa_equivalent(0.5, 1)


def test_synth_pa_mixture_structure():
    log = synth_pa_mixture(2, 4, 9, r_high=10.0)
    assert len(log) == 9
    assert [ep.exclusive_winner for ep in log] == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert all(ep.arrivals == frozenset({ep.exclusive_winner}) for ep in log)
    assert log[0].rewards == (10.0, 0.0, 0.0, 0.0)
    assert not any(ep.capped for ep in log)


def test_synth_pa_mixture_validation():
    with pytest.raises(ConfigError):
        synth_pa_mixture(0, 3, 10)
    with pytest.raises(ConfigError):
        synth_pa_mixture(4, 3, 10)
    with pytest.raises(ConfigError):
        synth_pa_mixture(2, 3, 2)
    with pytest.raises(ConfigError):
        synth_pa_mixture(1, 1, 10)


def test_mixture_calt_matches_rotation_fraction_squared():
    for n in (2, 3, 5):
        for x in range(1, n + 1):
            log = synth_pa_mixture(x, n, 10 * n)
            assert alt_score(log, n, "calt") == (x / n) ** 2
            assert alt_score(log, n, "falt") == pytest.approx(x / n)


def test_regression_recovers_square_root_for_calt():
    fit = fit_alt_ratio_regression("calt")
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    assert fit.scale == pytest.approx(1.0, abs=1e-9)
    assert fit.max_fit_error < 1e-9
    for value in (0.01, 0.0482, 0.25, 0.3222, 0.81, 1.0):
        assert fit.predict(value) == pytest.approx(math.sqrt(value), abs=1e-3)
    assert fit.predict(0.0) == 0.0
    assert fit.predict(-1.0) == 0.0


def test_regression_recovers_identity_for_falt():
    fit = fit_alt_ratio_regression("falt")
    assert fit.exponent == pytest.approx(1.0, abs=1e-9)
    assert fit.scale == pytest.approx(1.0, abs=1e-9)


def test_regression_accepts_custom_samples_and_validates():
    fit = fit_alt_ratio_regression(
        "calt", samples=[(1, 2, 0.25), (2, 2, 1.0), (1, 4, 0.0625)]
    )
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(FitError):
        fit_alt_ratio_regression("calt", samples=[(1, 2, 0.25), (2, 2, 0.0)])
    with pytest.raises(ConfigError):
        fit_alt_ratio_regression("calt", n_range=(1, 10))
    with pytest.raises(ConfigError):
        fit_alt_ratio_regression("calt", n_range=(2, 41))
    with pytest.raises(ConfigError):
        fit_alt_ratio_regression("nope")


def test_regression_json_payload():
    fit = fit_alt_ratio_regression("calt", n_range=(2, 4))
    payload = json.loads(fit.to_json())
    assert payload["variant"] == "calt"
    assert payload["n_min"] == 2 and payload["n_max"] == 4
    assert payload["exponent"] == pytest.approx(0.5, abs=1e-9)


def test_episodes_for_reference_budgets():
    assert [episodes_for(n) for n in (2, 3, 5, 8, 10)] == [
        1000,
        4721,
        31839,
        174583,
        385281,
    ]


def test_episodes_for_scaling_and_validation():
    assert episodes_for(2, base=50) == 50
    assert episodes_for(3, base=50) == pytest.approx(4721 * 50 / 1000, abs=1)
    with pytest.raises(ConfigError):
        episodes_for(1)
    with pytest.raises(ConfigError):
        episodes_for(2, base=0)
    # a budget beyond the float range, from a huge int or an infinite product
    for n, base in ((2, 9 * 10**400), (10, 10**308)):
        with pytest.raises(ConfigError):
            episodes_for(n, base=base)


def test_episodes_for_keeps_its_bits_up_to_the_float_range():
    for n in range(2, 171):
        growth = (n / 2.0) ** 2 * (1.0 + math.log(math.factorial(n) / 2.0))
        for base in (1, 1000):
            assert episodes_for(n, base) == math.floor(base * growth), (n, base)
    # beyond it n!/2 is no float
    for n in (171, 200):
        with pytest.raises(ConfigError, match=f"^the training budget at n={n} overflows$"):
            episodes_for(n)
