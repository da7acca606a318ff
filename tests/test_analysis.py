"""Comparison scores, exact ratio maps, mixtures, scaling."""

import math

import pytest

from altlab.analysis import (
    CALT_RATIO_OFFSET,
    alt_ratio,
    alt_ratio_from_calt,
    compare,
    coordination_score,
    episodes_for,
    pa_equivalent,
    relative_change,
    synth_pa_mixture,
)
from altlab.errors import ComparisonError, ConfigError
from altlab.metrics import alt_score, alt_scores


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
        coordination_score(0.5, -0.1)


def test_compare_bundles_both_views():
    rel_change, coord_score = compare(0.322, 0.486)
    assert rel_change.hex() == relative_change(0.322, 0.486).hex()
    assert coord_score.hex() == coordination_score(0.322, 0.486).hex()


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


def test_alt_ratio_inverts_every_variant_on_fixed_rotations():
    # every rotation of 1 <= x <= n <= 40 agents
    for n in range(2, 41):
        for x in range(1, n + 1):
            scores = alt_scores(synth_pa_mixture(x, n, 10 * n), n)
            for variant in ("falt", "ealt", "qfalt", "qealt"):
                assert alt_ratio(variant, scores[variant]) == x / n, (variant, x, n)
            assert alt_ratio("calt", scores["calt"]) == alt_ratio_from_calt(scores["calt"])
            if 2 * x > n:
                assert abs(alt_ratio("aalt", scores["aalt"]) - x / n) <= 2**-52, (x, n)
            else:
                assert alt_ratio("aalt", scores["aalt"]) is None, (x, n)


def test_alt_ratio_refuses_scores_outside_the_unit_interval():
    assert alt_ratio("aalt", 1.0) == 1.0 and alt_ratio("falt", 0.0) == 0.0
    for score in (-0.1, 1.5, math.inf, math.nan):
        with pytest.raises(ComparisonError, match=r"must be in \[0, 1\]"):
            alt_ratio("falt", score)
    with pytest.raises(ConfigError):
        alt_ratio("bogus", 0.5)


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


@pytest.mark.parametrize("n", [171, 6208, 3_000_000])
def test_episodes_for_refuses_a_large_n_before_the_factorial(monkeypatch, n):
    # The factorial of 3,000,000 alone takes over a minute.
    def no_factorial(k):
        raise AssertionError(f"factorial({k}) taken")

    monkeypatch.setattr(math, "factorial", no_factorial)
    with pytest.raises(ConfigError, match=f"^the training budget at n={n} overflows$"):
        episodes_for(n)
