import math

import numpy as np
import pytest
from helpers import harmonic_distortion
from hypothesis import given, settings
from hypothesis import strategies as st

from refaec import (
    NonlinearityKind,
    TimeSignal,
    apply_nonlinearity,
    exponential,
    hard_clip,
    polynomial,
    sample_kind,
    saturating,
    sigmoid_stage,
    soft_clip,
)
from refaec.nonlinear import MATCHED_FAMILIES, MISMATCHED_FAMILIES, _polynomial_raw, distort

GRID = np.linspace(-1.0, 1.0, 100_000)


def test_all_models_map_zero_to_zero():
    assert saturating(0.0, 3.0) == 0.0
    assert exponential(0.0, 3.0) == 0.0
    assert polynomial(0.0, 3.0) == 0.0
    assert sigmoid_stage(hard_clip(0.0)) == 0.0
    assert sigmoid_stage(soft_clip(0.0)) == 0.0


def test_saturating_hand_values():
    # b = 5 gives a = 1; f(1) = 1/sqrt(2)
    assert saturating(1.0, 5.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    # asymptote toward +-a far out
    assert saturating(1e6, 5.0) == pytest.approx(1.0, abs=1e-5)
    assert saturating(-1e6, 5.0) == pytest.approx(-1.0, abs=1e-5)


def test_saturating_bound():
    for b in (2.0, 3.5, 5.0):
        a = 5.0 / b
        assert np.all(np.abs(saturating(GRID, b)) < a)


def test_exponential_hand_value_and_monotonicity():
    # b = 2 gives a = 0.2; f(5) = 1 - e^-1
    assert exponential(5.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    out = exponential(np.linspace(-1, 1, 1000), 3.0)
    assert np.all(np.diff(out) > 0)


def test_polynomial_hand_values():
    # b = 5: a = ln(0.5) + 0.1; f(1) = 3a + 1
    a = math.log(0.5) + 0.1
    assert polynomial(1.0, 5.0) == pytest.approx(3 * a + 1, abs=1e-12)
    # cubic-only case, bypassing the parameter mapping
    assert _polynomial_raw(1.0, 0.0) == 1.0


def test_hard_clip_cases():
    # threshold 0.7
    assert hard_clip(0.9) == 0.7
    assert hard_clip(-0.9) == -0.7
    assert hard_clip(0.5) == 0.5


def test_hard_clip_idempotent_and_lipschitz(rng):
    x = rng.uniform(-3, 3, size=10_000)
    once = hard_clip(x)
    assert np.array_equal(hard_clip(once), once)
    y = x + rng.uniform(-0.1, 0.1, size=x.shape)
    assert np.all(np.abs(hard_clip(x) - hard_clip(y)) <= np.abs(x - y) + 1e-15)


def test_soft_clip_hand_value_and_bound():
    # x = x_max = 0.7, rho = 2: 0.49 / sqrt(0.98)
    assert soft_clip(0.7) == pytest.approx(0.49 / math.sqrt(0.98), abs=1e-12)
    wide = np.linspace(-1e6, 1e6, 100_000)
    assert np.all(np.abs(soft_clip(wide)) < 0.7)


def test_sigmoid_stage_hand_values():
    assert sigmoid_stage(0.0) == 0.0
    # x = 1: z = 1.2, slope 4
    expected = 2.0 * (1.0 / (1.0 + math.exp(-4.8)) - 0.5)
    assert sigmoid_stage(1.0) == pytest.approx(expected, abs=1e-12)
    # strict bound over ten times the nominal signal range; far outside it the
    # sigmoid underflows and the float output rounds onto -1 exactly
    assert np.all(np.abs(sigmoid_stage(np.linspace(-10, 10, 100_000))) < 1.0)
    assert np.all(np.abs(sigmoid_stage(np.linspace(-1e6, 1e6, 10_000))) <= 1.0)


def test_hard_clip_sigmoid_composition_value():
    # hand evaluation at x = 0.9: clip to 0.7, z = 1.05 - 0.147 = 0.903, slope 4
    z = 1.5 * 0.7 - 0.3 * 0.7**2
    expected = 2.0 * (1.0 / (1.0 + math.exp(-4.0 * z)) - 0.5)
    kind = NonlinearityKind("hard_clip_sigmoid")
    assert distort(0.9, kind) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9474238458683968, abs=1e-12)


def test_identity_is_bit_exact(rng):
    sig = TimeSignal(rng.standard_normal(1000))
    out = apply_nonlinearity(sig, NonlinearityKind("identity"))
    assert np.array_equal(out.samples, sig.samples)


def test_saturating_produces_harmonics():
    thd = harmonic_distortion(lambda x: saturating(x, 5.0))
    assert thd > 0.01


def test_odd_symmetry_where_promised(rng):
    x = rng.uniform(-2, 2, size=5000)
    assert np.allclose(saturating(-x, 3.0), -saturating(x, 3.0), atol=1e-14)
    assert np.allclose(soft_clip(-x), -soft_clip(x), atol=1e-14)
    # the remaining models are deliberately asymmetric
    assert abs(exponential(0.5, 3.0) + exponential(-0.5, 3.0)) > 1e-3
    assert abs(polynomial(0.5, 3.0) + polynomial(-0.5, 3.0)) > 1e-3
    assert abs(sigmoid_stage(0.5) + sigmoid_stage(-0.5)) > 1e-3


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_bounds_hold_pointwise(x):
    assert abs(saturating(x, 2.0)) <= 2.5
    assert abs(soft_clip(x)) < 0.7
    assert abs(sigmoid_stage(x)) < 1.0
    assert abs(hard_clip(x)) <= 0.7


def test_sample_kind_domains(rng):
    for _ in range(50):
        kind = sample_kind(rng, matched=True)
        assert kind.family in MATCHED_FAMILIES
        assert 2.0 <= kind.b <= 5.0
        kind = sample_kind(rng, matched=False)
        assert kind.family in MISMATCHED_FAMILIES
        assert kind.b is None


def test_sample_kind_deterministic():
    a = [sample_kind(np.random.default_rng(7), matched=True) for _ in range(1)]
    b = [sample_kind(np.random.default_rng(7), matched=True) for _ in range(1)]
    assert a == b


def test_kind_validation():
    with pytest.raises(ValueError):
        NonlinearityKind("saturating")  # missing b
    with pytest.raises(ValueError):
        NonlinearityKind("saturating", b=9.0)
    with pytest.raises(ValueError):
        NonlinearityKind("hard_clip_sigmoid", b=3.0)
    with pytest.raises(ValueError):
        NonlinearityKind("bitcrusher")
