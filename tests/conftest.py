"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.core import Collection, ErrorModel, TimeSeries, make_rng, znormalize
from repro.distributions import NormalError
from repro.perturbation import perturb, perturb_multisample


@pytest.fixture
def subprocess_env():
    """An environment that makes ``repro`` importable from a fresh
    interpreter (subprocess tests)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return env


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return make_rng(12345)


@pytest.fixture
def sine_series():
    """A smooth z-normalized series of length 50."""
    return znormalize(TimeSeries(np.sin(np.linspace(0.0, 4.0 * np.pi, 50))))


@pytest.fixture
def ramp_series():
    """A z-normalized linear ramp of length 50."""
    return znormalize(TimeSeries(np.linspace(-1.0, 1.0, 50)))


@pytest.fixture
def small_collection(rng):
    """Twelve labeled series of length 30 with clear cluster structure."""
    t = np.linspace(0.0, 2.0 * np.pi, 30)
    series = []
    for index in range(12):
        cls = index % 3
        phase = 2.0 * np.pi * cls / 3.0
        values = np.sin(t + phase) + 0.05 * rng.normal(size=30)
        series.append(
            znormalize(TimeSeries(values, label=cls, name=f"s{index}"))
        )
    return Collection(series, name="toy")


@pytest.fixture
def uncertain_pair(sine_series, ramp_series, rng):
    """Two pdf-form uncertain series with a shared normal error model."""
    model = ErrorModel.constant(NormalError(0.3), len(sine_series))
    return (
        perturb(sine_series, model, rng),
        perturb(ramp_series, model, rng),
    )


@pytest.fixture
def multisample_pair(rng):
    """Two short multisample series (length 5, 3 samples per timestamp)."""
    model = ErrorModel.constant(NormalError(0.4), 5)
    x = TimeSeries(np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    y = TimeSeries(np.array([0.1, 0.6, 0.9, 0.4, 0.1]))
    return (
        perturb_multisample(x, model, 3, rng),
        perturb_multisample(y, model, 3, rng),
    )
