"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.model import BathtubParams, ConstrainedPreemptionModel
from repro.distributions.bathtub import BathtubDistribution
from repro.traces.catalog import GroundTruthCatalog, default_catalog

# Tier-1 draws the same hypothesis examples on every run (no example
# database replay, no fresh randomness), so a red run is reproducible.
# The scheduled slow job passes ``--hypothesis-profile=fuzz`` for fresh
# examples; tests that pin ``max_examples`` scale it by profile
# themselves (see ``_budget`` in test_sharded_equivalence.py).
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def catalog() -> GroundTruthCatalog:
    return default_catalog()


@pytest.fixture(scope="session")
def reference_params() -> BathtubParams:
    """The Fig. 1 reference configuration's ground-truth parameters."""
    return default_catalog().params("n1-highcpu-16", "us-east1-b")


@pytest.fixture(scope="session")
def reference_model(reference_params) -> ConstrainedPreemptionModel:
    return ConstrainedPreemptionModel(reference_params)


@pytest.fixture(scope="session")
def reference_dist(reference_model) -> BathtubDistribution:
    return BathtubDistribution(reference_model)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
