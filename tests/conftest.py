"""Shared fixtures for the nine-word vehicle corpus used across the suite."""

import pytest
from hypothesis import Phase, settings

from symcast.encoder import encode_corpus

# tests/mutants.py needs only that a test fails, not the smallest failing example
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])

CARBUS = ("Car", "Bus", "Bus", "Car", "Car", "Car", "Car", "Car", "Bus")


@pytest.fixture
def carbus():
    return list(CARBUS)


@pytest.fixture
def carbus_encoded():
    return encode_corpus(CARBUS, class_level=5, reference="last")


@pytest.fixture
def carbus_file(tmp_path):
    path = tmp_path / "carbus.txt"
    path.write_text("\n".join(CARBUS) + "\n", encoding="utf-8")
    return path
