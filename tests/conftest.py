from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).parent.parent))  # perfbench, whose row shuffle helpers uses

import helpers  # noqa: E402


@pytest.fixture(scope="session")
def example1():
    return helpers.example1_pipeline()


@pytest.fixture(scope="session")
def example2():
    return helpers.example2_pipeline()


@pytest.fixture(scope="session")
def example1_saturated(example1):
    env, combined, pre = example1
    result = helpers.saturate(pre, combined.schema.constraints)
    assert result.saturated
    return env, combined, pre, result


@pytest.fixture(scope="session")
def example2_saturated(example2):
    env, combined, pre = example2
    result = helpers.saturate(pre, combined.schema.constraints)
    assert result.saturated
    return env, combined, pre, result
