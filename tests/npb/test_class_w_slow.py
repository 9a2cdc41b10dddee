"""Functional runs above class S: IS, MG, EP, FT and BT at class W, plus
EP class A against its official NPB constants."""

import pytest

from repro.npb.suite import run_benchmark

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("kernel", ["is", "mg", "ep", "ft"])
def test_class_w_verifies(kernel):
    result = run_benchmark(kernel, "W")
    assert result.verified, f"{kernel} W failed: {result.details}"


def test_bt_class_w_verifies():
    result = run_benchmark("bt", "W")
    assert result.verified


def test_class_a_ep_official_constants():
    result = run_benchmark("ep", "A")
    assert result.verified
    assert result.details["sx"] == pytest.approx(-4.295875165629892e3, rel=1e-10)
