"""Property suites: run_suites names each result in order, and a fault in the
one call a suite checks fails that suite alone."""

import pytest

from measure_attn import verify


@pytest.mark.parametrize("fault", verify.SUITE_NAMES)
def test_a_fault_fails_exactly_its_own_suite(inject_fault, fault):
    inject_fault(fault)
    results = verify.run_suites()
    assert [r.suite for r in results] == list(verify.SUITE_NAMES)
    assert {r.suite for r in results if not r.passed} == {fault}
