"""Shared pytest harness: every test runs under the simulation drain auditor.

After each test, every :class:`~repro.sim.kernel.Simulator` created by
the test whose event queue fully drained is audited with
:class:`~repro.sim.debug.DrainAuditor`: leaked resource slots, stranded
store getters/putters, stuck non-daemon processes, and declared
byte-conservation imbalances fail the test.

Implemented as runtest hooks (not an autouse fixture) so hypothesis
tests do not trip the function-scoped-fixture health check.

Opt-outs:

- ``@pytest.mark.drain_audit_exempt`` for tests that intentionally leave
  the simulation in a stuck state;
- ``REPRO_DRAIN_AUDIT=0`` in the environment disables the audit wholesale.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import kernel
from repro.sim.debug import DrainAuditor

_AUDIT_ENABLED = os.environ.get("REPRO_DRAIN_AUDIT", "1") != "0"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "drain_audit_exempt: skip the post-test simulation drain audit "
        "(for tests that intentionally strand processes or leak slots)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _AUDIT_ENABLED or item.get_closest_marker("drain_audit_exempt") is not None:
        yield
        return
    before = set(kernel.live_simulators())
    outcome = yield
    if outcome.excinfo is not None:
        return  # the test already failed; report that, not the audit
    problems = []
    for sim in kernel.live_simulators():
        if sim in before:
            continue  # created by an earlier test or fixture
        if not sim.idle:
            continue  # never drained (deadline run / unfinished): audit is not meaningful
        report = DrainAuditor(sim).audit()
        if not report.ok:
            problems.append(f"{sim!r}:\n{report}")
    if problems:
        # force_exception (not a bare raise) keeps pluggy's hookwrapper
        # teardown protocol happy while still failing the call phase.
        outcome.force_exception(
            pytest.fail.Exception(
                "simulation drain audit failed (mark with "
                "@pytest.mark.drain_audit_exempt if the stuck state is "
                "intentional):\n" + "\n".join(problems),
                pytrace=False,
            )
        )
