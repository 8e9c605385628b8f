"""Heavy-churn scenarios that stall if JOIN routing skips its messages.

Routed PUT/GETs take same-process steps (m(v) -> l(v)/r(v)) inside one
call; routed JOINs (``A_JOIN_RT``) and anchor probes (``A_FIND_MIN``)
stay messages (see DESIGN.md, "Process-local routing steps").  Folding
``A_JOIN_RT`` the same way leaves these scenarios with every op done
but the membership update never settling.  On a healthy build each
settles in well under a second.
"""

from __future__ import annotations

import pytest

from repro.testing import Scenario, run_scenario

CASES = [
    (56, "queue", "sync"),
    (56, "stack", "sync"),
    (56, "heap", "sync"),
    (276, "heap", "async"),
]


@pytest.mark.parametrize(
    "seed,structure,runner", CASES, ids=[f"{s}-{st}-{r}" for s, st, r in CASES]
)
def test_heavy_churn_scenario_settles(seed, structure, runner):
    scenario = Scenario.from_seed(seed, structure, runner, churn_profile="heavy")
    result = run_scenario(scenario)
    violation = result.violation
    assert violation is None, (
        f"seed {seed} {structure}/{runner} (heavy churn): "
        f"{violation.kind}/{violation.clause}: {violation.message}"
    )
    assert result.submitted > 0
