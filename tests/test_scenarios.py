import pytest

from mla_forge import scenarios
from mla_forge.scenarios import catalog, run_scenarios
from mla_forge.search import DEFAULT_NODE_BUDGET, SearchConfig

SEARCHES = ("enumerate_brackets", "enumerate_induced", "verify_coprime_determination")


def test_catalog_names_are_unique():
    names = [s.name for s in catalog()]
    assert len(names) == len(set(names))


def test_full_catalog_passes():
    for outcome in run_scenarios():
        assert outcome.passed, (outcome.name, outcome.expected, outcome.actual)


def test_single_scenario_selection():
    outcomes = run_scenarios(["q8-enumeration"])
    assert len(outcomes) == 1
    assert outcomes[0].name == "q8-enumeration"


def test_every_search_gets_the_runner_budget(monkeypatch):
    """Each search a scenario runs takes the config the runner is given."""
    budget = DEFAULT_NODE_BUDGET + 1
    budgets: dict[str, list[int]] = {}
    running = [""]
    for name in SEARCHES:

        def spy(*args, _original=getattr(scenarios, name)):
            budgets.setdefault(running[0], []).append(args[-1].node_budget)
            return _original(*args)

        monkeypatch.setattr(scenarios, name, spy)
    for scenario in catalog():
        running[0] = scenario.name
        assert run_scenarios([scenario.name], SearchConfig(node_budget=budget))[0].passed, scenario.name
    assert all(b == [budget] * len(b) for b in budgets.values()), budgets
    assert {"z4xd4-cases", "sigma-gamma-commute", "section-independence"} <= set(budgets)


# How each scenario reports a search cut short: a value it could not compute
# (None) and the exhausted flag of its search, per case where it has cases.
# With budget 5 the search on D4 has found a bracket of each case, so only
# its exhausted flag tells.
CUT_SHORT = {
    ("z4xd4-cases", 2): lambda actual: None in actual.values() and actual["exhausted"] is False,
    ("section-independence", 2): lambda actual: None in actual.values() and actual["exhausted"] is False,
    ("z3xd3-induced", 2): lambda actual: actual["exhausted"] is False,
    ("z5xd3-induced", 2): lambda actual: actual["exhausted"] is False,
    ("sigma-gamma-commute", 2): lambda actual: any(case["exhausted"] is False for case in actual.values()),
    ("z4xd4-cases", 5): lambda actual: None not in actual.values() and actual["exhausted"] is False,
    ("section-independence", 5): lambda actual: None not in actual.values() and actual["exhausted"] is False,
}


@pytest.mark.parametrize(
    "name, budget",
    [pytest.param(name, budget, id=name if budget == 2 else f"{name}-budget{budget}") for name, budget in CUT_SHORT],
)
def test_case_search_cut_short_fails_the_scenario(name, budget):
    """With two search nodes the searches on D4, D3 and Z2xZ2 are cut short
    (D4 yields no case II bracket); with five, the search on D4 is cut short
    after it has found a bracket of each case. The scenario fails and says
    which values it could not compute and which search was cut short."""
    (outcome,) = run_scenarios([name], SearchConfig(node_budget=budget))
    assert not outcome.passed
    assert CUT_SHORT[name, budget](outcome.actual)
