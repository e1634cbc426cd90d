"""The ISSUE 6 acceptance gate: ``abstract_soa`` is ``abstract``, faster.

The structure-of-arrays backend must be *metric-equivalent* to the
object-graph engine — not statistically similar: every preset, at every
seed, produces identical repair rates, loss rates and observer totals,
because both backends consume the same RNG streams in the same order.
A second invariant rides along from ISSUE 3: registering the new
fidelity must not perturb the serialized form (and therefore the cache
digest) of abstract-mode configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.acceptance import ACCEPTANCE_RULES, AcceptancePolicy
from repro.exec import config_digest
from repro.scenarios import available_scenarios, scenario_by_name
from repro.sim.config import DEFAULT_FIDELITY
from repro.sim.engine import run_simulation

#: Shrunk far enough that the full preset x seed grid stays in tier-1
#: time, large enough that churn, repairs and observer activity all
#: actually happen (the million_peers preset shrinks like any other —
#: equivalence is about trajectories, not scale).
POPULATION = 120
ROUNDS = 900

SEEDS = (0, 1, 2)


def _shrunk(name: str):
    return (
        scenario_by_name(name).with_population(POPULATION).with_rounds(ROUNDS)
    )


def _assert_full_results_match(scenario):
    reference = run_simulation(scenario.with_fidelity("abstract").build())
    vectorized = run_simulation(scenario.with_fidelity("abstract_soa").build())

    expected = reference.to_dict()
    actual = vectorized.to_dict()
    # The configs differ by construction (the fidelity knob itself).
    expected.pop("config"), actual.pop("config")
    assert actual == expected


@pytest.mark.parametrize("name", available_scenarios())
@pytest.mark.parametrize("seed", SEEDS)
def test_every_preset_matches_abstract(name, seed):
    scenario = _shrunk(name).with_seed(seed)
    reference = run_simulation(scenario.with_fidelity("abstract").build())
    vectorized = run_simulation(scenario.with_fidelity("abstract_soa").build())

    assert vectorized.repair_rates() == reference.repair_rates()
    assert vectorized.loss_rates() == reference.loss_rates()
    assert vectorized.observer_totals() == reference.observer_totals()
    # The headline counters must agree too, not just the rates.
    assert vectorized.metrics.total_repairs == reference.metrics.total_repairs
    assert vectorized.metrics.total_losses == reference.metrics.total_losses
    assert vectorized.deaths == reference.deaths
    assert vectorized.peers_created == reference.peers_created


@dataclass(frozen=True)
class SoftenedAgePolicy(AcceptancePolicy):
    """A custom rule: accepts at the midpoint of ``f`` and certainty.

    Overriding ``decide`` makes both engines treat it as an opaque rule
    and call it once per side, instead of inlining the age arithmetic.
    """

    def decide(self, own_age: float, candidate_age: float, uniform: float) -> bool:
        return 2.0 * uniform < 1.0 + self.probability(own_age, candidate_age)


@pytest.fixture(scope="module")
def softened_rule():
    ACCEPTANCE_RULES.register("softened_age", SoftenedAgePolicy)
    yield "softened_age"
    ACCEPTANCE_RULES.unregister("softened_age")


@pytest.mark.parametrize("rule", ["age", "uniform", "custom"])
@pytest.mark.parametrize("strategy", ["age", "random", "availability", "oracle"])
@pytest.mark.parametrize("seed", (0, 1))
def test_every_strategy_and_rule_matches_abstract(
    strategy, rule, seed, softened_rule
):
    """Data-needing strategies and opaque rules take the scalar fill."""
    if rule == "custom":
        rule = softened_rule
    scenario = _shrunk("paper").with_selection(strategy).with_acceptance(rule)
    _assert_full_results_match(scenario.with_seed(seed))


def test_full_result_dict_matches_on_paper_preset():
    """Beyond the headline metrics: the entire serialized result agrees.

    One preset suffices here (the grid above already covers the rest);
    this catches divergence in any series the coarse assertions miss.
    """
    _assert_full_results_match(_shrunk("paper").with_seed(7))


def test_full_result_dict_matches_on_wide_code():
    """A k = n - k = 32 code: pool targets of 96 candidates take the
    vector fill even on the scalar kernel."""
    scenario = _shrunk("paper").with_population(200).with_code(32, 32)
    _assert_full_results_match(scenario.with_seed(7))


class TestDigestInvariant:
    """ISSUE 3's cache contract survives the new backend."""

    @pytest.mark.parametrize("name", available_scenarios())
    def test_abstract_configs_omit_fidelity_keys(self, name):
        config = scenario_by_name(name).with_fidelity("abstract").build()
        data = config.to_dict()
        for key in ("fidelity", "link_profile", "round_seconds",
                    "archive_bytes", "fairness_factor"):
            assert key not in data

    def test_soa_config_digest_differs_from_abstract(self):
        scenario = _shrunk("paper")
        abstract = scenario.with_fidelity("abstract").build()
        soa = scenario.with_fidelity("abstract_soa").build()
        assert soa.to_dict()["fidelity"] == "abstract_soa"
        assert config_digest(soa) != config_digest(abstract)

    def test_abstract_digest_is_the_default_digest(self):
        """An explicitly-abstract config hashes like a default one."""
        scenario = _shrunk("paper")
        assert DEFAULT_FIDELITY == "abstract"
        assert config_digest(
            scenario.with_fidelity("abstract").build()
        ) == config_digest(scenario.build())
