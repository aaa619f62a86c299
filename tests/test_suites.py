import pytest

from bosecool import suites
from bosecool.errors import DomainError

SUITES = [
    suites.min_thermal_excitation_suite,
    suites.eigenvalue_domination_suite,
    suites.excitation_majorization_suite,
    suites.near_optimal_dissipation_suite,
]


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_small_run_passes(self, suite):
        result = suite(5, 11)
        assert result.trials == 5
        assert result.violations == 0 and result.passed

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_raise(self, suite, trials):
        with pytest.raises(DomainError):
            suite(trials, 1)

    def test_no_qualifying_trial_does_not_pass(self):
        # Perturbations this strong never land on the cooling limit.
        result = suites.near_optimal_dissipation_suite(20, 3, eps=0.3)
        assert result.trials == 0 and result.violations == 0
        assert not result.passed
        assert result.as_row()["passed"] is False
