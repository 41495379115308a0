import pytest

from fnclass.kfun import KFunction
from fnclass.verify import EXHAUSTIVE_POOL, _function_pool, run_checks


def test_default_profile_all_pass():
    run = run_checks(k=2, n_exhaustive=3, n_sampled=3, samples=0, seed=0)
    failing = [r.name for r in run.results if not r.passed]
    assert run.ok, failing


def test_mutant_breaks_label_lemma():
    run = run_checks(k=2, n_exhaustive=2, n_sampled=2, samples=0, seed=0,
                     mutant="no-remove-rule",
                     names=["label-lemma"])
    assert not run.ok


def test_mutant_name_validated():
    import pytest
    with pytest.raises(ValueError):
        run_checks(mutant="bogus")


def test_single_fix_check_reports_known_counterexample():
    # the single-variable fixing claim fails once distributive sets need
    # two variables; cf53 is the smallest sampled witness we pin here
    f = KFunction.from_hex("cf53", 4)
    pool = [(2, 4, [f])]
    run = run_checks(k=2, n_exhaustive=0, n_sampled=0, samples=0, seed=0,
                     names=["single-fix-kills-inseparable-part"],
                     extra_pools=pool)
    (result,) = run.results
    assert not result.passed
    assert "cf53" in result.counterexample


def test_ternary_sweep_passes():
    run = run_checks(k=3, n_exhaustive=1, n_sampled=2, samples=25, seed=1)
    failing = [r.name for r in run.results if not r.passed]
    assert run.ok, failing


def test_results_serialize():
    run = run_checks(k=2, n_exhaustive=2, n_sampled=2, samples=0, seed=0,
                     names=["cofactor-laws"])
    payload = run.to_json_dict()
    assert payload["ok"] is True
    assert payload["checks"][0]["name"] == "cofactor-laws"


def test_exhaustive_pool_limit():
    # all of P_2^4 still fits; P_4^2 (4^16 functions) is refused unlisted
    assert len(_function_pool(2, 4, 4, 0, 0)[-1][2]) == EXHAUSTIVE_POOL
    with pytest.raises(MemoryError):
        _function_pool(4, 2, 2, 0, 0)
