import io
import json
import math

import pytest

from regarch.data import write_json
from regarch.exceptions import DomainError, ValidationError
from regarch.selection import (
    AIC_LEGACY,
    AIC_STANDARD,
    ComparisonReport,
    FitScore,
    aic,
    compare,
    dic,
    effective_parameters,
    score_chain,
)


def _score(model="garch-n", **overrides):
    base = dict(
        model=model,
        k=3,
        lnl_at_mean=2079.645,
        mean_lnl=2077.5,
        aic=aic(2079.645, 3),
        dic=dic(2079.645, 2077.5),
        n_obs=2999,
        data_digest="abc123",
    )
    base.update(overrides)
    return FitScore(**base)


class TestAic:
    def test_standard_form(self):
        assert aic(2079.645, 4) == pytest.approx(-4151.29)
        assert aic(-100.0, 3) == pytest.approx(206.0)

    def test_legacy_form(self):
        assert aic(2079.645, 4, AIC_LEGACY) == pytest.approx(-2087.645)

    def test_forms_rank_identically_at_equal_k(self):
        # the legacy form flips sign and scale but keeps the ordering
        better, worse = 2100.0, 2000.0
        assert aic(better, 3) < aic(worse, 3)
        assert aic(better, 3, AIC_LEGACY) < aic(worse, 3, AIC_LEGACY)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            aic(100.0, 0)
        with pytest.raises(DomainError):
            aic(100.0, 3, form="bogus")


class TestDic:
    def test_arithmetic(self):
        assert dic(100.0, 90.0) == pytest.approx(-160.0)
        assert effective_parameters(100.0, 90.0) == pytest.approx(20.0)

    def test_dic_identity(self):
        # DIC = -2 ln L(theta_bar) + 2 p_D
        lnl, mean_lnl = 2079.645, 2077.5
        p_d = effective_parameters(lnl, mean_lnl)
        assert dic(lnl, mean_lnl) == pytest.approx(-2.0 * lnl + 2.0 * p_d)

    def test_perfect_chain_has_zero_effective_parameters(self):
        assert effective_parameters(50.0, 50.0) == 0.0
        assert dic(50.0, 50.0) == pytest.approx(-100.0)


class TestScoreChain:
    def test_from_chain(self, normal_chain):
        score = score_chain(normal_chain)
        assert score.model == normal_chain.model
        assert score.k == 3
        assert score.aic == pytest.approx(-2.0 * normal_chain.lnl_at_mean + 6.0)
        assert score.dic == pytest.approx(
            2.0 * (normal_chain.lnl_at_mean - 2.0 * normal_chain.mean_log_likelihood())
        )
        assert score.n_obs == normal_chain.n_obs
        assert score.data_digest == normal_chain.data_digest

    def test_legacy_flag(self, normal_chain):
        score = score_chain(normal_chain, aic_form=AIC_LEGACY)
        assert score.aic == pytest.approx(-normal_chain.lnl_at_mean - 6.0)

    def test_as_dict_is_json_ready(self, normal_chain):
        payload = score_chain(normal_chain).as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestCompare:
    def test_lower_scores_win(self):
        better = _score("garch-re", aic=-100.0, dic=-110.0)
        worse = _score("garch-n", aic=-90.0, dic=-95.0)
        report = compare(worse, better)
        assert report.aic_preferred == "garch-re"
        assert report.dic_preferred == "garch-re"
        assert report.criteria_agree

    def test_disagreement_flagged(self):
        first = _score("garch-n", aic=-100.0, dic=-90.0)
        second = _score("garch-re", aic=-95.0, dic=-95.0)
        report = compare(first, second)
        assert report.aic_preferred == "garch-n"
        assert report.dic_preferred == "garch-re"
        assert not report.criteria_agree

    def test_tie_goes_to_first(self):
        first = _score("garch-n")
        second = _score("garch-re")
        report = compare(first, second)
        assert report.aic_preferred == "garch-n"
        assert report.dic_preferred == "garch-n"

    def test_identical_model_twice_is_a_tie(self):
        report = compare(_score("garch-n"), _score("garch-n"))
        assert report.aic_preferred == "garch-n"
        assert report.criteria_agree

    def test_different_data_rejected(self):
        with pytest.raises(ValidationError):
            compare(_score("garch-n"), _score("garch-re", data_digest="zzz"))
        with pytest.raises(ValidationError):
            compare(_score("garch-n"), _score("garch-re", n_obs=100))

    def test_report_serialization(self):
        report = compare(_score("garch-n"), _score("garch-re", aic=-1e4, dic=-1e4))
        first, second = io.StringIO(), io.StringIO()
        write_json(first, report.as_dict())
        write_json(second, report.as_dict())
        payload = json.loads(first.getvalue())
        assert payload["aic_preferred"] == "garch-re"
        assert payload["criteria_agree"] is False or payload["criteria_agree"] is True
        assert len(payload["scores"]) == 2
        assert first.getvalue() == second.getvalue()
