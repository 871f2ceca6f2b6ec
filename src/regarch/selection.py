"""AIC and DIC scores for posterior chains, and two-model comparison.

AIC uses the standard -2 ln L(theta_bar) + 2k (smaller is better); the
"legacy" form -ln L(theta_bar) - 2k is kept behind an explicit flag for
reproducing older result tables and ranks identically only when models
share k.  DIC is 2 [ln L(theta_bar) - 2 E(ln L)], again smaller-is-better;
its effective-parameter reading is p_D = 2 [ln L(theta_bar) - E(ln L)].
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import DomainError, ValidationError

AIC_STANDARD = "standard"
AIC_LEGACY = "legacy"


def aic(lnl_at_mean, k, form=AIC_STANDARD):
    """Akaike score from the likelihood at the posterior mean."""
    if k <= 0:
        raise DomainError("k must be a positive parameter count")
    if form == AIC_STANDARD:
        return -2.0 * lnl_at_mean + 2.0 * k
    if form == AIC_LEGACY:
        return -lnl_at_mean - 2.0 * k
    raise DomainError(f"unknown AIC form {form!r}")


def dic(lnl_at_mean, mean_lnl):
    """Deviance information criterion from the chain's likelihood trace."""
    return 2.0 * (lnl_at_mean - 2.0 * mean_lnl)


def effective_parameters(lnl_at_mean, mean_lnl):
    """p_D = 2 [ln L(theta_bar) - E(ln L)]; negative values flag trouble."""
    return 2.0 * (lnl_at_mean - mean_lnl)


@dataclass
class FitScore:
    """Model-selection scores for one chain."""

    model: str
    k: int
    lnl_at_mean: float
    mean_lnl: float
    aic: float
    dic: float
    n_obs: int
    data_digest: str

    def as_dict(self):
        return {
            "model": self.model,
            "k": self.k,
            "log_likelihood_at_mean": self.lnl_at_mean,
            "mean_log_likelihood": self.mean_lnl,
            "aic": self.aic,
            "dic": self.dic,
            "n_obs": self.n_obs,
            "data_digest": self.data_digest,
        }


def score_chain(chain, aic_form=AIC_STANDARD):
    """Build a :class:`FitScore` from a finished posterior chain."""
    k = len(chain.param_names)
    mean_lnl = chain.mean_log_likelihood()
    return FitScore(
        model=chain.model,
        k=k,
        lnl_at_mean=chain.lnl_at_mean,
        mean_lnl=mean_lnl,
        aic=aic(chain.lnl_at_mean, k, form=aic_form),
        dic=dic(chain.lnl_at_mean, mean_lnl),
        n_obs=chain.n_obs,
        data_digest=chain.data_digest,
    )


@dataclass
class ComparisonReport:
    """Preferred model under each criterion, plus the raw scores."""

    scores: tuple
    aic_preferred: str
    dic_preferred: str

    @property
    def criteria_agree(self):
        return self.aic_preferred == self.dic_preferred

    def as_dict(self):
        return {
            "scores": [s.as_dict() for s in self.scores],
            "aic_preferred": self.aic_preferred,
            "dic_preferred": self.dic_preferred,
            "criteria_agree": self.criteria_agree,
        }


def compare(first, second):
    """Rank two fits of the same data; lower score wins each criterion."""
    if first.data_digest != second.data_digest or first.n_obs != second.n_obs:
        raise ValidationError(
            "fits were made on different data and cannot be compared"
        )
    aic_pref = first.model if first.aic <= second.aic else second.model
    dic_pref = first.model if first.dic <= second.dic else second.model
    return ComparisonReport(
        scores=(first, second),
        aic_preferred=aic_pref,
        dic_preferred=dic_pref,
    )
