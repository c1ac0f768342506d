"""Downstream uses of performance estimates: picking the best
(service, context) setting for a task, and ranking services by how much
a fine-tune is expected to help.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metamodels as mm
from .errors import InsufficientDataError
from .profile import FeatureProfile


@dataclass(frozen=True)
class SettingCandidate:
    service_id: str
    context_id: str
    profile: FeatureProfile
    estimate: float


def candidates_from_model(model, profiles) -> list:
    """Score each (service, context) profile with a trained meta-model."""
    profiles = list(profiles)
    preds = mm.predict_many(model, profiles)
    return [SettingCandidate(service_id=pr.service_id,
                             context_id=pr.context_id, profile=pr,
                             estimate=float(p))
            for pr, p in zip(profiles, preds)]


def select_setting(candidates) -> SettingCandidate:
    """Highest-estimate candidate; ties resolve to the lexicographically
    smallest (service_id, context_id)."""
    candidates = list(candidates)
    if not candidates:
        raise InsufficientDataError("no candidates to select from")
    return min(candidates,
               key=lambda c: (-c.estimate, c.service_id, c.context_id))


def rank_finetune_targets(estimates) -> list:
    """Service ids sorted by estimated performance, best first; ties
    resolve lexicographically."""
    if not estimates:
        raise InsufficientDataError("no services to rank")
    return [sid for sid, _ in
            sorted(estimates.items(), key=lambda kv: (-kv[1], kv[0]))]
