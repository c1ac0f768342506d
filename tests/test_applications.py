"""Setting selection and fine-tune target ranking."""

import numpy as np
import pytest

from perfest.applications import (
    SettingCandidate,
    candidates_from_model,
    rank_finetune_targets,
    select_setting,
)
from perfest.errors import InsufficientDataError
from perfest.features import FeatureKind
from perfest.metamodels import (ModelKind, ModelSpec, TrainingRow,
                                predict_many, train)
from perfest.profile import FeatureProfile


def make_candidate(sid, cid, estimate):
    prof = FeatureProfile(service_id=sid, task_id="task00", context_id=cid,
                          kinds=(FeatureKind.NLL,), dims=2,
                          vector=(0.0, 1.0))
    return SettingCandidate(service_id=sid, context_id=cid,
                            profile=prof, estimate=estimate)


def test_select_single_candidate():
    c = make_candidate("svc00", "ctx00", 0.4)
    assert select_setting([c]) is c


def test_select_argmax():
    cands = [make_candidate("svc00", "ctx00", 0.2),
             make_candidate("svc01", "ctx01", 0.9),
             make_candidate("svc02", "ctx02", 0.5)]
    assert select_setting(cands).estimate == 0.9


def test_select_tie_breaks_lexicographically():
    cands = [make_candidate("svc01", "ctx05", 0.7),
             make_candidate("svc01", "ctx02", 0.7),
             make_candidate("svc00", "ctx09", 0.7)]
    best = select_setting(cands)
    assert (best.service_id, best.context_id) == ("svc00", "ctx09")


def test_select_empty_rejected():
    with pytest.raises(InsufficientDataError):
        select_setting([])


def test_select_invariant_under_monotone_transform():
    rng = np.random.default_rng(90)
    cands = [make_candidate("svc%02d" % i, "ctx%02d" % i, float(e))
             for i, e in enumerate(rng.uniform(size=20))]
    base = select_setting(cands)
    squeezed = [SettingCandidate(c.service_id, c.context_id, c.profile,
                                 c.estimate ** 3 * 0.5)
                for c in cands]
    best = select_setting(squeezed)
    assert (best.service_id, best.context_id) == (base.service_id,
                                                  base.context_id)


def test_select_invariant_under_permutation():
    rng = np.random.default_rng(91)
    cands = [make_candidate("svc%02d" % i, "ctx00", float(e))
             for i, e in enumerate(rng.uniform(size=15))]
    base = select_setting(cands)
    for _ in range(5):
        perm = [cands[i] for i in rng.permutation(len(cands))]
        assert select_setting(perm) is base


def test_rank_singleton():
    assert rank_finetune_targets({"svcA": 0.1}) == ["svcA"]


def test_rank_descending():
    assert rank_finetune_targets({"svcA": 0.3, "svcB": 0.7}) == [
        "svcB", "svcA"]


def test_rank_ties_lexicographic():
    got = rank_finetune_targets({"svcC": 0.5, "svcA": 0.5, "svcB": 0.9})
    assert got == ["svcB", "svcA", "svcC"]


def test_rank_is_permutation_of_keys():
    rng = np.random.default_rng(92)
    estimates = {"svc%02d" % i: float(rng.uniform()) for i in range(10)}
    got = rank_finetune_targets(estimates)
    assert sorted(got) == sorted(estimates)


def test_rank_empty_rejected():
    with pytest.raises(InsufficientDataError):
        rank_finetune_targets({})


def test_candidates_from_model_use_model_estimates():
    profiles = []
    rows = []
    for i in range(6):
        vec = (float(i), float(i + 1))
        prof = FeatureProfile(service_id="svc%02d" % (i % 2),
                              task_id="task00", context_id="ctx%02d" % i,
                              kinds=(FeatureKind.NLL,), dims=2, vector=vec)
        profiles.append(prof)
        rows.append(TrainingRow(profile=prof, target=i / 10.0))
    model = train(ModelSpec(ModelKind.KNN, {"k": 1}), rows, seed=0)
    cands = candidates_from_model(model, profiles)
    assert len(cands) == 6
    for cand, prof in zip(cands, profiles):
        assert cand.service_id == prof.service_id
        assert cand.context_id == prof.context_id
        assert cand.estimate == pytest.approx(predict_many(model, [prof])[0])
    best = select_setting(cands)
    assert best.context_id == "ctx05"
