"""JSON round trips keep every dataclass field of the learned artifacts."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tripletdist import (
    AdditiveModel,
    CountingOracle,
    Domain,
    HybridDistance,
    MahaModel,
    RankTable,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    fixture_smoothness,
    learn_additive,
    learn_finite_distance,
    learn_local_hessian,
    learn_mahalanobis,
    learn_multiplicative,
)


def _same(a, b) -> bool:
    """Field-by-field equality: dataclasses recursively, arrays by dtype and value."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a)
    return a == b


def _rank_table():
    rng = np.random.default_rng(1)
    return learn_finite_distance(rng.uniform(-1, 1, (6, 2)),
                                 CountingOracle(SqrtMahalanobis(np.eye(2))))


def _maha_noiseless():
    return learn_mahalanobis(CountingOracle(SqrtMahalanobis(np.diag([1.0, 0.5]))), 2, 1e-3)


def _maha_local_hessian():
    truth = VaryingHessianQuadratic(np.diag([1.2, 0.9]), amplitude=0.1)
    params = fixture_smoothness(truth, Domain.unit_box(2), m_third_floor=1.0,
                                l_hess_floor=1.0)
    return learn_local_hessian(CountingOracle(truth), np.array([0.3, 0.6]), 1e-2,
                               params=params)


def _additive():
    return learn_additive(Domain.unit_box(2), CountingOracle(SqrtMahalanobis(np.eye(2))),
                          omega=0.5, radius=0.3)


def _hybrid():
    """A theta override, so the model's theta differs from the derived one, and an
    infinite separation term, so the "inf" encoding is exercised."""
    truth = SquaredMahalanobis(np.array([[1.0, 0.05], [0.05, 1.02]]))
    dom = Domain.box([0.0, 0.0], [0.05, 0.05])
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    model = learn_multiplicative(dom, CountingOracle(truth), 0.5, params,
                                 overrides={"eps": 0.02, "theta": 1e-3}, max_centers=50)
    assert model.theta != model.thresholds.theta
    assert math.isinf(model.thresholds.terms["separation"])
    return model


@pytest.mark.parametrize("cls, build", [
    (RankTable, _rank_table),
    (MahaModel, _maha_noiseless),
    (MahaModel, _maha_local_hessian),
    (AdditiveModel, _additive),
    (HybridDistance, _hybrid),
], ids=["RankTable", "MahaModel-noiseless", "MahaModel-local-hessian", "AdditiveModel",
        "HybridDistance"])
def test_json_round_trip_keeps_every_field(cls, build):
    obj = build()
    back = cls.from_json_dict(json.loads(json.dumps(obj.to_json_dict())))
    for f in dataclasses.fields(cls):
        assert _same(getattr(obj, f.name), getattr(back, f.name)), f.name


def test_rank_table_ignores_legacy_tie_groups_key():
    table = _rank_table()
    data = table.to_json_dict()
    assert "tie_groups" not in data
    back = RankTable.from_json_dict(dict(data, tie_groups=[[[0]]]))
    assert back.tie_groups == table.tie_groups
    np.testing.assert_array_equal(back.ranks, table.ranks)
