"""The artifact JSON codec: the stored format of each class, and loud failures on load."""

import json
import math

import numpy as np
import pytest

from tripletdist import (AdditiveModel, EpsCover, HybridDistance, MahaModel,
                         MultiplicativeThresholds, RankTable, SmoothnessParams)
from tripletdist.evaluation import AgreementReport

COVER = EpsCover(centers=np.array([[0.25], [0.75]]), radius=0.25)
TABLE = RankTable(points=np.array([[0.25], [0.75]]), ranks=np.array([[0, 1], [1, 0]]),
                  query_count=2)
THRESHOLDS = MultiplicativeThresholds(beta_hat=0.5, eps=0.1, xi=0.2, theta=2.0, omega=0.5,
                                      terms={"curvature": 0.5, "separation": math.inf})
COVER_DOC = {"radius": 0.25, "centers": [[0.25], [0.75]]}
TABLE_DOC = {"points": [[0.25], [0.75]], "ranks": [[0, 1], [1, 0]], "query_count": 2}
THRESHOLDS_DOC = {"beta_hat": 0.5, "eps": 0.1, "xi": 0.2, "theta": 2.0, "omega": 0.5,
                  "terms": {"curvature": 0.5, "separation": "inf"}}
ADDITIVE_DOC = {"omega": 0.5, "radius": 0.25, "query_count": 2,
                "cover": COVER_DOC, "table": TABLE_DOC}
PARAMS_DOC = {"alpha": 1.0, "L_smooth": 2.0, "M_third": 1.0, "eig_lo": 0.5, "eig_hi": 1.0,
              "L_hess": 1.0, "delta_floor": "inf", "kappa0": 320.0}
HYBRID_DOC = {"cover": COVER_DOC, "table": TABLE_DOC, "hessians": [[[1.0]], [[1.0]]],
              "theta": 1.0, "thresholds": THRESHOLDS_DOC, "omega": 0.5, "query_count": 9,
              "scale": 1.0}

FORMATS = [
    (COVER, COVER_DOC),
    (TABLE, TABLE_DOC),
    (THRESHOLDS, THRESHOLDS_DOC),
    (MahaModel(p=1, matrix=np.eye(1), matrix_pre=np.eye(1), coefficients=np.ones(1),
               query_count=3, anchor=0, eps=0.1, eps_alg=0.05),
     {"p": 1, "matrix": [[1.0]], "matrix_pre": [[1.0]], "coefficients": [1.0],
      "query_count": 3, "anchor": 0, "eps": 0.1, "eps_alg": 0.05, "mode": "noiseless",
      "base_point": None, "rho": None}),
    (MahaModel(p=1, matrix=np.eye(1), matrix_pre=np.eye(1), coefficients=np.ones(1),
               query_count=3, anchor=0, eps=0.1, eps_alg=0.05, mode="local-hessian",
               base_point=np.array([0.5]), rho=0.01),
     {"p": 1, "matrix": [[1.0]], "matrix_pre": [[1.0]], "coefficients": [1.0],
      "query_count": 3, "anchor": 0, "eps": 0.1, "eps_alg": 0.05, "mode": "local-hessian",
      "base_point": [0.5], "rho": 0.01}),
    (AdditiveModel(cover=COVER, table=TABLE, omega=0.5, radius=0.25,
                   query_count=2), ADDITIVE_DOC),
    (SmoothnessParams(alpha=1.0, L_smooth=2.0, M_third=1.0, eig_lo=0.5, eig_hi=1.0,
                      L_hess=1.0), PARAMS_DOC),
    (AgreementReport(mode="additive", total_triplets=4, eligible=3, violations=0,
                     violation_exemplars=[], query_count_of_learner=2,
                     thresholds={"omega": 0.5}),
     {"mode": "additive", "total_triplets": 4, "eligible": 3, "violations": 0,
      "violation_exemplars": [], "query_count_of_learner": 2, "thresholds": {"omega": 0.5},
      "extra": {}}),
    (HybridDistance(cover=COVER, table=TABLE, hessians=np.ones((2, 1, 1)), theta=1.0,
                    thresholds=THRESHOLDS, omega=0.5, query_count=9), HYBRID_DOC),
]


@pytest.mark.parametrize("obj, doc", FORMATS, ids=[type(o).__name__ for o, _ in FORMATS])
def test_stored_format(obj, doc):
    assert json.dumps(obj.to_json_dict()) == json.dumps(doc)
    back = type(obj).from_json_dict(json.loads(json.dumps(doc)))
    assert json.dumps(back.to_json_dict()) == json.dumps(doc)


def test_unknown_key_is_an_error_naming_it():
    with pytest.raises(ValueError, match="kappa_0"):
        SmoothnessParams.from_json_dict(dict(PARAMS_DOC, kappa_0=1.0))
    with pytest.raises(ValueError, match="centres"):
        AdditiveModel.from_json_dict(dict(ADDITIVE_DOC, cover=dict(COVER_DOC, centres=[])))
    with pytest.raises(ValueError, match="method"):
        EpsCover.from_json_dict(dict(COVER_DOC, method="grid"))
    with pytest.raises(ValueError, match="locals"):
        HybridDistance.from_json_dict(dict(HYBRID_DOC, locals=[]))


def test_missing_key_or_non_object_is_an_error():
    doc = dict(COVER_DOC)
    del doc["radius"]
    with pytest.raises(ValueError, match="radius"):
        EpsCover.from_json_dict(doc)
    with pytest.raises(ValueError, match="JSON object"):
        SmoothnessParams.from_json_dict([1.0, 2.0])


def test_non_finite_floats_are_strings():
    th = MultiplicativeThresholds(beta_hat=0.5, eps=0.1, xi=0.2, theta=2.0, omega=0.5,
                                  terms={"a": math.inf, "b": -math.inf, "c": math.nan})
    doc = json.loads(json.dumps(th.to_json_dict(), allow_nan=False))
    assert doc["terms"] == {"a": "inf", "b": "-inf", "c": "nan"}
    terms = MultiplicativeThresholds.from_json_dict(doc).terms
    assert terms["a"] == math.inf and terms["b"] == -math.inf and math.isnan(terms["c"])
