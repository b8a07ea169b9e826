"""Sentinel answers: one type, singletons under copy and pickle."""

import copy
import pickle

import pytest

from hierdepth import agcode, depth, picard
from hierdepth.errors import Sentinel


@pytest.mark.parametrize(
    "sentinel,name",
    [
        (depth.NO_FILTRATION, "NoFiltration"),
        (picard.NO_DECOMPOSITION, "NoDecomposition"),
        (agcode.INFEASIBLE, "Infeasible"),
    ],
)
def test_sentinels_keep_identity_and_repr(sentinel, name):
    assert isinstance(sentinel, Sentinel)
    assert repr(sentinel) == str(sentinel) == name
    assert copy.deepcopy(sentinel) is sentinel
    assert pickle.loads(pickle.dumps(sentinel)) is sentinel
