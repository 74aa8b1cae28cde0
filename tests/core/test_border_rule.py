"""The one border rule: the public entry points keep ``deterministic_borders``
only as a keyword that names it.

``True`` must answer exactly as omitting the keyword does; any other value
must be refused with one ``ValueError`` before anything is computed.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import ScanIndex
from repro.core import sweep_query
from repro.core.query import cluster
from repro.graphs import planted_partition
from repro.parallel import Scheduler
from repro.quality.sweep import modularity_sweep
from repro.serve import ClusterServer, ClusterSession, ServedResult
from repro.serve.worker import worker_main

PAIRS = [(2, 0.3), (3, 0.3), (5, 0.45), (2, 0.6)]


@pytest.fixture(scope="module")
def index():
    graph = planted_partition(4, 25, p_intra=0.45, p_inter=0.04, seed=11)
    return ScanIndex.build(graph)


def _index_query(index, **keyword):
    return [index.query(mu, epsilon, **keyword) for mu, epsilon in PAIRS]


def _index_query_many(index, **keyword):
    return index.query_many(PAIRS, **keyword)


def _cluster(index, **keyword):
    return [
        cluster(index.graph, index.neighbor_order, index.core_order, mu, epsilon,
                **keyword)
        for mu, epsilon in PAIRS
    ]


def _session_serve(index, **keyword):
    session = index.session()
    return [session.serve(mu, epsilon, **keyword).to_clustering()
            for mu, epsilon in PAIRS]


def _session_query(index, **keyword):
    session = index.session()
    return [session.query(mu, epsilon, **keyword) for mu, epsilon in PAIRS]


def _session_query_many(index, **keyword):
    return index.session().query_many(PAIRS, **keyword)


ENTRY_POINTS = {
    "ScanIndex.query": _index_query,
    "ScanIndex.query_many": _index_query_many,
    "core.query.cluster": _cluster,
    "ClusterSession.serve": _session_serve,
    "ClusterSession.query": _session_query,
    "ClusterSession.query_many": _session_query_many,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_true_answers_as_the_default(index, entry):
    run = ENTRY_POINTS[entry]
    named, default = run(index, deterministic_borders=True), run(index)
    for a, b in zip(named, default):
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.core_mask, b.core_mask)
        assert a.labels.dtype == b.labels.dtype


@pytest.mark.parametrize("value", [False, None, 1])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_any_other_value_is_refused(index, entry, value):
    with pytest.raises(ValueError, match="first-writer border rule was removed"):
        ENTRY_POINTS[entry](index, deterministic_borders=value)


def test_refusal_charges_no_work(index):
    scheduler = Scheduler()
    with pytest.raises(ValueError):
        index.query_many(PAIRS, scheduler=scheduler, deterministic_borders=False)
    assert scheduler.counter.work == 0


def test_refused_serve_leaves_the_session_untouched(index):
    session = index.session()
    with pytest.raises(ValueError):
        session.serve(2, 0.3, deterministic_borders=False)
    with pytest.raises(ValueError):
        session.query_many(PAIRS, deterministic_borders=False)
    assert session.served == 0
    assert len(session.cache) == 0


INNER_LAYERS = {
    "sweep_query.query_many": sweep_query.query_many,
    "ClusterSession._compute": ClusterSession._compute,
    "ClusterServer": ClusterServer,
    "worker_main": worker_main,
    "modularity_sweep": modularity_sweep,
}


@pytest.mark.parametrize("layer", INNER_LAYERS)
def test_inner_layers_take_no_border_option(layer):
    parameters = inspect.signature(INNER_LAYERS[layer]).parameters
    assert not [name for name in parameters if "deterministic" in name]


def test_served_result_carries_no_border_mode():
    fields = [field.name for field in dataclasses.fields(ServedResult)]
    assert not [name for name in fields if "deterministic" in name]
