"""One request, one execution: ``execute_query`` answers like a session.

The daemon runs each query request as exactly one call of the query
executor (:func:`~repro.queries.session.execute_query`) against a
column-slice session — the whole collection is the slice ``[0, N)`` —
and turns its result into the reply payload.  That payload must equal
the in-process :class:`SimilaritySession` answer for every servable
technique family (Euclidean, MA/EMA filters, DUST, PROUD, MUNICH,
DUST-DTW, MUNICH-DTW) and every verb: bit-identical kNN indices, scores
within 1e-9, identical match sets and the same ε / τ echoes.  A slice
with ``col_offset > 0`` answers the in-process answer restricted to its
columns, in global indices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import spawn
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession, knn_table
from repro.queries.session import execute_query
from repro.queries.techniques import _epsilon_vector
from repro.service.daemon import _wire_result
from repro.service.protocol import build_technique

SEED = 515
N_SERIES = 14
LENGTH = 20

#: Query rows of every request: members inside and outside the slice.
QUERY_ROWS = [3, 4, 9, 12]

#: Each family once, with the params a service request would carry.
KNN_SPECS = [
    pytest.param("euclidean", "pdf", id="euclidean"),
    pytest.param({"name": "uma", "params": {"window": 2}}, "pdf", id="uma"),
    pytest.param(
        {"name": "uema", "params": {"window": 2, "decay": 0.8}},
        "pdf",
        id="uema",
    ),
    pytest.param("dust", "pdf", id="dust"),
    pytest.param(
        {"name": "dust-dtw", "params": {"window": 4}}, "pdf", id="dust-dtw"
    ),
]
PROB_RANGE_SPECS = [
    pytest.param(
        {"name": "proud", "params": {"assumed_std": 0.4}},
        "pdf",
        5.0,
        0.4,
        id="proud",
    ),
    pytest.param("munich", "multisample", 5.0, 0.5, id="munich"),
    pytest.param(
        {"name": "munich-dtw", "params": {"window": 4, "n_samples": 16}},
        "multisample",
        5.0,
        0.5,
        id="munich-dtw",
    ),
]
#: The whole collection, and a column slice with ``col_offset > 0``.
WINDOWS = [
    pytest.param(None, id="whole"),
    pytest.param((5, 12), id="slice"),
]


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=SEED, n_series=N_SERIES, length=LENGTH
    )


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]


def _run(collection, spec, op, params, window):
    """One request's ``execute_query`` result, as the daemon runs it:
    ``params`` are the wire params the daemon validates into keywords."""
    start, stop = window or (0, len(collection))
    arguments = {}
    if "k" in params:
        arguments["k"] = params["k"]
    if "epsilon" in params:
        arguments["epsilon"] = _epsilon_vector(
            params["epsilon"], len(QUERY_ROWS)
        )
    if "tau" in params:
        arguments["tau"] = float(params["tau"])
    positions = np.asarray(QUERY_ROWS, dtype=np.intp)
    with SimilaritySession(collection[start:stop]) as session:
        result = execute_query(
            session,
            build_technique(spec),
            op,
            [collection[i] for i in QUERY_ROWS],
            positions,
            col_offset=start,
            **arguments,
        )
    stats = result.pruning_stats
    assert stats is not None and stats.n_queries == len(QUERY_ROWS)
    return result


def _execute(collection, spec, op, params, window):
    """One request's reply payload, as the daemon sends it."""
    return _wire_result(_run(collection, spec, op, params, window))


def _in_process(collection, spec):
    """The fluent in-process query set the payloads must reproduce."""
    session = SimilaritySession(collection)
    return session, session.queries(QUERY_ROWS).using(build_technique(spec))


def _restricted(matches, window):
    """Match sets restricted to a slice's columns (global indices)."""
    if window is None:
        return [[int(i) for i in found] for found in matches]
    start, stop = window
    return [[int(i) for i in found if start <= i < stop] for found in matches]


class TestExecuteParity:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("spec,kind", KNN_SPECS)
    def test_knn_matches_in_process(self, spec, kind, window, request):
        collection = request.getfixturevalue(kind)
        payload = _execute(collection, spec, "knn", {"k": 3}, window)
        session, queries = _in_process(collection, spec)
        with session:
            if window is None:
                expected = queries.knn(3)
                indices, scores = expected.indices, expected.scores
            else:
                start, stop = window
                profile = queries.profile_matrix().values[:, start:stop]
                own = np.asarray(QUERY_ROWS) - start
                local = np.where((own >= 0) & (own < stop - start), own, -1)
                table = knn_table(profile, 3, exclude=local)
                indices = table + start
                scores = np.take_along_axis(profile, table, axis=1)
        assert payload["indices"] == indices.tolist()
        np.testing.assert_allclose(payload["scores"], scores, atol=1e-9)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("spec,kind", KNN_SPECS)
    def test_range_matches_in_process(self, spec, kind, window, request):
        collection = request.getfixturevalue(kind)
        payload = _execute(collection, spec, "range", {"epsilon": 4.5}, window)
        session, queries = _in_process(collection, spec)
        with session:
            expected = queries.range(4.5)
        assert payload["matches"] == _restricted(expected.matches, window)
        assert payload["epsilons"] == [4.5] * len(QUERY_ROWS)
        assert "tau" not in payload

    @pytest.mark.parametrize("window", WINDOWS)
    def test_range_per_query_epsilon_vector(self, pdf, window):
        """A request may carry one ε per query row; the reply echoes it."""
        epsilons = [3.0, 4.0, 5.0, 6.0]
        payload = _execute(
            pdf, "euclidean", "range", {"epsilon": epsilons}, window
        )
        session, queries = _in_process(pdf, "euclidean")
        with session:
            expected = queries.range(epsilons)
        assert payload["matches"] == _restricted(expected.matches, window)
        assert payload["epsilons"] == epsilons

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("spec,kind,epsilon,tau", PROB_RANGE_SPECS)
    def test_prob_range_matches_in_process(
        self, spec, kind, epsilon, tau, window, request
    ):
        collection = request.getfixturevalue(kind)
        params = {"epsilon": epsilon, "tau": tau}
        payload = _execute(collection, spec, "prob_range", params, window)
        session, queries = _in_process(collection, spec)
        with session:
            expected = queries.prob_range(epsilon, tau)
        assert payload["matches"] == _restricted(expected.matches, window)
        assert payload["epsilons"] == [epsilon] * len(QUERY_ROWS)
        assert payload["tau"] == tau

    def test_slice_narrower_than_k_answers_ragged_rows(self, pdf):
        """The executor pads a row short of ``k`` real candidates with
        ``-1`` / ``+inf``; the padding never reaches the payload: a row
        keeps only the real candidates its slice has after skipping the
        self-match."""
        result = _run(pdf, "euclidean", "knn", {"k": 5}, (3, 6))
        assert result.indices.shape == (len(QUERY_ROWS), 3)
        assert (result.indices < 0).sum(axis=1).tolist() == [1, 1, 0, 0]
        assert np.all(np.isinf(result.scores[result.indices < 0]))
        payload = _wire_result(result)
        assert [len(row) for row in payload["indices"]] == [2, 2, 3, 3]
        assert [len(row) for row in payload["scores"]] == [2, 2, 3, 3]
        assert all(
            3 <= index < 6 and index != own
            for own, row in zip(QUERY_ROWS, payload["indices"])
            for index in row
        )
