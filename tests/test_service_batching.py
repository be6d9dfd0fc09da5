"""Batching semantics: coalescing is invisible in the results.

The central contract — a query row executed inside a coalesced batch is
identical to the same query executed alone — is asserted for every
servable technique family (Euclidean, MA/EMA filters, DUST, PROUD,
MUNICH, DUST-DTW, MUNICH-DTW), for kNN, range and probabilistic range
verbs.  The :class:`BatchQueue` tests cover dispatch-when-idle
admission: an idle key dispatches on the next event-loop tick, jobs
that arrive while its batch executes form the next batch (at most
:data:`MAX_BATCH` jobs), and other keys never wait on a busy one.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import spawn
from repro.core.errors import InvalidParameterError
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.service.batching import (
    MAX_BATCH,
    BatchQueue,
    QueryJob,
    batch_key,
    execute_batch,
    merge_requests,
    scatter_rows,
)
from repro.service.protocol import build_technique, technique_key

SEED = 515
N_SERIES = 14
LENGTH = 20

#: Each family once, with the params a service request would carry.
KNN_SPECS = [
    ("euclidean", "pdf"),
    ({"name": "uma", "params": {"window": 2}}, "pdf"),
    ({"name": "uema", "params": {"window": 2, "decay": 0.8}}, "pdf"),
    ("dust", "pdf"),
    ({"name": "dust-dtw", "params": {"window": 4}}, "pdf"),
]
PROB_RANGE_SPECS = [
    ({"name": "proud", "params": {"assumed_std": 0.4}}, "pdf", 5.0, 0.4),
    ("munich", "multisample", 5.0, 0.5),
    (
        {"name": "munich-dtw", "params": {"window": 4, "n_samples": 16}},
        "multisample",
        5.0,
        0.5,
    ),
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


def _collection(request, kind):
    return request.getfixturevalue(kind)


def _jobs(collection, op, per_job_params):
    """Three requests over distinct index subsets, service-shaped."""
    subsets = [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11]]
    jobs = []
    for number, (indices, params) in enumerate(
        zip(subsets, per_job_params)
    ):
        positions = np.asarray(indices, dtype=np.intp)
        jobs.append(
            QueryJob(
                request_id=f"r{number}",
                op=op,
                items=[collection[i] for i in indices],
                positions=positions,
                params=params,
            )
        )
    return jobs


def _serial_answers(collection, spec, op, jobs):
    """Each job alone, through a fresh session + technique instance."""
    answers = []
    with SimilaritySession(collection) as session:
        for job in jobs:
            technique = build_technique(spec)
            queries = session.queries(list(job.positions)).using(technique)
            if op == "knn":
                result = queries.knn(int(job.params["k"]))
            elif op == "range":
                result = queries.range(job.params["epsilon"])
            else:
                result = queries.prob_range(
                    job.params["epsilon"], float(job.params["tau"])
                )
            answers.append(result)
    return answers


def _batched_answers(collection, spec, op, jobs):
    with SimilaritySession(collection) as session:
        result, slices = execute_batch(
            session, build_technique(spec), op, jobs
        )
    return [scatter_rows(result, job_slice) for job_slice in slices]


class TestBatchedParity:
    @pytest.mark.parametrize("spec,kind", KNN_SPECS)
    def test_knn_rows_match_serial(self, spec, kind, request):
        collection = _collection(request, kind)
        jobs = _jobs(collection, "knn", [{"k": 3}] * 3)
        batched = _batched_answers(collection, spec, "knn", jobs)
        serial = _serial_answers(collection, spec, "knn", jobs)
        for scattered, alone in zip(batched, serial):
            assert scattered["indices"] == alone.indices.tolist()
            np.testing.assert_allclose(
                scattered["scores"], alone.scores, atol=1e-9
            )

    @pytest.mark.parametrize("spec,kind", KNN_SPECS)
    def test_range_rows_match_serial(self, spec, kind, request):
        """Per-request scalar ε merge into one per-query ε vector."""
        collection = _collection(request, kind)
        params = [{"epsilon": 3.0}, {"epsilon": 4.5}, {"epsilon": 6.0}]
        jobs = _jobs(collection, "range", params)
        batched = _batched_answers(collection, spec, "range", jobs)
        serial = _serial_answers(collection, spec, "range", jobs)
        for scattered, alone, job in zip(batched, serial, jobs):
            assert scattered["matches"] == [
                [int(i) for i in found] for found in alone.matches
            ]
            np.testing.assert_allclose(
                scattered["epsilons"],
                np.full(job.n_queries, job.params["epsilon"]),
            )

    def test_range_per_query_epsilon_vectors(self, pdf):
        """A request may itself carry one ε per query row."""
        spec = "euclidean"
        epsilons = [
            {"epsilon": [3.0, 4.0, 5.0, 6.0]},
            {"epsilon": 4.5},
            {"epsilon": [2.0, 8.0, 4.0, 4.0, 4.0]},
        ]
        jobs = _jobs(pdf, "range", epsilons)
        batched = _batched_answers(pdf, spec, "range", jobs)
        serial = _serial_answers(pdf, spec, "range", jobs)
        for scattered, alone in zip(batched, serial):
            assert scattered["matches"] == [
                [int(i) for i in found] for found in alone.matches
            ]

    @pytest.mark.parametrize("spec,kind,epsilon,tau", PROB_RANGE_SPECS)
    def test_prob_range_rows_match_serial(
        self, spec, kind, epsilon, tau, request
    ):
        collection = _collection(request, kind)
        params = [{"epsilon": epsilon, "tau": tau}] * 3
        jobs = _jobs(collection, "prob_range", params)
        batched = _batched_answers(collection, spec, "prob_range", jobs)
        serial = _serial_answers(collection, spec, "prob_range", jobs)
        for scattered, alone in zip(batched, serial):
            assert scattered["matches"] == [
                [int(i) for i in found] for found in alone.matches
            ]
            assert scattered["tau"] == tau


class TestBatchKey:
    def test_same_plan_coalesces(self):
        key = technique_key("dust")
        assert batch_key("c", key, "knn", {"k": 5}) == batch_key(
            "c", key, "knn", {"k": 5}
        )
        # ε is per-query (merged), so it stays out of the range key.
        assert batch_key("c", key, "range", {"epsilon": 1.0}) == batch_key(
            "c", key, "range", {"epsilon": 9.0}
        )

    def test_plan_shaping_params_split_batches(self):
        key = technique_key("dust")
        assert batch_key("c", key, "knn", {"k": 5}) != batch_key(
            "c", key, "knn", {"k": 6}
        )
        assert batch_key(
            "c", key, "prob_range", {"epsilon": 1.0, "tau": 0.4}
        ) != batch_key("c", key, "prob_range", {"epsilon": 1.0, "tau": 0.5})
        assert batch_key("c", key, "knn", {"k": 5}) != batch_key(
            "other", key, "knn", {"k": 5}
        )

    def test_technique_key_is_canonical(self):
        assert technique_key("dust") == technique_key(
            {"name": "DUST", "params": {}}
        )
        assert technique_key(
            {"name": "uema", "params": {"decay": 0.8, "window": 2}}
        ) == technique_key(
            {"name": "uema", "params": {"window": 2, "decay": 0.8}}
        )
        assert technique_key("dust") != technique_key("euclidean")

    def test_unbatchable_op_rejected(self):
        with pytest.raises(InvalidParameterError, match="not batchable"):
            batch_key("c", technique_key("dust"), "ping", {})


class TestMergeRequests:
    def _job(self, request_id, rows, params):
        return QueryJob(
            request_id=request_id,
            op="range",
            items=[object()] * rows,
            positions=np.arange(rows, dtype=np.intp),
            params=params,
        )

    def test_slices_partition_the_merged_workload(self):
        jobs = [
            self._job("a", 3, {"epsilon": 1.0}),
            self._job("b", 2, {"epsilon": [4.0, 5.0]}),
        ]
        items, positions, epsilon, slices = merge_requests(jobs)
        assert len(items) == 5
        assert positions.tolist() == [0, 1, 2, 0, 1]
        np.testing.assert_allclose(epsilon, [1.0, 1.0, 1.0, 4.0, 5.0])
        assert slices == [slice(0, 3), slice(3, 5)]

    def test_knn_jobs_carry_no_epsilon(self):
        jobs = [self._job("a", 2, {"k": 3}), self._job("b", 1, {"k": 3})]
        _, _, epsilon, slices = merge_requests(jobs)
        assert epsilon is None
        assert slices == [slice(0, 2), slice(2, 3)]

    def test_epsilon_shape_mismatch_names_request(self):
        jobs = [self._job("bad", 3, {"epsilon": [1.0, 2.0]})]
        with pytest.raises(InvalidParameterError, match="'bad'"):
            merge_requests(jobs)

    def test_mixed_epsilon_presence_rejected(self):
        jobs = [
            self._job("a", 2, {"epsilon": 1.0}),
            self._job("b", 2, {"k": 3}),
        ]
        with pytest.raises(InvalidParameterError, match="every request"):
            merge_requests(jobs)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidParameterError, match="empty"):
            merge_requests([])


def _queue_job(request_id="q"):
    return QueryJob(
        request_id=request_id,
        op="range",
        items=[object()],
        positions=np.zeros(1, dtype=np.intp),
        params={"epsilon": 1.0},
    )


def _held_dispatch(batches, release, fail_first=False):
    """A dispatch that records each batch and holds it until ``release``.

    Returns ``(dispatch, entered)``; ``entered`` is set once a batch is
    executing.  With ``fail_first`` the first batch raises on release.
    """
    entered = asyncio.Event()

    async def dispatch(key, jobs):
        batches.append((key, [job.request_id for job in jobs]))
        entered.set()
        await release.wait()
        if fail_first and len(batches) == 1:
            raise RuntimeError("kernel exploded")
        return [f"result:{job.request_id}" for job in jobs]

    return dispatch, entered


class TestBatchQueue:
    def test_full_batch_dispatches_immediately(self):
        """Jobs admitted in one tick share one batch, dispatched at once."""
        batches = []

        async def scenario():
            async def dispatch(key, jobs):
                batches.append([job.request_id for job in jobs])
                return [f"result:{job.request_id}" for job in jobs]

            queue = BatchQueue(dispatch)
            results = await asyncio.wait_for(
                asyncio.gather(
                    queue.submit(("k",), _queue_job("a")),
                    queue.submit(("k",), _queue_job("b")),
                    queue.submit(("k",), _queue_job("c")),
                ),
                timeout=5.0,
            )
            await asyncio.wait_for(queue.drain(), timeout=5.0)
            return results

        results = asyncio.run(scenario())
        assert batches == [["a", "b", "c"]]
        for (payload, info), expected in zip(results, "abc"):
            assert payload == f"result:{expected}"
            assert info.size == 3
            assert info.n_queries == 3
            assert info.waited_ms >= 0.0

    def test_job_submitted_while_key_executes_joins_next_batch(self):
        """Jobs arriving mid-execution wait, then run together — never
        concurrently with the batch ahead of them."""
        batches = []

        async def scenario():
            release = asyncio.Event()
            dispatch, entered = _held_dispatch(batches, release)
            queue = BatchQueue(dispatch)
            first = asyncio.ensure_future(queue.submit(("k",), _queue_job("a")))
            await asyncio.wait_for(entered.wait(), timeout=5.0)
            later = asyncio.gather(
                queue.submit(("k",), _queue_job("b")),
                queue.submit(("k",), _queue_job("c")),
            )
            for _ in range(5):
                await asyncio.sleep(0)  # any concurrent dispatch would start
            assert batches == [(("k",), ["a"])]
            release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, later), timeout=5.0
            )
            await asyncio.wait_for(queue.drain(), timeout=5.0)
            return results

        (first, later) = asyncio.run(scenario())
        assert batches == [(("k",), ["a"]), (("k",), ["b", "c"])]
        assert first[1].size == 1
        assert [info.size for _, info in later] == [2, 2]
        assert [payload for payload, _ in later] == ["result:b", "result:c"]

    def test_other_key_dispatches_while_first_is_busy(self):
        batches = []

        async def scenario():
            release = asyncio.Event()
            held, entered = _held_dispatch(batches, release)

            async def dispatch(key, jobs):
                if key == ("slow",):
                    return await held(key, jobs)
                return ["fast"] * len(jobs)

            queue = BatchQueue(dispatch)
            slow = asyncio.ensure_future(
                queue.submit(("slow",), _queue_job("a"))
            )
            await asyncio.wait_for(entered.wait(), timeout=5.0)
            payload, info = await asyncio.wait_for(
                queue.submit(("fast",), _queue_job("b")), timeout=5.0
            )
            assert not slow.done()
            release.set()
            await asyncio.wait_for(slow, timeout=5.0)
            await asyncio.wait_for(queue.drain(), timeout=5.0)
            return payload, info

        payload, info = asyncio.run(scenario())
        assert payload == "fast"
        assert info.size == 1

    def test_backlog_beyond_max_batch_runs_as_consecutive_batches(self):
        sizes = []

        async def scenario():
            async def dispatch(key, jobs):
                sizes.append(len(jobs))
                return ["ok"] * len(jobs)

            queue = BatchQueue(dispatch)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        queue.submit(("k",), _queue_job(f"j{index}"))
                        for index in range(MAX_BATCH + 1)
                    )
                ),
                timeout=5.0,
            )
            await asyncio.wait_for(queue.drain(), timeout=5.0)
            return results

        results = asyncio.run(scenario())
        assert MAX_BATCH == 32
        assert sizes == [MAX_BATCH, 1]
        assert [info.size for _, info in results] == [MAX_BATCH] * MAX_BATCH + [1]

    def test_distinct_keys_never_coalesce(self):
        batches = []

        async def scenario():
            async def dispatch(key, jobs):
                batches.append((key, [job.request_id for job in jobs]))
                return ["ok"] * len(jobs)

            queue = BatchQueue(dispatch)
            await asyncio.gather(
                queue.submit(("k1",), _queue_job("a")),
                queue.submit(("k2",), _queue_job("b")),
            )
            await asyncio.wait_for(queue.drain(), timeout=5.0)

        asyncio.run(scenario())
        assert sorted(batches) == [(("k1",), ["a"]), (("k2",), ["b"])]

    def test_dispatch_error_reaches_every_member(self):
        async def scenario():
            async def dispatch(key, jobs):
                raise RuntimeError("kernel exploded")

            queue = BatchQueue(dispatch)
            return await asyncio.gather(
                queue.submit(("k",), _queue_job("a")),
                queue.submit(("k",), _queue_job("b")),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert len(results) == 2
        assert all(
            isinstance(error, RuntimeError)
            and "kernel exploded" in str(error)
            for error in results
        )

    def test_error_does_not_strand_the_next_batch(self):
        """A failed batch still hands its key to the jobs queued behind it."""
        batches = []

        async def scenario():
            release = asyncio.Event()
            dispatch, entered = _held_dispatch(
                batches, release, fail_first=True
            )
            queue = BatchQueue(dispatch)
            first = asyncio.ensure_future(queue.submit(("k",), _queue_job("a")))
            await asyncio.wait_for(entered.wait(), timeout=5.0)
            second = asyncio.ensure_future(
                queue.submit(("k",), _queue_job("b"))
            )
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, second, return_exceptions=True),
                timeout=5.0,
            )
            await asyncio.wait_for(queue.drain(), timeout=5.0)
            return results

        failed, (payload, info) = asyncio.run(scenario())
        assert isinstance(failed, RuntimeError)
        assert batches == [(("k",), ["a"]), (("k",), ["b"])]
        assert payload == "result:b"
        assert info.size == 1

    def test_wrong_result_cardinality_is_an_error(self):
        async def scenario():
            async def dispatch(key, jobs):
                return ["only one"]

            queue = BatchQueue(dispatch)
            return await asyncio.gather(
                queue.submit(("k",), _queue_job("a")),
                queue.submit(("k",), _queue_job("b")),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert all(
            isinstance(error, InvalidParameterError) for error in results
        )

    def test_drain_flushes_pending_batches(self):
        """Drain waits for a job queued behind a running batch."""
        batches = []

        async def scenario():
            release = asyncio.Event()
            dispatch, entered = _held_dispatch(batches, release)
            queue = BatchQueue(dispatch)
            first = asyncio.ensure_future(queue.submit(("k",), _queue_job("a")))
            await asyncio.wait_for(entered.wait(), timeout=5.0)
            queued = asyncio.ensure_future(
                queue.submit(("k",), _queue_job("b"))
            )
            await asyncio.sleep(0)  # admitted behind the running batch
            drained = asyncio.ensure_future(queue.drain())
            await asyncio.sleep(0)
            assert not drained.done()
            release.set()
            await asyncio.wait_for(drained, timeout=5.0)
            assert first.done() and queued.done()
            return queued.result()

        payload, info = asyncio.run(scenario())
        assert payload == "result:b"
        assert batches == [(("k",), ["a"]), (("k",), ["b"])]
        assert info.waited_ms >= 0.0
