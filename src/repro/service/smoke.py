"""End-to-end service smoke check: ``python -m repro.service.smoke``.

CI's serving-tier gate.  Builds a temp collection, registers it in a
fresh catalog, starts a real daemon subprocess through ``python -m
repro.cli serve``, then:

1. answers kNN (Euclidean + DUST) and prob-range (PROUD) through the raw
   :class:`~repro.service.client.ServiceClient` verb, and DUST kNN and
   PROUD prob-range again through the session users call,
   ``repro.api.connect("tcp://127.0.0.1:PORT/smoke")``;
2. asserts the responses are **identical** to the in-process
   :class:`~repro.queries.session.SimilaritySession` answers over the
   same manifest (kNN scores within 1e-9 on the session leg);
3. sends SIGTERM and verifies the daemon drains and exits cleanly;
4. starts two more daemons over the same manifest, splits the
   collection between them with a catalog shard map, and checks that
   DUST kNN and PROUD prob-range through
   ``repro.api.connect(catalog, collection="smoke")`` — the scatter
   across real processes — match the in-process answers too, before
   both daemons drain on SIGTERM.

Exits non-zero (with a message) on any failure; prints ``service smoke
ok`` on success.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

import numpy as np

N_SERIES = 60
LENGTH = 32
SEED = 2012


def build_collection(directory: str) -> str:
    """A small pdf-kind uncertain collection saved under ``directory``."""
    from ..core import (
        ErrorModel,
        TimeSeries,
        UncertainTimeSeries,
        make_rng,
        save_collection,
    )
    from ..distributions import NormalError

    rng = make_rng(SEED)
    t = np.linspace(0.0, 2.0 * np.pi, LENGTH)
    model = ErrorModel.constant(NormalError(0.3), LENGTH)
    items = []
    for index in range(N_SERIES):
        phase = 2.0 * np.pi * (index % 4) / 4.0
        values = np.sin(t + phase) + 0.1 * rng.normal(size=LENGTH)
        exact = TimeSeries(values, name=f"s{index}")
        observed = values + 0.3 * rng.normal(size=LENGTH)
        items.append(
            UncertainTimeSeries(observed, model, name=exact.name)
        )
    return save_collection(items, directory)


def expected_answers(manifest_path: str):
    """The library-path answers the daemon must reproduce exactly."""
    from ..core import load_collection
    from ..queries import EuclideanTechnique, SimilaritySession

    with SimilaritySession(load_collection(manifest_path)) as session:
        euclid = session.queries().using(EuclideanTechnique()).knn(5)
        return euclid, *session_answers(session)


def session_answers(session):
    """DUST kNN and PROUD prob-range through ``session``'s fluent chain."""
    from ..queries import DustTechnique, ProudTechnique

    dust = session.queries().using(DustTechnique()).knn(5)
    prq = session.queries().using(ProudTechnique()).prob_range(4.0, 0.4)
    return dust, prq


def session_mismatch(answers, expected, where: str) -> Optional[str]:
    """Why ``answers`` (DUST kNN, PROUD prob-range) differ from the
    in-process ``expected`` ones, or ``None``."""
    (dust, prq), (dust_expected, prq_expected) = answers, expected
    if not (
        np.array_equal(dust.indices, dust_expected.indices)
        and np.allclose(
            dust.scores, dust_expected.scores, rtol=0.0, atol=1e-9
        )
    ):
        return f"DUST kNN through {where} differs from in-process result"
    if prq.sets() != prq_expected.sets():
        return (
            f"PROUD prob-range through {where} differs from in-process "
            f"result"
        )
    return None


def start_daemon(
    catalog_path: str, manifest: str, started: List[subprocess.Popen]
) -> Optional[int]:
    """``python -m repro.cli serve`` over ``manifest``; appends the
    process to ``started`` and returns its port (``None`` if it never
    announced one)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--catalog",
            catalog_path,
            "--port",
            "0",
            "--register",
            f"smoke={manifest}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    started.append(process)
    deadline = time.monotonic() + 60.0
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            return int(
                line.split("listening on")[1].split()[0].rsplit(":", 1)[1]
            )
    return None


def drain(process: subprocess.Popen) -> Optional[str]:
    """SIGTERM ``process``; why it did not drain cleanly, or ``None``."""
    process.send_signal(signal.SIGTERM)
    try:
        output, _ = process.communicate(timeout=30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        return "daemon did not drain within 30 s of SIGTERM"
    if process.returncode != 0:
        return f"daemon exited with {process.returncode}; output:\n{output}"
    if "drained and stopped" not in output:
        return f"no graceful-shutdown message; output:\n{output}"
    return None


def daemon_leg(tmp: str, manifest: str, expected, started) -> Optional[str]:
    """One daemon: the raw verb and a ``tcp://`` session, then drain."""
    from .client import ServiceClient
    from .cluster import connect

    euclid_expected, dust_expected, prq_expected = expected
    port = start_daemon(os.path.join(tmp, "catalog.db"), manifest, started)
    if port is None:
        return "daemon never announced its port"
    with ServiceClient("127.0.0.1", port) as client:
        assert client.ping()
        euclid = client.query("knn", "smoke", {"k": 5}, "euclidean")
        dust = client.query("knn", "smoke", {"k": 5}, "dust")
        prq = client.query(
            "prob_range", "smoke", {"epsilon": 4.0, "tau": 0.4}, "proud",
        )
    with connect(f"tcp://127.0.0.1:{port}/smoke") as session:
        answers = session_answers(session)
    if euclid.indices != euclid_expected.indices.tolist():
        return "Euclidean kNN differs from in-process result"
    if dust.indices != dust_expected.indices.tolist():
        return "DUST kNN differs from in-process result"
    if prq.matches != prq_expected.sets():
        return "PROUD prob-range differs from in-process result"
    return (
        session_mismatch(answers, expected[1:], "connect()")
        or drain(started[-1])
    )


def cluster_leg(tmp: str, manifest: str, expected, started) -> Optional[str]:
    """Two shard daemons over one manifest, scattered through a catalog
    shard map, then both drained."""
    from .catalog import ServiceCatalog
    from .cluster import connect

    ports = []
    for index in range(2):
        port = start_daemon(
            os.path.join(tmp, f"shard{index}.db"), manifest, started
        )
        if port is None:
            return f"shard daemon {index} never announced its port"
        ports.append(port)
    catalog_path = os.path.join(tmp, "cluster.db")
    half = N_SERIES // 2
    with ServiceCatalog(catalog_path) as catalog:
        catalog.register("smoke", manifest)
        catalog.set_shard_map(
            "smoke",
            [
                ("127.0.0.1", ports[0], 0, half),
                ("127.0.0.1", ports[1], half, N_SERIES),
            ],
        )
    with connect(catalog_path, collection="smoke") as session:
        answers = session_answers(session)
    failure = session_mismatch(
        answers, expected[1:], "a two-shard cluster"
    )
    for process in started[-2:]:
        failure = failure or drain(process)
    return failure


def main() -> int:
    started: List[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        manifest = build_collection(os.path.join(tmp, "collection"))
        expected = expected_answers(manifest)
        try:
            failure = daemon_leg(
                tmp, manifest, expected, started
            ) or cluster_leg(tmp, manifest, expected, started)
        finally:
            for process in started:
                if process.poll() is None:
                    process.kill()
                    process.wait()
    if failure is not None:
        print(f"FAIL: {failure}")
        return 1
    print("service smoke ok: kNN + prob-range parity (raw verb, "
          "connect() session and two-shard cluster), graceful shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
