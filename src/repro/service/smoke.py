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
3. sends SIGTERM and verifies the daemon drains and exits cleanly.

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


def main() -> int:
    from .client import ServiceClient
    from .cluster import connect

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        manifest = build_collection(os.path.join(tmp, "collection"))
        catalog_path = os.path.join(tmp, "catalog.db")
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
        try:
            port = None
            deadline = time.monotonic() + 60.0
            assert process.stdout is not None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    port = int(line.split("listening on")[1]
                               .split()[0].rsplit(":", 1)[1])
                    break
            if port is None:
                print("FAIL: daemon never announced its port")
                return 1

            euclid_expected, dust_expected, prq_expected = (
                expected_answers(manifest)
            )
            with ServiceClient("127.0.0.1", port) as client:
                assert client.ping()
                euclid = client.query("knn", "smoke", {"k": 5}, "euclidean")
                dust = client.query("knn", "smoke", {"k": 5}, "dust")
                prq = client.query(
                    "prob_range", "smoke", {"epsilon": 4.0, "tau": 0.4},
                    "proud",
                )
            with connect(f"tcp://127.0.0.1:{port}/smoke") as session:
                dust_session, prq_session = session_answers(session)
            if euclid.indices != euclid_expected.indices.tolist():
                print("FAIL: Euclidean kNN differs from in-process result")
                return 1
            if dust.indices != dust_expected.indices.tolist():
                print("FAIL: DUST kNN differs from in-process result")
                return 1
            if prq.matches != prq_expected.sets():
                print("FAIL: PROUD prob-range differs from in-process "
                      "result")
                return 1
            if not (
                np.array_equal(dust_session.indices, dust_expected.indices)
                and np.allclose(
                    dust_session.scores, dust_expected.scores,
                    rtol=0.0, atol=1e-9,
                )
            ):
                print("FAIL: DUST kNN through connect() differs from "
                      "in-process result")
                return 1
            if prq_session.sets() != prq_expected.sets():
                print("FAIL: PROUD prob-range through connect() differs "
                      "from in-process result")
                return 1

            process.send_signal(signal.SIGTERM)
            try:
                output, _ = process.communicate(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                print("FAIL: daemon did not drain within 30 s of SIGTERM")
                return 1
            if process.returncode != 0:
                print(
                    f"FAIL: daemon exited with {process.returncode}; "
                    f"output:\n{output}"
                )
                return 1
            if "drained and stopped" not in output:
                print(
                    f"FAIL: no graceful-shutdown message; output:\n{output}"
                )
                return 1
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    print("service smoke ok: kNN + prob-range parity (raw verb and "
          "connect() session), graceful shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
