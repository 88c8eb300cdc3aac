"""Canonical identity properties: rename/dtype invariance, corpus stability.

The `core/identity.py` promotion (out of the scenario layer) is only
safe if the digests are bit-for-bit unchanged — the regression corpus under
``tests/corpus/`` embeds them in file names and documents.  These tests pin
down the contract:

* hypothesis properties — ``canonical_hash()`` / ``instance_digest`` are
  invariant under stage/processor/instance renaming and under dtype round
  trips (int lists, ``float64`` arrays, ``float32`` arrays with exactly
  representable values, and the serialisation dict round trip);
* the digest-assembly optimisation (concatenating the cached per-object
  payloads) is byte-identical to hashing the canonical document directly;
* every corpus fixture's stored digest matches the promoted implementation,
  and :mod:`repro.scenarios` re-exports the very same functions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import PipelineApplication
from repro.core.identity import (
    canonical_document_payload,
    canonical_instance_document,
    instance_digest,
)
from repro.core.platform import Platform
from repro.core.serialization import (
    application_from_dict,
    application_to_dict,
    platform_from_dict,
    platform_to_dict,
)
import repro.scenarios
from repro.scenarios.corpus import load_corpus
from repro.solvers.base import SolveRequest

CORPUS_DIR = Path(__file__).parent / "corpus"

#: integer-valued numbers are exactly representable in float32 and float64,
#: so dtype round trips must leave the canonical digests untouched
_INT = st.integers(0, 40)
_POS_INT = st.integers(1, 20)


@st.composite
def _instance_numbers(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    works = draw(st.lists(_INT, min_size=n, max_size=n))
    comms = draw(st.lists(_INT, min_size=n + 1, max_size=n + 1))
    speeds = draw(st.lists(_POS_INT, min_size=p, max_size=p))
    bandwidth = draw(_POS_INT)
    return works, comms, speeds, bandwidth


class TestRenameInvariance:
    @settings(max_examples=30, deadline=None)
    @given(numbers=_instance_numbers(), name_a=st.text(max_size=8), name_b=st.text(max_size=8))
    def test_names_never_reach_any_digest(self, numbers, name_a, name_b):
        works, comms, speeds, bandwidth = numbers
        app_a = PipelineApplication(works, comms, name=name_a or "a")
        app_b = PipelineApplication(works, comms, name=name_b or "b")
        plat_a = Platform(speeds, bandwidth, name=name_a or "a")
        plat_b = Platform(speeds, bandwidth, name=name_b or "b")
        assert app_a.canonical_hash() == app_b.canonical_hash()
        assert plat_a.canonical_hash() == plat_b.canonical_hash()
        assert instance_digest(app_a, plat_a) == instance_digest(app_b, plat_b)

    def test_renaming_after_construction_never_changes_the_digest(self):
        app = PipelineApplication([3, 1], [1, 1, 1], name="before")
        platform = Platform([2, 1], 4.0, name="before")
        digest = instance_digest(app, platform)
        app.name = "after"
        platform.name = "after"
        assert instance_digest(app, platform) == digest


class TestDtypeRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(numbers=_instance_numbers())
    def test_construction_dtype_is_invisible(self, numbers):
        works, comms, speeds, bandwidth = numbers
        variants = [
            (works, comms, speeds, float(bandwidth)),
            (
                np.asarray(works, dtype=np.float64),
                np.asarray(comms, dtype=np.float64),
                np.asarray(speeds, dtype=np.float64),
                bandwidth,
            ),
            (
                np.asarray(works, dtype=np.float32),
                np.asarray(comms, dtype=np.float32),
                np.asarray(speeds, dtype=np.int64),
                np.float32(bandwidth),
            ),
        ]
        digests = {
            instance_digest(
                PipelineApplication(w, c), Platform(s, float(b))
            )
            for w, c, s, b in variants
        }
        assert len(digests) == 1

    @settings(max_examples=30, deadline=None)
    @given(numbers=_instance_numbers())
    def test_serialisation_round_trip_preserves_hashes(self, numbers):
        works, comms, speeds, bandwidth = numbers
        app = PipelineApplication(works, comms, name="original")
        platform = Platform(speeds, float(bandwidth), name="original")
        app_rt = application_from_dict(application_to_dict(app))
        plat_rt = platform_from_dict(platform_to_dict(platform))
        assert app_rt.canonical_hash() == app.canonical_hash()
        assert plat_rt.canonical_hash() == platform.canonical_hash()
        assert instance_digest(app_rt, plat_rt) == instance_digest(app, platform)


class TestDigestAssembly:
    @settings(max_examples=30, deadline=None)
    @given(numbers=_instance_numbers())
    def test_cached_payload_concat_matches_document_hash(self, numbers):
        """The per-object payload assembly equals hashing the full document."""
        works, comms, speeds, bandwidth = numbers
        app = PipelineApplication(works, comms)
        platform = Platform(speeds, float(bandwidth))
        document = canonical_instance_document(app, platform)
        direct = hashlib.sha256(canonical_document_payload(document)).hexdigest()
        assert instance_digest(app, platform) == direct
        # and through the stdlib alone, guarding the encoding convention
        stdlib = hashlib.sha256(
            json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert direct == stdlib

    def test_value_changes_always_change_the_digest(self):
        app = PipelineApplication([3, 1], [1, 1, 1])
        platform = Platform([2, 1], 4.0)
        base = instance_digest(app, platform)
        assert instance_digest(
            PipelineApplication([3, 2], [1, 1, 1]), platform
        ) != base
        assert instance_digest(app, Platform([2, 1], 5.0)) != base


class TestCorpusStability:
    def test_scenarios_package_reexports_the_core_functions(self):
        assert repro.scenarios.instance_digest is instance_digest
        assert (
            repro.scenarios.canonical_instance_document
            is canonical_instance_document
        )

    def test_every_fixture_digest_survives_the_promotion(self):
        entries = load_corpus(CORPUS_DIR)
        assert len(entries) == 11, "corpus fixtures changed; update this count"
        for entry in entries:
            stored = json.loads(entry.path.read_text(encoding="utf-8"))["digest"]
            recomputed = instance_digest(entry.application, entry.platform)
            assert recomputed == stored == entry.digest
            assert entry.path.name.split("-")[-1] == f"{stored[:12]}.json"


class TestSolveRequestHash:
    def test_equal_requests_share_one_digest(self):
        a = SolveRequest.fixed_period(4.0)
        b = SolveRequest.fixed_period(4.0)
        assert a.canonical_hash() == b.canonical_hash()
        # cached on the instance after the first call
        assert a.canonical_hash() is a.canonical_hash()

    def test_objective_and_bounds_reach_the_digest(self):
        digests = {
            SolveRequest.fixed_period(4.0).canonical_hash(),
            SolveRequest.fixed_period(5.0).canonical_hash(),
            SolveRequest.fixed_latency(4.0).canonical_hash(),
            SolveRequest.min_period().canonical_hash(),
            SolveRequest.min_latency().canonical_hash(),
        }
        assert len(digests) == 5
