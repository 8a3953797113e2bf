"""Online auto-tuner tests (ISSUE 8).

The contract under test (:mod:`repro.tuning`):

- decisions are deterministic — pure functions of the probe data, the
  declared stream shape and the seed, never of wall-clock;
- every tuned knob is semantics-free, so ``tune="auto"`` is bit-exact
  with an untuned run (the differential harness sweeps this too);
- pinned knobs are never overridden, and ``sync_interval`` is only
  touched in the staleness-free regime;
- the decision is recorded in ``result.artifacts.tuning`` and the
  partitioner's own knobs are restored after the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HDRF
from repro.core import ParallelTwoPhase, TwoPhasePartitioner
from repro.errors import ConfigurationError, PartitioningError
from repro.graph.generators import rmat_graph
from repro.streaming import InMemoryEdgeStream
from repro.streaming.stream import auto_chunk_size
from repro.tuning import (
    PROBE_SPAN_EDGES,
    TuningDecision,
    probe_features,
    tune_run,
)


def _identical(a, b):
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.state.sizes, b.state.sizes)
    np.testing.assert_array_equal(a.state.replicas, b.state.replicas)
    assert a.cost == b.cost


class TestProbe:
    def test_features_deterministic(self, powerlaw_graph):
        a = probe_features(InMemoryEdgeStream(powerlaw_graph), 8)
        b = probe_features(InMemoryEdgeStream(powerlaw_graph), 8)
        assert a == b

    def test_probe_is_bounded(self, powerlaw_graph):
        feats = probe_features(InMemoryEdgeStream(powerlaw_graph), 8)
        assert 0 < feats["probe_edges"] <= PROBE_SPAN_EDGES
        assert 0.0 <= feats["dup_rate"] < 1.0
        assert 0.0 < feats["hub_rate"] <= 1.0

    def test_decision_deterministic(self, powerlaw_graph):
        p = TwoPhasePartitioner()
        a = tune_run(p, InMemoryEdgeStream(powerlaw_graph), 8, None)
        b = tune_run(p, InMemoryEdgeStream(powerlaw_graph), 8, None)
        assert isinstance(a, TuningDecision)
        assert a == b

    def test_summary_is_json_friendly(self, powerlaw_graph):
        import json

        d = tune_run(
            TwoPhasePartitioner(), InMemoryEdgeStream(powerlaw_graph), 8, None
        )
        json.dumps(d.summary())  # must not raise


class TestKnobGating:
    def test_pinned_backend_is_kept(self, powerlaw_graph):
        p = TwoPhasePartitioner(backend="python")
        d = tune_run(p, InMemoryEdgeStream(powerlaw_graph), 8, None)
        assert d.backend is None
        result = p.partition(powerlaw_graph, 8, tune="auto")
        assert result.extras["backend"] == "python"

    def test_pinned_chunk_size_is_kept(self, powerlaw_graph):
        p = TwoPhasePartitioner()
        d = tune_run(p, InMemoryEdgeStream(powerlaw_graph), 8, 12345)
        assert d.chunk_size is None

    def test_auto_chunk_request_is_tuned(self, powerlaw_graph):
        p = TwoPhasePartitioner()
        for request in (None, "auto"):
            d = tune_run(p, InMemoryEdgeStream(powerlaw_graph), 8, request)
            assert isinstance(d.chunk_size, int) and d.chunk_size > 0

    def test_hub_heavy_stream_tunes_to_auto_chunk_size(self):
        """Endpoint duplication is recorded but does not shrink the chunk:
        a duplication-dense hub-heavy R-MAT tunes to the plain
        ``auto_chunk_size(|V|, k)``."""
        graph = rmat_graph(12, edge_factor=16, seed=3, a=0.7, b=0.12, c=0.12)
        stream = InMemoryEdgeStream(graph)
        d = tune_run(TwoPhasePartitioner(), stream, 8, None)
        assert d.features["dup_rate"] > 0.5
        assert d.chunk_size == auto_chunk_size(stream.n_vertices, 8)

    def test_sync_interval_only_when_semantics_free(self, powerlaw_graph):
        stream = InMemoryEdgeStream(powerlaw_graph)
        # Staleness possible: multi-worker, non-serial runner -> untouched.
        stale = ParallelTwoPhase(n_workers=3, runner="simulated")
        assert tune_run(stale, stream, 8, None).sync_interval is None
        # Lone worker or serial runner: never stale -> tunable.
        lone = ParallelTwoPhase(n_workers=1, runner="simulated")
        d = tune_run(lone, stream, 8, None)
        assert d.sync_interval is not None
        assert d.sync_interval >= lone.sync_interval
        serial = ParallelTwoPhase(n_workers=4, runner="serial")
        assert tune_run(serial, stream, 8, None).sync_interval is not None

    def test_sequential_partitioner_has_no_sync_knob(self, powerlaw_graph):
        d = tune_run(
            TwoPhasePartitioner(), InMemoryEdgeStream(powerlaw_graph), 8, None
        )
        assert d.sync_interval is None


class TestTunedRuns:
    @pytest.mark.parametrize("mode", ["linear", "hdrf"])
    def test_two_phase_bit_exact(self, powerlaw_graph, mode):
        untuned = TwoPhasePartitioner(mode=mode).partition(powerlaw_graph, 8)
        tuned = TwoPhasePartitioner(mode=mode).partition(
            powerlaw_graph, 8, tune="auto"
        )
        _identical(untuned, tuned)

    @pytest.mark.parametrize(
        "n_workers,runner", [(1, "serial"), (1, "simulated"), (3, "simulated")]
    )
    def test_parallel_bit_exact(self, powerlaw_graph, n_workers, runner):
        untuned = ParallelTwoPhase(
            n_workers=n_workers, runner=runner
        ).partition(powerlaw_graph, 8)
        tuned = ParallelTwoPhase(
            n_workers=n_workers, runner=runner, tune="auto"
        ).partition(powerlaw_graph, 8)
        _identical(untuned, tuned)

    def test_hdrf_baseline_bit_exact(self, powerlaw_graph):
        untuned = HDRF().partition(powerlaw_graph, 8)
        tuned = HDRF().partition(powerlaw_graph, 8, tune="auto")
        _identical(untuned, tuned)

    def test_decision_recorded_in_artifacts(self, powerlaw_graph):
        result = TwoPhasePartitioner().partition(
            powerlaw_graph, 8, tune="auto"
        )
        d = result.artifacts.tuning
        assert isinstance(d, TuningDecision)
        assert result.extras["backend"] == (d.backend or "numpy")

    def test_untuned_runs_carry_no_artifacts(self, powerlaw_graph):
        result = TwoPhasePartitioner().partition(powerlaw_graph, 8)
        assert result.artifacts is None

    def test_keep_state_artifacts_gain_tuning(self, powerlaw_graph):
        result = TwoPhasePartitioner(keep_state=True).partition(
            powerlaw_graph, 8, tune="auto"
        )
        assert result.artifacts.clustering is not None
        assert result.artifacts.tuning is not None

    def test_knobs_restored_after_the_run(self, powerlaw_graph):
        p = ParallelTwoPhase(n_workers=1, runner="serial", sync_interval=777)
        p.partition(powerlaw_graph, 8, tune="auto")
        assert p.backend is None
        assert p.sync_interval == 777

    def test_instance_level_tune_applies_every_run(self, powerlaw_graph):
        p = TwoPhasePartitioner(tune="auto")
        a = p.partition(powerlaw_graph, 8)
        b = p.partition(powerlaw_graph, 8)
        assert a.artifacts.tuning == b.artifacts.tuning

    def test_repeated_tuned_runs_identical(self, powerlaw_graph):
        p = TwoPhasePartitioner()
        a = p.partition(powerlaw_graph, 8, tune="auto")
        b = p.partition(powerlaw_graph, 8, tune="auto")
        _identical(a, b)
        assert a.artifacts.tuning == b.artifacts.tuning


class TestValidation:
    def test_partition_rejects_unknown_tune(self, powerlaw_graph):
        with pytest.raises(PartitioningError, match="tune"):
            TwoPhasePartitioner().partition(
                powerlaw_graph, 8, tune="aggressive"
            )

    @pytest.mark.parametrize("cls", [TwoPhasePartitioner, ParallelTwoPhase])
    def test_ctor_rejects_unknown_tune(self, cls):
        with pytest.raises(ConfigurationError, match="tune"):
            cls(tune="fast")


class TestCli:
    def test_tune_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.graph.formats import write_binary_edge_list
        from repro.graph.generators import rmat_graph

        graph = rmat_graph(7, edge_factor=4, seed=1)
        path = tmp_path / "edges.bin"
        write_binary_edge_list(graph, str(path))
        rc = cli_main(
            ["partition", "--input", str(path), "--k", "4", "--tune", "auto"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto-tuned" in out
