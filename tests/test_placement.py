"""Tests for load-aware replica placement (PR 7 satellite).

``pack_assignment`` replaces a blind round-robin placement with greedy
LPT bin-packing driven by measured straggler skew. The contract: strictly
better balance on skewed loads (lower gini, lower makespan, no worse
efficiency) and *exact* round-robin degradation on uniform loads (so
existing trajectories and reports are unchanged where no skew exists).
The distributed flow's report wires the packer to the telemetry it
gathers per schedule slot.
"""

import numpy as np
import pytest

from repro.gpusim import gini, pack_assignment
from repro.graphs import attach_classification_task, sbm_graph
from repro.models import GNNConfig, MaxKGNN
from repro.training import DistributedFlow, Engine, PartitionedFlow


class TestPackAssignment:
    def test_beats_round_robin_on_skewed_loads(self):
        loads = np.array([9000.0, 1500, 1400, 1300, 1200, 1100])
        replicas = 2
        packed = pack_assignment(loads, replicas)
        robin = np.arange(loads.size) % replicas
        packed_bins = np.bincount(packed, weights=loads, minlength=replicas)
        robin_bins = np.bincount(robin, weights=loads, minlength=replicas)
        assert gini(packed_bins) < gini(robin_bins)
        assert packed_bins.max() < robin_bins.max()

    def test_uniform_loads_degrade_to_round_robin_exactly(self):
        for n_parts, replicas in ((6, 2), (8, 4), (5, 3), (4, 4)):
            loads = np.full(n_parts, 7.0)
            packed = pack_assignment(loads, replicas)
            assert np.array_equal(packed, np.arange(n_parts) % replicas), (
                n_parts, replicas,
            )

    def test_every_replica_receives_work(self):
        packed = pack_assignment([5.0, 4.0, 3.0, 2.0], 3)
        assert set(packed.tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("replicas", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_is_lpt_within_its_bound(self, seed, replicas):
        # Small integer loads, so equal loads (the tie rules) are common.
        loads = np.random.default_rng(seed).integers(0, 6, 4 * replicas)
        bins = [0.0] * replicas
        expected = [0] * loads.size
        for part in sorted(range(loads.size), key=lambda p: -loads[p]):
            replica = bins.index(min(bins))
            expected[part] = replica
            bins[replica] += loads[part]
        packed = pack_assignment(loads.astype(float), replicas)
        assert packed.tolist() == expected
        # Graham's LPT bound against the trivial lower bound on the optimum.
        optimum_floor = max(loads.sum() / replicas, loads.max())
        assert max(bins) <= 4 / 3 * optimum_floor

    def test_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            pack_assignment(np.ones((2, 2)), 1)
        with pytest.raises(ValueError, match="finite"):
            pack_assignment([1.0, np.nan], 1)
        with pytest.raises(ValueError, match="finite"):
            pack_assignment([1.0, -2.0], 1)
        with pytest.raises(ValueError, match="replicas"):
            pack_assignment([1.0, 2.0], 0)
        with pytest.raises(ValueError, match="more replicas"):
            pack_assignment([1.0, 2.0], 3)


class TestFlowPlacementReport:
    def _report(self, epochs):
        graph = sbm_graph(180, 4, 8.0, intra_fraction=0.7,
                          seed=9).to_undirected()
        attach_classification_task(graph, n_features=8, signal=0.5, seed=9)
        flow = DistributedFlow(
            PartitionedFlow(n_parts=4, boundary_fraction=0.2, seed=7),
            replicas=2,
        )
        config = GNNConfig(
            model_type="sage", in_features=8, hidden=16, out_features=4,
            n_layers=2, nonlinearity="maxk", k=4, dropout=0.1,
        )
        model = MaxKGNN(graph, config, seed=0)
        engine = Engine(model, graph, flow, lr=0.01)
        for epoch in range(epochs):
            engine.train_epoch(epoch=epoch)
        return flow, flow.report(graph, hidden=16, n_layers=2,
                                 n_params=model.n_parameters())

    def test_placement_block_uses_measured_slot_loads(self):
        flow, report = self._report(epochs=1)
        placement = report["placement"]
        assert placement["strategy"] == "bin-packed"
        # The engine attributes each step to its schedule slot, so after
        # one full epoch every partition has a measured load.
        assert flow.measured_slot_loads(4) is not None
        assert placement["load_source"] == "measured"
        assert len(placement["assignment"]) == 4
        assert set(placement["assignment"]) <= {0, 1}
        # Packing never loses to round-robin on its own objective.
        assert placement["packed_gini"] <= placement["round_robin_gini"] + 1e-9
        assert (placement["packed_makespan"]
                <= placement["round_robin_makespan"] + 1e-9)

    def test_placement_falls_back_to_edge_proxy_untrained(self):
        flow, report = self._report(epochs=0)
        placement = report["placement"]
        assert flow.measured_slot_loads(4) is None
        assert placement["load_source"] == "edges"
        assert placement["packed_gini"] <= placement["round_robin_gini"] + 1e-9
