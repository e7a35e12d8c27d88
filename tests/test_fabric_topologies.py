"""Tests for the fabric topologies: star, tree, grid, stream accounting, and partitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CoordinatorConfig, solve
from repro.core.accounting import BitCostModel
from repro.core.exceptions import CommunicationError
from repro.fabric.payload import Scalar, Vector
from repro.fabric.topology import (
    GridTopology,
    StarTopology,
    StreamTopology,
    TreeTopology,
    partition_indices,
)
from repro.workloads import random_feasible_lp

COST = BitCostModel()


class TestStarTopology:
    def test_exchange_is_one_round_with_split_directions(self):
        star = StarTopology(3)
        star.begin_round()
        star.broadcast_down(Scalar(1.0))
        star.gather_up([Scalar(float(i)) for i in range(3)], combinable=True)
        star.end_round()
        assert star.rounds == 1
        per_message = COST.coefficients(1)
        assert star.ledger.total("bits_down") == 3 * per_message
        assert star.ledger.total("bits_up") == 3 * per_message
        # The hub both sends and receives 3 messages: its load dominates.
        assert star.max_load_bits == 3 * per_message

    def test_messages_outside_round_rejected(self):
        star = StarTopology(2)
        with pytest.raises(CommunicationError):
            star.send_down(0, Scalar(1.0))

    def test_unknown_site_rejected(self):
        star = StarTopology(2)
        star.begin_round()
        with pytest.raises(CommunicationError):
            star.send_up(5, Scalar(1.0))

    def test_double_begin_rejected(self):
        star = StarTopology(2)
        star.begin_round()
        with pytest.raises(CommunicationError):
            star.begin_round()

    def test_end_without_begin_rejected(self):
        with pytest.raises(CommunicationError):
            StarTopology(2).end_round()

    def test_round_and_bit_accounting(self):
        star = StarTopology(3)
        star.begin_round()
        star.send_down(0, Vector(np.zeros(4)))
        star.send_up(0, Scalar(1.0))
        star.end_round()
        assert star.rounds == 1
        assert star.total_bits == COST.coefficients(4) + COST.coefficients(1)
        assert star.max_message_bits == COST.coefficients(4)
        assert star.ledger.total("bits_down") == COST.coefficients(4)
        assert star.ledger.total("bits_up") == COST.coefficients(1)

    def test_broadcast_counts_per_site(self):
        star = StarTopology(4)
        star.begin_round()
        star.broadcast_down(Vector(np.zeros(2)))
        star.end_round()
        assert star.total_bits == 4 * COST.coefficients(2)

    def test_message_after_end_round_rejected(self):
        star = StarTopology(2)
        star.begin_round()
        star.end_round()
        with pytest.raises(CommunicationError):
            star.send_up(0, Scalar(1.0))

    def test_message_to_unknown_site_rejected(self):
        star = StarTopology(2)
        star.begin_round()
        with pytest.raises(CommunicationError):
            star.send_down(5, Scalar(1.0))


class TestTreeTopology:
    def test_rounds_scale_with_depth(self):
        k, fanout = 8, 2
        star, tree = StarTopology(k), TreeTopology(k, fanout=fanout)
        for topo in (star, tree):
            topo.begin_round()
            topo.broadcast_down(Scalar(1.0))
            topo.gather_up([Scalar(1.0)] * k, combinable=True)
            topo.end_round()
        assert star.rounds == 1
        assert tree.rounds > star.rounds  # one round per level, both directions

    def test_combinable_gather_shrinks_hub_load(self):
        k = 16
        payloads = [Vector(np.zeros(4)) for _ in range(k)]
        star, tree = StarTopology(k), TreeTopology(k, fanout=2)
        star.begin_round()
        star.gather_up(payloads, combinable=True)
        star.end_round()
        tree.begin_round()
        tree.gather_up([Vector(np.zeros(4)) for _ in range(k)], combinable=True)
        tree.end_round()
        per_payload = COST.coefficients(4)
        assert star.max_load_bits == k * per_payload
        # The hub receives one combined message; interior nodes at most
        # fanout of them.
        assert tree.max_load_bits <= 2 * per_payload
        assert tree.max_load_bits < star.max_load_bits

    def test_non_combinable_gather_forwards_subtrees(self):
        k = 4
        tree = TreeTopology(k, fanout=2)
        tree.begin_round()
        tree.gather_up([Scalar(1.0)] * k, combinable=False)
        tree.end_round()
        # Every site's payload crosses one edge per level on its path, so the
        # total exceeds the star's k messages.
        assert tree.total_bits > k * COST.coefficients(1)

    def test_broadcast_charges_each_edge_once(self):
        k = 7
        tree = TreeTopology(k, fanout=2)
        tree.begin_round()
        tree.broadcast_down(Scalar(1.0))
        tree.end_round()
        # k - 1 tree edges plus the hub -> root edge.
        assert tree.total_bits == k * COST.coefficients(1)

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            TreeTopology(4, fanout=1)


class TestGridTopology:
    def test_load_is_max_sent_or_received(self):
        grid = GridTopology(3)
        grid.begin_round()
        grid.send(0, 1, Vector(np.zeros(2)))
        grid.send(2, 1, Vector(np.zeros(3)))
        grid.end_round()
        assert grid.max_load_bits == COST.coefficients(5)  # machine 1 received
        assert grid.total_bits == COST.coefficients(5)

    def test_load_counts_the_heaviest_sender(self):
        grid = GridTopology(3)
        grid.begin_round()
        grid.send(0, 1, Vector(np.zeros(2)))
        grid.send(0, 2, Vector(np.zeros(3)))
        grid.end_round()
        # Machine 0 sent both messages; the heaviest receiver got only one.
        assert grid.max_load_bits == COST.coefficients(2) + COST.coefficients(3)
        assert grid.total_bits == COST.coefficients(2) + COST.coefficients(3)

    def test_rounds_counted(self):
        grid = GridTopology(4)
        for _ in range(3):
            grid.begin_round()
            grid.send(0, 1, Scalar(1.0))
            grid.end_round()
        assert grid.rounds == 3
        assert grid.ledger.total("bits") == 3 * COST.coefficients(1)

    def test_send_outside_round_rejected(self):
        grid = GridTopology(2)
        with pytest.raises(CommunicationError):
            grid.send(0, 1, Scalar(1.0))

    def test_send_after_end_round_rejected(self):
        grid = GridTopology(2)
        grid.begin_round()
        grid.end_round()
        with pytest.raises(CommunicationError):
            grid.send(0, 1, Scalar(1.0))

    def test_unknown_machine_rejected(self):
        grid = GridTopology(2)
        grid.begin_round()
        with pytest.raises(CommunicationError):
            grid.send(0, 9, Scalar(1.0))

    def test_broadcast_tree_round_count(self):
        grid = GridTopology(9)
        rounds = grid.broadcast_tree(0, Scalar(1.0), fanout=3)
        assert rounds == 2  # 1 -> 4 -> 9 informed machines
        assert grid.rounds == 2
        assert grid.total_bits == 8 * COST.coefficients(1)

    def test_broadcast_tree_reaches_everyone_with_bounded_load(self):
        grid = GridTopology(16)
        rounds = grid.broadcast_tree(0, Scalar(1.0), fanout=4)
        # 16 machines with fanout 4: 2 rounds suffice.
        assert rounds == 2
        assert grid.rounds == 2
        assert grid.total_bits == 15 * COST.coefficients(1)
        # No machine ever sends more than fanout messages per round.
        assert grid.max_load_bits <= 4 * COST.coefficients(1)

    def test_broadcast_tree_single_machine_is_free(self):
        grid = GridTopology(1)
        assert grid.broadcast_tree(0, Scalar(1.0), fanout=2) == 0
        assert grid.rounds == 0
        assert grid.total_bits == 0

    def test_aggregate_tree_combines(self):
        grid = GridTopology(5)
        rounds, total = grid.aggregate_tree(
            0, Scalar(1.0), fanout=2, values=[1, 2, 3, 4, 5], combine=lambda a, b: a + b
        )
        assert total == 15
        assert rounds >= 2

    def test_aggregate_tree_combines_values(self):
        grid = GridTopology(9)
        values = [float(i) for i in range(9)]
        rounds, total = grid.aggregate_tree(
            0, Scalar(1.0), fanout=3, values=values, combine=lambda a, b: a + b
        )
        assert total == pytest.approx(sum(values))
        assert rounds >= 2
        # No machine receives more than fanout messages per round.
        assert grid.max_load_bits <= 3 * COST.coefficients(1)

    def test_aggregate_tree_invalid_fanout(self):
        grid = GridTopology(4)
        with pytest.raises(ValueError):
            grid.aggregate_tree(0, Scalar(1.0), fanout=1)
        with pytest.raises(ValueError):
            grid.broadcast_tree(0, Scalar(1.0), fanout=1)


class TestStreamTopology:
    def test_pass_accounting(self):
        stream = StreamTopology(10)
        assert stream.passes == 0
        stream.record_pass()
        stream.record_pass()
        assert stream.passes == 2
        assert stream.total_bits == 0
        assert stream.ledger.total("items") == 20

    def test_run_pass_counts_a_pass(self):
        stream = StreamTopology(3)
        stream.init_state(0, 0)

        def count_reads(reads, num_items):
            return reads + num_items, reads + num_items

        assert stream.run_pass(count_reads, stream.num_items) == 3
        assert stream.run_pass(count_reads, stream.num_items) == 6
        assert stream.passes == 2

    def test_order_validation(self):
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1])
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1, 1])

    def test_out_of_range_order_rejected(self):
        with pytest.raises(ValueError):
            StreamTopology(3, order=[0, 1, 5])
        with pytest.raises(ValueError):
            StreamTopology(3, order=[-1, 0, 1])

    def test_natural_order_by_default(self):
        stream = StreamTopology(5)
        assert stream.order().tolist() == [0, 1, 2, 3, 4]
        chunks = StreamTopology.iter_chunks(stream.order(), 2)
        assert np.concatenate(list(chunks)).tolist() == [0, 1, 2, 3, 4]

    def test_custom_order(self):
        stream = StreamTopology(4, order=[3, 1, 0, 2])
        assert stream.order().tolist() == [3, 1, 0, 2]

    def test_order_returns_copy(self):
        stream = StreamTopology(3)
        order = stream.order()
        order[0] = 99
        assert stream.order().tolist() == [0, 1, 2]

    def test_empty_stream(self):
        stream = StreamTopology(0)
        assert stream.order().size == 0
        stream.record_pass()
        assert stream.passes == 1
        assert stream.ledger.total("items") == 0

    def test_iter_chunks_preserves_order(self):
        order = np.array([4, 2, 0, 3, 1])
        chunks = list(StreamTopology.iter_chunks(order, 2))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert np.array_equal(np.concatenate(chunks), order)


class TestPartition:
    @pytest.mark.parametrize("method", ["round_robin", "contiguous", "random", "skewed"])
    def test_partition_is_disjoint_and_complete(self, method):
        parts = partition_indices(100, 7, method=method, seed=0)
        assert len(parts) == 7
        union = np.concatenate(parts)
        assert sorted(union.tolist()) == list(range(100))

    def test_round_robin_balance(self):
        parts = partition_indices(100, 4, method="round_robin")
        assert all(p.size == 25 for p in parts)

    def test_contiguous_blocks(self):
        parts = partition_indices(10, 2, method="contiguous")
        assert list(parts[0]) == list(range(5))
        assert list(parts[1]) == list(range(5, 10))

    def test_skewed_is_imbalanced(self):
        parts = partition_indices(2000, 8, method="skewed", seed=1, skew=4.0)
        sizes = sorted(p.size for p in parts)
        assert sizes[-1] > sizes[0]

    def test_parts_are_sorted(self):
        for method in ("round_robin", "random", "skewed"):
            for part in partition_indices(50, 5, method=method, seed=2):
                assert np.all(np.diff(part) > 0) or part.size <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_indices(10, 0)
        with pytest.raises(ValueError):
            partition_indices(-1, 2)
        with pytest.raises(ValueError):
            partition_indices(10, 2, method="nope")


class TestCoordinatorTopologyChoice:
    """The same coordinator driver runs on star and tree topologies."""

    @pytest.fixture(scope="class")
    def problem(self):
        return random_feasible_lp(900, 2, seed=21).problem

    def test_star_and_tree_agree_on_the_optimum(self, problem):
        exact = problem.solve()
        star = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(problem, num_sites=8, seed=5),
        )
        tree = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(
                problem, num_sites=8, seed=5, topology="tree", fanout=2
            ),
        )
        for result in (star, tree):
            assert result.value.objective == pytest.approx(
                exact.value.objective, rel=1e-6
            )
        assert star.metadata["topology"] == "star"
        assert tree.metadata["topology"] == "tree"

    def test_tree_trades_rounds_for_hub_load(self, problem):
        star = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(problem, num_sites=16, seed=5),
        )
        tree = solve(
            problem,
            model="coordinator",
            config=CoordinatorConfig.practical(
                problem, num_sites=16, seed=5, topology="tree", fanout=2
            ),
        )
        # The tree pays rounds (one per level) and forwarding bits ...
        assert tree.resources.rounds > star.resources.rounds
        assert (
            tree.resources.total_communication_bits
            > star.resources.total_communication_bits
        )
        # ... and wins on combinable gathers: the lightest upstream exchange
        # reaches the hub as one combined message instead of k replies.
        star_min_up = min(
            r["bits_up"] for r in star.resources.per_round if r["bits_up"]
        )
        tree_min_up = min(
            r["bits_up"] for r in tree.resources.per_round if r["bits_up"]
        )
        assert tree_min_up < star_min_up

    def test_per_round_trace_is_surfaced(self, problem):
        result = solve(problem, model="coordinator", num_sites=4, seed=3)
        comm = result.communication
        assert comm.rounds == result.resources.rounds == len(comm.per_round)
        assert comm.total_bits == sum(r["bits"] for r in comm.per_round)
        assert comm.max_load_bits == max(r["load"] for r in comm.per_round)

    def test_streaming_communication_reports_passes(self, problem):
        result = solve(problem, model="streaming", seed=3)
        comm = result.communication
        assert comm.rounds == result.resources.passes
        assert comm.total_bits == 0
        assert len(comm.per_round) == result.resources.passes
