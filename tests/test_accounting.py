"""Unit tests for the cost-accounting primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accounting import BitCostModel, RoundLedger, StreamingMemory


class TestBitCostModel:
    def test_default_coefficient_bits(self):
        model = BitCostModel()
        assert model.coefficients(3) == 3 * 64

    def test_custom_coefficient_bits(self):
        model = BitCostModel(bits_per_coefficient=32)
        assert model.coefficients(4) == 128

    def test_counters(self):
        model = BitCostModel(bits_per_counter=16)
        assert model.counters(5) == 80

    def test_array_counts_elements(self):
        model = BitCostModel()
        assert model.array(np.zeros((3, 4))) == 12 * 64

    def test_negative_count_rejected(self):
        model = BitCostModel()
        with pytest.raises(ValueError):
            model.coefficients(-1)
        with pytest.raises(ValueError):
            model.counters(-2)

    def test_zero_costs_nothing(self):
        model = BitCostModel()
        assert model.coefficients(0) == 0
        assert model.counters(0) == 0


class TestStreamingMemory:
    def test_peak_tracking(self):
        memory = StreamingMemory()
        memory.set_usage(items=10, bits=640)
        memory.set_usage(items=4, bits=256)
        assert memory.peak_items == 10
        assert memory.peak_bits == 640


class TestRoundLedger:
    def test_record_and_count_rounds(self):
        ledger = RoundLedger()
        ledger.record(bits=10)
        ledger.record(bits=20, load=5)
        assert ledger.num_rounds == 2

    def test_total_sums_key(self):
        ledger = RoundLedger()
        ledger.record(bits=10)
        ledger.record(bits=20)
        assert ledger.total("bits") == 30

    def test_total_missing_key_is_zero(self):
        ledger = RoundLedger()
        ledger.record(bits=10)
        assert ledger.total("load") == 0

    def test_maximum(self):
        ledger = RoundLedger()
        ledger.record(load=3)
        ledger.record(load=9)
        ledger.record(load=1)
        assert ledger.maximum("load") == 9

    def test_maximum_empty_is_zero(self):
        assert RoundLedger().maximum("load") == 0

    def test_as_table_is_copy(self):
        ledger = RoundLedger()
        ledger.record(bits=10)
        table = ledger.as_table()
        table[0]["bits"] = 999
        assert ledger.total("bits") == 10


class TestUsageLedger:
    def test_totals_accumulate_per_tenant(self):
        from repro.core.accounting import TenantUsage, UsageLedger

        ledger = UsageLedger()
        ledger.record("acme", outcome="done", wall_s=0.5, iterations=3,
                      communication_bits=100)
        ledger.record("acme", outcome="failed", wall_s=0.25, iterations=1,
                      communication_bits=40)
        ledger.record("tiny", outcome="done", wall_s=1.0)
        acme = ledger.totals("acme")
        assert acme.tickets == 2
        assert acme.done == 1
        assert acme.failed == 1
        assert acme.wall_s == pytest.approx(0.75)
        assert acme.iterations == 4
        assert acme.communication_bits == 140
        assert sorted(ledger.tenants()) == ["acme", "tiny"]
        # Unknown tenants read as zero usage, not an error.
        fresh = ledger.totals("nobody")
        assert isinstance(fresh, TenantUsage)
        assert fresh.tickets == 0

    def test_totals_returns_a_snapshot(self):
        from repro.core.accounting import UsageLedger

        ledger = UsageLedger()
        ledger.record("acme", outcome="done", iterations=2)
        snapshot = ledger.totals("acme")
        ledger.record("acme", outcome="done", iterations=2)
        assert snapshot.iterations == 2  # unaffected by the later record
        assert ledger.totals("acme").iterations == 4

    def test_jsonl_append(self, tmp_path):
        import json

        from repro.core.accounting import UsageLedger

        path = tmp_path / "usage.jsonl"
        ledger = UsageLedger(path)
        ledger.record("acme", outcome="done", wall_s=0.1, iterations=2,
                      communication_bits=64, ticket="t1", model="streaming")
        ledger.record("tiny", outcome="failed", ticket="t2", model="mpc")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["tenant"] == "acme"
        assert lines[0]["ticket"] == "t1"
        assert lines[0]["communication_bits"] == 64
        assert lines[1]["outcome"] == "failed"
        assert all("ts" in line for line in lines)
