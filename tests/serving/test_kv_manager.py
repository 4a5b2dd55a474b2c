"""Tests for the block-based KV-cache memory manager."""

import pytest

from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheConfig,
    KVCacheExhausted,
)


def make_manager(num_blocks: int = 10, block_size: int = 16,
                 high: float = 0.95, low: float = 0.80) -> KVBlockManager:
    """A manager with exactly ``num_blocks`` one-byte-per-token blocks."""
    config = KVCacheConfig(capacity_bytes=float(num_blocks * block_size),
                           block_size=block_size,
                           high_watermark=high, low_watermark=low)
    return config.manager_for(bytes_per_token=1.0)


class TestConfigValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            KVCacheConfig(capacity_bytes=0.0)

    def test_rejects_zero_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            KVCacheConfig(capacity_bytes=1e6, block_size=0)

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError, match="watermarks"):
            KVCacheConfig(capacity_bytes=1e6,
                          high_watermark=0.5, low_watermark=0.9)

    def test_rejects_out_of_range_watermarks(self):
        with pytest.raises(ValueError, match="watermarks"):
            KVCacheConfig(capacity_bytes=1e6, high_watermark=1.5)

    def test_from_capacity_mb(self):
        config = KVCacheConfig.from_capacity_mb(64.0, block_size=32)
        assert config.capacity_bytes == pytest.approx(64e6)
        assert config.capacity_mb == pytest.approx(64.0)
        assert config.block_size == 32

    def test_manager_rejects_capacity_below_one_block(self):
        config = KVCacheConfig(capacity_bytes=8.0, block_size=16)
        with pytest.raises(ValueError, match="block"):
            config.manager_for(bytes_per_token=1.0)

    def test_manager_rejects_nonpositive_bytes_per_token(self):
        config = KVCacheConfig(capacity_bytes=1e6)
        with pytest.raises(ValueError, match="bytes_per_token"):
            config.manager_for(bytes_per_token=0.0)


class TestBlockArithmetic:
    def test_num_blocks_floors(self):
        # 100 bytes / (16-token blocks at 1 B/token) -> 6 whole blocks.
        config = KVCacheConfig(capacity_bytes=100.0, block_size=16)
        assert config.manager_for(1.0).num_blocks == 6

    def test_blocks_for_rounds_up(self):
        manager = make_manager(block_size=16)
        assert manager.blocks_for(0) == 0
        assert manager.blocks_for(1) == 1
        assert manager.blocks_for(16) == 1
        assert manager.blocks_for(17) == 2
        assert manager.blocks_for(160) == 10

    def test_bytes_per_token_scales_block_count(self):
        config = KVCacheConfig(capacity_bytes=1000.0, block_size=10)
        assert config.manager_for(1.0).num_blocks == 100
        assert config.manager_for(10.0).num_blocks == 10


class TestClaimRelease:
    def test_claim_and_release_accounting(self):
        manager = make_manager(num_blocks=10)
        manager.claim(1, 3)
        manager.claim(2, 4)
        assert manager.blocks_held(1) == 3
        assert manager.used_blocks == 7
        assert manager.free_blocks == 3
        assert manager.utilization == pytest.approx(0.7)
        assert manager.release(1) == 3
        assert manager.blocks_held(1) == 0
        assert manager.used_blocks == 4

    def test_incremental_claims_accumulate(self):
        manager = make_manager(num_blocks=10)
        manager.claim(7, 2)
        manager.claim(7, 1)
        assert manager.blocks_held(7) == 3

    def test_zero_claim_is_noop(self):
        manager = make_manager(num_blocks=10)
        manager.claim(1, 0)
        assert manager.used_blocks == 0
        assert manager.blocks_held(1) == 0

    def test_negative_claim_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_manager().claim(1, -1)

    def test_overclaim_raises_exhausted(self):
        manager = make_manager(num_blocks=4)
        manager.claim(1, 3)
        with pytest.raises(KVCacheExhausted, match="free"):
            manager.claim(2, 2)

    def test_release_unknown_request_frees_nothing(self):
        manager = make_manager()
        assert manager.release(99) == 0
        assert manager.used_blocks == 0

    def test_peak_tracks_claim_time_high_water(self):
        """The peak survives releases — a claim freed within the same step
        must still be visible in the memory metrics."""
        manager = make_manager(num_blocks=10)
        manager.claim(1, 8)
        manager.release(1)
        manager.claim(2, 2)
        assert manager.peak_used_blocks == 8
        assert manager.used_blocks == 2

    def test_reset_clears_everything(self):
        manager = make_manager(num_blocks=10)
        manager.claim(1, 5)
        manager.mark_pressure()
        manager.reset()
        assert manager.used_blocks == 0
        assert manager.peak_used_blocks == 0
        assert manager.free_blocks == 10
        assert not manager.admission_blocked


class TestWatermarkHysteresis:
    def test_within_high_watermark(self):
        manager = make_manager(num_blocks=10, high=0.9)
        manager.claim(1, 5)
        assert manager.within_high_watermark(4)      # 9/10 == high: allowed
        assert not manager.within_high_watermark(5)  # 10/10 > high

    def test_unpressured_pool_never_blocks_admission(self):
        manager = make_manager(num_blocks=10, high=0.9, low=0.5)
        manager.claim(1, 9)
        assert not manager.admission_blocked

    def test_pressure_blocks_until_low_watermark(self):
        manager = make_manager(num_blocks=10, high=0.9, low=0.5)
        manager.claim(1, 9)
        manager.mark_pressure()
        assert manager.admission_blocked          # 0.9 > low
        manager.release(1)
        manager.claim(2, 6)
        assert manager.admission_blocked          # 0.6 > low: still closed
        manager.release(2)
        manager.claim(3, 5)
        assert not manager.admission_blocked      # 0.5 <= low: reopens

    def test_admission_blocked_is_a_pure_read(self):
        """Reading the gate must not consume the pressure flag — planning
        may consult it any number of times without side effects."""
        manager = make_manager(num_blocks=10, high=0.9, low=0.5)
        manager.claim(1, 5)
        manager.mark_pressure()
        assert not manager.admission_blocked      # 0.5 <= low
        manager.claim(1, 4)
        # The flag is still set: without an explicit refresh, climbing back
        # above the low mark re-closes admission.
        assert manager.admission_blocked

    def test_refresh_pressure_acknowledges_recovery(self):
        """The engine's step-boundary refresh retires the pressure episode
        once utilisation is back at the low mark, so a later climb (short
        of the high mark) does not re-close admission."""
        manager = make_manager(num_blocks=10, high=0.9, low=0.5)
        manager.claim(1, 9)
        manager.mark_pressure()
        manager.refresh_pressure()
        assert manager.admission_blocked          # no recovery yet
        manager.release(1)
        manager.claim(2, 5)
        manager.refresh_pressure()                # recovered: episode over
        manager.claim(2, 4)
        assert not manager.admission_blocked      # stays open at 0.9


class TestExportImport:
    """The disaggregation hand-off surface: blocks leave the prefill pool
    and land in the decode pool, tallied as migration traffic."""

    def test_export_releases_and_receipts(self):
        manager = make_manager()
        manager.claim(7, 3)
        receipt = manager.export_kv(7, kv_tokens=33)
        assert receipt.request_id == 7
        assert receipt.kv_tokens == 33
        assert receipt.blocks_freed == 3
        assert manager.used_blocks == 0
        assert manager.kv_exports == 1
        assert manager.blocks_exported == 3

    def test_export_of_unknown_request_frees_nothing(self):
        manager = make_manager()
        receipt = manager.export_kv(99, kv_tokens=0)
        assert receipt.blocks_freed == 0
        assert manager.kv_exports == 1

    def test_export_rejects_negative_tokens(self):
        manager = make_manager()
        with pytest.raises(ValueError, match="negative"):
            manager.export_kv(1, kv_tokens=-1)

    def test_import_claims_and_counts(self):
        manager = make_manager()
        manager.import_kv(3, 4)
        assert manager.blocks_held(3) == 4
        assert manager.used_blocks == 4
        assert manager.kv_imports == 1
        assert manager.blocks_imported == 4

    def test_import_respects_capacity(self):
        manager = make_manager(num_blocks=4)
        with pytest.raises(KVCacheExhausted):
            manager.import_kv(1, 5)

    def test_reset_clears_handoff_counters(self):
        manager = make_manager()
        manager.claim(1, 2)
        manager.export_kv(1, kv_tokens=32)
        manager.import_kv(2, 1)
        manager.reset()
        assert manager.kv_exports == 0
        assert manager.kv_imports == 0
        assert manager.blocks_exported == 0
        assert manager.blocks_imported == 0
