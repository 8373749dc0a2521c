"""Tests for shard planning: ranges, coordinates, keys and store presence."""

from __future__ import annotations

import pytest

from repro.errors import ShardCoordinateError
from repro.experiments import ExperimentRegistry
from repro.shard import ShardPlan, plan_shards, shard_ranges, validate_coords
from repro.store import ArtifactStore

SMALL = [
    ("scale", 64),
    ("workloads", ["Alex-7", "NT-We"]),
    ("grid.fifo_depth", [1, 4, 8]),
    ("config.num_pes", 16),
]


def _small_spec():
    return ExperimentRegistry.get("fig8_fifo_depth").spec.with_overrides(SMALL)


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(9, 3) == [range(0, 3), range(3, 6), range(6, 9)]

    def test_uneven_split_puts_larger_chunks_first(self):
        ranges = shard_ranges(10, 4)
        assert [len(r) for r in ranges] == [3, 3, 2, 2]
        assert ranges[0].start == 0 and ranges[-1].stop == 10

    def test_more_shards_than_points_yields_empty_trailers(self):
        ranges = shard_ranges(2, 5)
        assert [len(r) for r in ranges] == [1, 1, 0, 0, 0]
        # Still tiles [0, count) exactly.
        assert [i for r in ranges for i in r] == [0, 1]

    def test_single_shard_is_the_whole_range(self):
        assert shard_ranges(7, 1) == [range(0, 7)]

    def test_partition_tiles_exactly_for_many_shapes(self):
        for count in (0, 1, 5, 16, 33):
            for shard_count in (1, 2, 3, 7, 40):
                ranges = shard_ranges(count, shard_count)
                assert len(ranges) == shard_count
                assert [i for r in ranges for i in r] == list(range(count))

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ShardCoordinateError):
            shard_ranges(4, 0)

    def test_process_executor_clamp_covers_without_overlap(self):
        # The process executor asks for max(1, min(jobs, count)) parts.
        for count in (1, 2, 5, 8, 13):
            for parts in (1, 2, 3, 4, 16):
                chunks = shard_ranges(count, max(1, min(parts, count)))
                flat = [index for chunk in chunks for index in chunk]
                assert flat == list(range(count))
                assert len(chunks) == min(parts, count)

    def test_process_executor_clamp_near_equal_sizes(self):
        sizes = [len(chunk) for chunk in shard_ranges(10, max(1, min(4, 10)))]
        assert sizes == [3, 3, 2, 2]


class TestValidateCoords:
    def test_valid_coordinates_pass(self):
        validate_coords(0, 1)
        validate_coords(3, 4)

    @pytest.mark.parametrize("shard_id,shard_count", [(-1, 4), (4, 4), (0, 0), (0, -2)])
    def test_invalid_coordinates_raise_typed_error(self, shard_id, shard_count):
        with pytest.raises(ShardCoordinateError) as excinfo:
            validate_coords(shard_id, shard_count)
        assert excinfo.value.shard_count == shard_count


class TestShardPlan:
    def test_plan_matches_runner_point_order(self):
        plan = plan_shards(_small_spec(), shard_count=3)
        assert isinstance(plan, ShardPlan)
        # 3 fifo depths x 2 workloads = 6 points, split 2/2/2.
        assert len(plan.points) == 6
        assert [len(r) for r in plan.ranges] == [2, 2, 2]
        reassembled = [p for i in range(3) for p in plan.points_for(i)]
        assert reassembled == plan.points

    def test_keys_are_stable_and_coordinate_distinct(self):
        plan_a = plan_shards(_small_spec(), shard_count=3)
        plan_b = plan_shards(_small_spec(), shard_count=3)
        assert plan_a.keys() == plan_b.keys()
        assert len(set(plan_a.keys())) == 3
        # A different shard count addresses different artifacts entirely.
        other = plan_shards(_small_spec(), shard_count=2)
        assert not set(other.keys()) & set(plan_a.keys())

    def test_keys_track_the_spec(self):
        base = plan_shards(_small_spec(), shard_count=2)
        changed_spec = _small_spec().with_overrides([("config.num_pes", 8)])
        changed = plan_shards(changed_spec, shard_count=2)
        assert base.keys() != changed.keys()

    def test_points_for_validates_coordinates(self):
        plan = plan_shards(_small_spec(), shard_count=2)
        with pytest.raises(ShardCoordinateError):
            plan.points_for(2)
        with pytest.raises(ShardCoordinateError):
            plan.shard_key(-1)

    def test_plan_shards_rejects_bad_count(self):
        with pytest.raises(ShardCoordinateError):
            plan_shards(_small_spec(), shard_count=0)

    def test_describe_reports_store_presence(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = plan_shards(_small_spec(), shard_count=2)
        rows = plan.describe(store)
        assert [row["present"] for row in rows] == [False, False]
        assert rows[0]["start"] == 0 and rows[-1]["stop"] == len(plan.points)
        store.store_json("shards", plan.shard_key(1), {"stub": True})
        assert [row["present"] for row in plan.describe(store)] == [False, True]
