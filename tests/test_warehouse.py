"""Tests for the columnar sweep warehouse.

Covers the segment codec, the append/seal/compact lifecycle, the four
crash-recovery windows, the streaming query layer, cross-run regression
detection, live sweep telemetry, the warehouse-backed sweep runner
(byte-identity across worker counts and interruptions), the JSON-store
import and the ``repro warehouse`` / ``repro regress`` CLI.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SchedulingError, WarehouseError
from repro.scenarios import SweepConfig, cell_key, run_sweep
from repro.warehouse import (
    KEY_COLUMN,
    SweepTelemetry,
    Warehouse,
    aggregate,
    build_baseline,
    compare,
    decode_segment,
    distinct,
    encode_segment,
    format_rows,
    group_key,
    group_stats,
    import_legacy_json,
    load_baseline,
    regressions,
    scan,
    select,
    write_baseline,
)
from repro.warehouse.store import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    SEGMENT_DIR,
    frame_journal_line,
    rows_from_columns,
)

from conftest import LEGACY_STORE, LEGACY_SWEEP

WORKLOAD = {"family": "attnn", "duration": 2.0}

#: Small but non-degenerate sweep grid for the runner tests.
TINY = dict(duration=2.0, n_profile_samples=10)


def synth_key(i):
    return f"k{i:04d}"


def synth_cell(i):
    """Deterministic synthetic cell with mixed column kinds."""
    cell = {
        "scenario": f"s{i % 3}",
        "scheduler": f"p{i % 2}",
        "seed": i,
        "stp": 1.0 + 0.01 * i,
        "violation_rate": (i % 5) / 10.0,
        "note": f"cell-{i}",
    }
    if i % 4 == 0:
        cell["edp"] = 2.0 + 0.1 * i  # only some rows carry this column
    return cell


def fill(wh, stop, start=0):
    for i in range(start, stop):
        wh.append(synth_key(i), synth_cell(i))


def tiny_config(**overrides):
    params = dict(
        scenarios=("steady",),
        schedulers=("sjf", "fcfs"),
        seeds=(0, 1),
        **TINY,
    )
    params.update(overrides)
    return SweepConfig(**params)


# ---------------------------------------------------------------------------
# Segment codec


class TestSegmentCodec:
    def test_round_trip_reconstructs_cells_exactly(self):
        rows = [(synth_key(i), synth_cell(i)) for i in range(7)]
        batch = decode_segment(encode_segment(rows))
        assert list(rows_from_columns(batch)) == rows

    def test_column_kinds(self):
        rows = [
            ("a", {"i": 1, "f": 1.5, "mix": 1, "s": "x", "b": True,
                   "nested": {"q": [1, 2]}}),
            ("b", {"i": 2, "f": 2.5, "mix": 2.5, "s": "y", "b": False,
                   "nested": {"q": []}}),
        ]
        batch = decode_segment(encode_segment(rows))
        assert isinstance(batch["i"], np.ndarray) and batch["i"].dtype.kind == "i"
        assert batch["f"].dtype.kind == "f"
        assert batch["mix"].dtype.kind == "f"  # ints and floats mix -> f8
        assert batch["s"] == ["x", "y"]  # json column
        assert batch["b"] == [True, False]  # bools are json, never i8
        assert batch["nested"] == [{"q": [1, 2]}, {"q": []}]

    def test_missing_rows_round_trip(self):
        rows = [("a", {"x": 1}), ("b", {}), ("c", {"x": 3, "y": "only-c"})]
        batch = decode_segment(encode_segment(rows))
        # An int column with gaps rides the json payload (a float payload
        # would turn 1 into 1.0 and break canonical re-encoding)...
        assert batch["x"] == [1, None, 3]
        # ...and the row inversion drops the holes again, values still int.
        out = list(rows_from_columns(batch))
        assert out == rows
        assert all(type(cell["x"]) is int for _, cell in out if "x" in cell)

    def test_gappy_int_column_reencodes_identically(self):
        rows = [("a", {"x": 1}), ("b", {}), ("c", {"x": 3})]
        data = encode_segment(rows)
        round_tripped = list(rows_from_columns(decode_segment(data)))
        assert encode_segment(round_tripped) == data

    def test_same_rows_same_bytes(self):
        rows = [(synth_key(i), synth_cell(i)) for i in range(5)]
        assert encode_segment(rows) == encode_segment(list(rows))

    def test_projection_skips_unwanted_columns(self):
        rows = [(synth_key(i), synth_cell(i)) for i in range(4)]
        batch = decode_segment(encode_segment(rows), columns=("stp",))
        assert set(batch) == {KEY_COLUMN, "stp"}

    def test_empty_segment_rejected(self):
        with pytest.raises(WarehouseError, match="empty"):
            encode_segment([])

    def test_corrupt_buffers_rejected(self):
        good = encode_segment([("a", {"x": 1})])
        with pytest.raises(WarehouseError, match="header"):
            decode_segment(b"no newline at all")
        with pytest.raises(WarehouseError, match="not JSON"):
            decode_segment(b"{torn json\npayload")
        with pytest.raises(WarehouseError, match="magic"):
            decode_segment(b'{"magic":"nope"}\n')
        with pytest.raises(WarehouseError, match="truncated"):
            decode_segment(good[:-3])


# ---------------------------------------------------------------------------
# Store lifecycle


class TestStoreBasics:
    def test_append_len_contains(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            fill(wh, 5)
            assert len(wh) == 5
            assert synth_key(0) in wh and synth_key(9) not in wh
            assert wh.completed_keys() == frozenset(synth_key(i) for i in range(5))
            assert wh.read_cells() == {synth_key(i): synth_cell(i)
                                       for i in range(5)}

    def test_duplicate_and_reserved_column_rejected(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            wh.append("a", {"x": 1})
            with pytest.raises(WarehouseError, match="already"):
                wh.append("a", {"x": 2})
            with pytest.raises(WarehouseError, match="reserved"):
                wh.append("b", {KEY_COLUMN: "nope"})

    def test_none_and_nan_normalize_to_absent(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            wh.append("a", {"x": 1.0, "gone": None, "hole": math.nan})
            assert wh.read_cells()["a"] == {"x": 1.0}

    def test_sealing_every_nth_append(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=4) as wh:
            fill(wh, 10)
            assert wh.num_segments == 2 and wh.num_sealed == 8
            assert wh.tail_rows == 2 and len(wh) == 10
            assert all(row["ok"] for row in wh.verify())
            # Rows come back in append order across segments and tail.
            assert [key for key, _ in wh.iter_cells()] \
                == [synth_key(i) for i in range(10)]

    def test_create_refuses_existing_unless_forced(self, tmp_path):
        Warehouse.create(tmp_path / "wh", WORKLOAD).close()
        with pytest.raises(WarehouseError, match="already holds"):
            Warehouse.create(tmp_path / "wh", WORKLOAD)
        with Warehouse.create(tmp_path / "wh", WORKLOAD, force=True) as wh:
            assert len(wh) == 0

    def test_force_never_deletes_a_non_warehouse(self, tmp_path):
        # --force on a mistyped path must not rmtree arbitrary directories.
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("do not delete")
        with pytest.raises(WarehouseError, match="not a warehouse"):
            Warehouse.create(victim, WORKLOAD, force=True)
        assert (victim / "data.txt").read_text() == "do not delete"
        plain_file = tmp_path / "file"
        plain_file.write_text("x")
        with pytest.raises(WarehouseError, match="not a warehouse"):
            Warehouse.create(plain_file, WORKLOAD, force=True)
        assert plain_file.exists()
        # An empty directory is fine: nothing to lose.
        empty = tmp_path / "empty"
        empty.mkdir()
        with Warehouse.create(empty, WORKLOAD, force=True) as wh:
            assert len(wh) == 0

    def test_open_or_create_checks_workload(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            fill(wh, 3)
        with Warehouse.open_or_create(tmp_path / "wh", WORKLOAD) as wh:
            assert len(wh) == 3  # same workload resumes
        with pytest.raises(WarehouseError, match="different workload"):
            Warehouse.open_or_create(tmp_path / "wh", {"family": "cnn"})
        with Warehouse.open_or_create(tmp_path / "wh", {"family": "cnn"},
                                      force=True) as wh:
            assert len(wh) == 0 and wh.workload == {"family": "cnn"}

    def test_bad_segment_rows_rejected(self, tmp_path):
        with pytest.raises(WarehouseError, match="segment_rows"):
            Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=0)

    def test_open_rejects_non_warehouse(self, tmp_path):
        with pytest.raises(WarehouseError, match="not a warehouse"):
            Warehouse.open(tmp_path / "missing")
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(WarehouseError, match="corrupt manifest"):
            Warehouse.open(root)
        (root / MANIFEST_NAME).write_text('{"schema": 99}')
        with pytest.raises(WarehouseError, match="unsupported"):
            Warehouse.open(root)

    def test_file_root_points_at_import(self, tmp_path):
        # An existing regular file (an old `--out foo.json`) is refused
        # with the conversion command, never a raw NotADirectoryError.
        legacy = tmp_path / "legacy.json"
        legacy.write_bytes(LEGACY_STORE.read_bytes())
        for attempt in (
            lambda: Warehouse.open(legacy),
            lambda: Warehouse.create(legacy, WORKLOAD),
            lambda: Warehouse.open_or_create(legacy, WORKLOAD),
        ):
            with pytest.raises(WarehouseError,
                               match="not a warehouse directory.*"
                                     "repro warehouse import"):
                attempt()
        assert legacy.read_bytes() == LEGACY_STORE.read_bytes()

    def test_read_cells_subset(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            fill(wh, 6)
            subset = wh.read_cells([synth_key(1), synth_key(4), "absent"])
            assert sorted(subset) == [synth_key(1), synth_key(4)]

    def test_cost_sidecar_is_best_effort_and_fingerprint_free(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            fill(wh, 2)
            before = wh.fingerprint()
            wh.record_cost("k0000", wall_s=1.5, worker=42)
            wh.record_cost("k0001", wall_s=0.5, worker=42)
            with open(tmp_path / "wh" / "costs.jsonl", "a") as fh:
                fh.write('{"torn')  # crash mid-write: tolerated
            costs = wh.read_costs()
            assert [c["key"] for c in costs] == ["k0000", "k0001"]
            assert costs[0]["wall_s"] == 1.5 and costs[0]["worker"] == 42
            assert wh.fingerprint() == before  # sidecar is outside the envelope


class TestDeterminism:
    def test_same_appends_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            with Warehouse.create(tmp_path / name, WORKLOAD,
                                  segment_rows=4) as wh:
                fill(wh, 10)
        a = Warehouse.open(tmp_path / "a")
        b = Warehouse.open(tmp_path / "b")
        assert a.fingerprint() == b.fingerprint()
        for rel in ([MANIFEST_NAME], [JOURNAL_NAME],
                    [SEGMENT_DIR, "seg-00000.seg"]):
            pa, pb = tmp_path / "a", tmp_path / "b"
            for part in rel:
                pa, pb = pa / part, pb / part
            assert pa.read_bytes() == pb.read_bytes()
        a.close(), b.close()

    def test_round_tripped_cells_reencode_identically(self, tmp_path):
        with Warehouse.create(tmp_path / "a", WORKLOAD, segment_rows=4) as wh:
            fill(wh, 10)
            cells = wh.read_cells()
            fp = wh.fingerprint()
        with Warehouse.create(tmp_path / "b", WORKLOAD, segment_rows=4) as wh:
            for i in range(10):
                wh.append(synth_key(i), cells[synth_key(i)])
            assert wh.fingerprint() == fp

    def test_compact_is_noop_on_aligned_store(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=4) as wh:
            fill(wh, 10)
            before = wh.fingerprint()
            stats = wh.compact()
            assert wh.fingerprint() == before
            assert stats == {"rows": 10, "segments_before": 2,
                             "segments_after": 2, "tail_rows": 2}

    def test_compact_merges_undersized_segments(self, tmp_path):
        with Warehouse.create(tmp_path / "frag", WORKLOAD,
                              segment_rows=4) as wh:
            for i in range(10):
                wh.append(synth_key(i), synth_cell(i))
                if i in (1, 6):
                    wh.seal_tail()  # force undersized segments
            assert wh.num_segments > 2
            stats = wh.compact()
            assert stats["segments_after"] == 2
            frag_fp = wh.fingerprint()
        with Warehouse.create(tmp_path / "clean", WORKLOAD,
                              segment_rows=4) as wh:
            fill(wh, 10)
            # Compaction restores the exact layout of an uninterrupted run.
            assert wh.fingerprint() == frag_fp

    def test_compact_preserves_fingerprint_with_gappy_int_columns(self, tmp_path):
        # An int metric absent in some cells must survive the decode ->
        # re-encode cycle compact performs, or compaction silently changes
        # the store's bytes (and turns 3 into 3.0 on read).
        with Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=4) as wh:
            for i in range(10):
                cell = synth_cell(i)
                if i % 3 == 0:
                    cell["retries"] = i  # int column with gaps
                wh.append(synth_key(i), cell)
            before = wh.fingerprint()
            cells = wh.read_cells()
            wh.compact()
            assert wh.fingerprint() == before
            assert wh.read_cells() == cells
            assert type(wh.read_cells()[synth_key(3)]["retries"]) is int

    def test_compact_rechunks_and_validates(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=4) as wh:
            fill(wh, 10)
            with pytest.raises(WarehouseError, match="segment_rows"):
                wh.compact(segment_rows=0)
            stats = wh.compact(segment_rows=3)
            assert stats["segments_after"] == 3 and stats["tail_rows"] == 1
            assert wh.segment_rows == 3
            assert wh.read_cells() == {synth_key(i): synth_cell(i)
                                       for i in range(10)}

    def test_seal_tail_empty_is_noop(self, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            assert wh.seal_tail() is None

    def test_thousand_cell_interrupted_resume_is_byte_identical(self, tmp_path):
        with Warehouse.create(tmp_path / "a", WORKLOAD, segment_rows=64) as wh:
            fill(wh, 1000)
            clean_fp = wh.fingerprint()
        # Same grid, three simulated crashes at different windows.
        wh = Warehouse.create(tmp_path / "b", WORKLOAD, segment_rows=64)
        for stop, tear in ((137, "journal"), (400, "segment"),
                           (650, "garbage"), (1000, None)):
            fill(wh, stop, start=len(wh))
            if tear is None:
                break
            last_seg = wh.segments[-1]["name"]
            wh.close()
            journal = tmp_path / "b" / JOURNAL_NAME
            if tear == "journal":  # killed mid-append: torn last line
                journal.write_bytes(journal.read_bytes()[:-7])
            elif tear == "segment":  # killed mid-seal: corrupt segment
                seg = tmp_path / "b" / SEGMENT_DIR / last_seg
                data = bytearray(seg.read_bytes())
                data[len(data) // 2] ^= 0xFF
                seg.write_bytes(bytes(data))
            else:  # unframed garbage at the journal tail
                with open(journal, "ab") as fh:
                    fh.write(b"deadbeef {not a frame}\n")
            wh = Warehouse.open(tmp_path / "b")
            assert wh.recovered, f"expected recovery notes after {tear} tear"
            assert len(wh) < stop or tear == "garbage"
            # Recovery keeps a strict prefix: k0000..k(len-1).
            assert sorted(wh.completed_keys()) \
                == [synth_key(i) for i in range(len(wh))]
        assert wh.fingerprint() == clean_fp
        wh.close()


# ---------------------------------------------------------------------------
# Crash recovery windows


def build_store(root, rows=10):
    with Warehouse.create(root, WORKLOAD, segment_rows=4) as wh:
        fill(wh, rows)
        return wh.fingerprint()


class TestCrashRecovery:
    def test_torn_trailing_journal_line(self, tmp_path):
        root = tmp_path / "wh"
        fp = build_store(root)
        journal = root / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes() + b"12345678 {torn")
        with Warehouse.open(root) as wh:
            assert any("torn" in note for note in wh.recovered)
            assert len(wh) == 10
            assert wh.fingerprint() == fp

    def test_corrupt_journal_line_drops_its_tail(self, tmp_path):
        root = tmp_path / "wh"
        build_store(root)
        journal = root / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        bad = b"00000000" + lines[0][8:]  # valid shape, wrong CRC
        journal.write_bytes(bad + lines[1])
        with Warehouse.open(root) as wh:
            assert any("corrupt journal line" in note for note in wh.recovered)
            assert len(wh) == 8  # both tail rows dropped with the bad line
            fill(wh, 10, start=8)
            assert wh.fingerprint() == build_store(tmp_path / "ref")

    def test_corrupt_segment_drops_suffix_and_journal(self, tmp_path):
        root = tmp_path / "wh"
        build_store(root)
        seg = root / SEGMENT_DIR / "seg-00001.seg"
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        seg.write_bytes(bytes(data))
        with Warehouse.open(root) as wh:
            notes = " | ".join(wh.recovered)
            assert "failed its checksum" in notes
            assert "discarded the journal" in notes
            assert len(wh) == 4  # only seg-00000 survives
            fill(wh, 10, start=4)
            assert wh.fingerprint() == build_store(tmp_path / "ref")

    def test_missing_segment_file(self, tmp_path):
        root = tmp_path / "wh"
        build_store(root)
        (root / SEGMENT_DIR / "seg-00000.seg").unlink()
        with Warehouse.open(root) as wh:
            assert any("missing" in note for note in wh.recovered)
            assert len(wh) == 0
            fill(wh, 10)
            assert wh.fingerprint() == build_store(tmp_path / "ref")

    @staticmethod
    def build_fragmented(root):
        wh = Warehouse.create(root, WORKLOAD, segment_rows=4)
        for i in range(10):
            wh.append(synth_key(i), synth_cell(i))
            if i in (1, 6):
                wh.seal_tail()  # force undersized segments
        return wh

    def test_compact_crash_before_manifest_loses_nothing(self, tmp_path):
        # Crash after the journal spill but before the manifest shrink:
        # the old layout must survive intact — not be truncated to a
        # prefix by CRC mismatches against half-rewritten segments.
        root = tmp_path / "frag"
        wh = self.build_fragmented(root)
        cells = wh.read_cells()
        fp = wh.fingerprint()

        def boom():
            raise RuntimeError("killed mid-compact")

        wh._write_manifest = boom
        with pytest.raises(RuntimeError, match="mid-compact"):
            wh.compact()
        wh.close()
        with Warehouse.open(root) as wh:
            assert wh.read_cells() == cells
            assert wh.fingerprint() == fp  # old layout, byte for byte

    def test_compact_crash_mid_seal_recovers_compacted(self, tmp_path):
        # Crash while sealing the rewritten suffix: recovery completes
        # the compaction from the journal spill.
        with self.build_fragmented(tmp_path / "clean") as ref:
            ref.compact()
            want_fp = ref.fingerprint()
        wh = self.build_fragmented(tmp_path / "torn")
        cells = wh.read_cells()
        real, calls = wh._seal_rows, []

        def flaky(count):
            calls.append(count)
            if len(calls) > 1:
                raise RuntimeError("killed mid-compact")
            return real(count)

        wh._seal_rows = flaky
        with pytest.raises(RuntimeError, match="mid-compact"):
            wh.compact()
        wh.close()
        with Warehouse.open(tmp_path / "torn") as wh:
            assert wh.read_cells() == cells
            assert wh.fingerprint() == want_fp

    def test_orphan_segment_file_deleted(self, tmp_path):
        root = tmp_path / "wh"
        fp = build_store(root)
        orphan = root / SEGMENT_DIR / "seg-00099.seg"
        orphan.write_bytes(b"stray bytes from a crashed seal")
        with Warehouse.open(root) as wh:
            assert any("orphan" in note for note in wh.recovered)
            assert not orphan.exists()
            assert wh.fingerprint() == fp

    def test_crash_between_segment_write_and_manifest(self, tmp_path):
        # The seal-crash window: segment file on disk, manifest not yet
        # updated.  Recovery must *complete* the seal, not defer it —
        # otherwise the next append makes an oversized segment and the
        # store's layout diverges from an uninterrupted run forever.
        root = tmp_path / "wh"
        wh = Warehouse.create(root, WORKLOAD, segment_rows=4)
        fill(wh, 3)

        def boom():
            raise RuntimeError("killed mid-seal")

        wh._write_manifest = boom
        with pytest.raises(RuntimeError, match="mid-seal"):
            wh.append(synth_key(3), synth_cell(3))
        wh.close()
        assert (root / SEGMENT_DIR / "seg-00000.seg").exists()
        with Warehouse.open(root) as wh:
            assert any("completed an interrupted seal" in note
                       for note in wh.recovered)
            assert wh.num_segments == 1 and len(wh) == 4
            fill(wh, 10, start=4)
            assert wh.fingerprint() == build_store(tmp_path / "ref")

    def test_crash_between_manifest_and_journal_truncate(self, tmp_path):
        # Sealed and recorded, but the journal still holds the rows.
        root = tmp_path / "wh"
        wh = Warehouse.create(root, WORKLOAD, segment_rows=4)
        fill(wh, 3)

        def boom(rows):
            raise RuntimeError("killed mid-seal")

        wh._rewrite_journal = boom
        with pytest.raises(RuntimeError, match="mid-seal"):
            wh.append(synth_key(3), synth_cell(3))
        wh._journal_fh.close()
        with Warehouse.open(root) as wh:
            assert any("already sealed" in note for note in wh.recovered)
            assert wh.num_segments == 1 and len(wh) == 4
            fill(wh, 10, start=4)
            assert wh.fingerprint() == build_store(tmp_path / "ref")

    def test_stale_journal_rows_already_sealed(self, tmp_path):
        root = tmp_path / "wh"
        fp = build_store(root)
        # Crash window: segment sealed, journal not yet truncated.
        journal = root / JOURNAL_NAME
        stale = frame_journal_line(synth_key(0), synth_cell(0))
        journal.write_bytes(stale + journal.read_bytes())
        with Warehouse.open(root) as wh:
            assert any("already sealed" in note for note in wh.recovered)
            assert len(wh) == 10
            assert wh.fingerprint() == fp


# ---------------------------------------------------------------------------
# Query layer


@pytest.fixture(scope="module")
def query_wh(tmp_path_factory):
    root = tmp_path_factory.mktemp("query") / "wh"
    with Warehouse.create(root, WORKLOAD, segment_rows=4) as wh:
        fill(wh, 12)
    wh = Warehouse.open(root)
    yield wh
    wh.close()


class TestQuery:
    def test_scan_filters_and_projects(self, query_wh):
        batches = list(scan(query_wh, columns=("stp",),
                            where={"scenario": "s0"}))
        assert batches  # spans multiple segments
        keys = [k for b in batches for k in b[KEY_COLUMN]]
        assert keys == [synth_key(i) for i in range(12) if i % 3 == 0]
        assert all(set(b) == {KEY_COLUMN, "stp"} for b in batches)

    def test_callable_predicate(self, query_wh):
        got = select(query_wh, columns=("seed",),
                     where={"seed": lambda s: s >= 10})
        assert got["seed"].tolist() == [10, 11]

    def test_predicate_on_absent_column_matches_nothing(self, query_wh):
        assert select(query_wh, where={"bogus": 1}) == {}

    def test_bad_predicate_shape_rejected(self, query_wh):
        with pytest.raises(WarehouseError, match="shape"):
            list(scan(query_wh, where={"seed": lambda s: [True]}))

    def test_select_concatenates_all_segments(self, query_wh):
        got = select(query_wh)
        assert len(got[KEY_COLUMN]) == 12
        assert got["stp"].tolist() == pytest.approx(
            [1.0 + 0.01 * i for i in range(12)])
        # 'edp' exists on every 4th row only; other rows come back NaN.
        assert int(np.isnan(got["edp"]).sum()) == 9

    def test_distinct(self, query_wh):
        assert distinct(query_wh, "scenario") == ["s0", "s1", "s2"]
        assert distinct(query_wh, "scheduler",
                        where={"scenario": "s0"}) == ["p0", "p1"]

    def test_aggregate_matches_manual_stats(self, query_wh):
        table = aggregate(query_wh, group_by=("scheduler",), metrics=("stp",))
        for parity, group in ((0, ("p0",)), (1, ("p1",))):
            values = [1.0 + 0.01 * i for i in range(12) if i % 2 == parity]
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            stats = table[group]["stp"]
            assert stats["n"] == len(values)
            assert stats["mean"] == pytest.approx(mean)
            assert stats["std"] == pytest.approx(std)
            assert stats["min"] == pytest.approx(min(values))
            assert stats["max"] == pytest.approx(max(values))

    def test_aggregate_skips_missing_and_non_numeric(self, query_wh):
        table = aggregate(query_wh, group_by=("scenario",),
                          metrics=("edp", "note"))
        # 'edp' only lives on rows 0, 4, 8 — all scenario s0/s1/s2 mix.
        total_n = sum(stats["edp"]["n"] for stats in table.values())
        assert total_n == 3
        assert all(stats["note"]["n"] == 0 for stats in table.values())

    def test_aggregate_unknown_group_column(self, query_wh):
        with pytest.raises(WarehouseError, match="unknown group-by"):
            aggregate(query_wh, group_by=("bogus",), metrics=("stp",))

    def test_group_key(self):
        assert group_key(("diurnal", "sjf")) == "diurnal/sjf"


# ---------------------------------------------------------------------------
# Regression detection


def stats_doc(groups):
    """Baseline-shaped document from {group: {metric: (mean, std, n)}}."""
    return {
        "kind": "sweep-baseline", "schema": 1, "workload": WORKLOAD,
        "groups": {
            group: {
                "n_cells": 3,
                "metrics": {m: {"mean": mean, "std": std, "n": n}
                            for m, (mean, std, n) in metrics.items()},
            }
            for group, metrics in groups.items()
        },
    }


class TestRegress:
    def test_group_stats(self):
        cells = [
            {"scenario": "a", "scheduler": "x", "stp": 10.0},
            {"scenario": "a", "scheduler": "x", "stp": 14.0},
            {"scenario": "a", "scheduler": "y", "stp": 5.0,
             "violation_rate": 0.5},
        ]
        out = group_stats(cells)
        assert out["a/x"]["n_cells"] == 2
        assert out["a/x"]["metrics"]["stp"] == {"mean": 12.0, "std": 2.0, "n": 2}
        assert "violation_rate" not in out["a/x"]["metrics"]
        assert out["a/y"]["metrics"]["violation_rate"]["mean"] == 0.5

    def test_baseline_round_trip(self, tmp_path):
        doc = build_baseline(WORKLOAD, [
            {"scenario": "a", "scheduler": "x", "stp": 10.0}])
        path = write_baseline(tmp_path / "base.json", doc)
        assert load_baseline(path) == doc

    def test_load_baseline_rejects_garbage(self, tmp_path):
        with pytest.raises(WarehouseError, match="unreadable"):
            load_baseline(tmp_path / "missing.json")
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(WarehouseError, match="not a sweep baseline"):
            load_baseline(path)
        path.write_text('{"kind": "sweep-baseline", "schema": 99}')
        with pytest.raises(WarehouseError, match="unsupported"):
            load_baseline(path)

    def test_identical_stores_never_regress(self):
        doc = stats_doc({"a/x": {"stp": (100.0, 1.0, 3),
                                 "violation_rate": (0.1, 0.01, 3)}})
        rows = compare(doc, doc)
        assert len(rows) == 2 and not regressions(rows)

    def test_direction_awareness(self):
        base = stats_doc({"a/x": {"stp": (100.0, 0.0, 3),
                                  "violation_rate": (0.10, 0.0, 3)}})
        worse = stats_doc({"a/x": {"stp": (90.0, 0.0, 3),
                                   "violation_rate": (0.20, 0.0, 3)}})
        better = stats_doc({"a/x": {"stp": (110.0, 0.0, 3),
                                    "violation_rate": (0.05, 0.0, 3)}})
        flagged = {(r["group"], r["metric"])
                   for r in regressions(compare(worse, base))}
        assert flagged == {("a/x", "stp"), ("a/x", "violation_rate")}
        assert not regressions(compare(better, base))

    def test_absolute_floor_swallows_rate_dust(self):
        base = stats_doc({"a/x": {"violation_rate": (0.001, 0.0, 3)}})
        cur = stats_doc({"a/x": {"violation_rate": (0.004, 0.0, 3)}})
        # 3x relative jump, but under the 0.005 absolute floor.
        assert not regressions(compare(cur, base))

    def test_noise_awareness(self):
        quiet = stats_doc({"a/x": {"stp": (100.0, 0.1, 4)}})
        noisy = stats_doc({"a/x": {"stp": (100.0, 20.0, 4)}})
        cur = stats_doc({"a/x": {"stp": (90.0, 0.1, 4)}})
        # A 10% drop regresses against a quiet baseline...
        assert regressions(compare(cur, quiet))
        # ...but is within 3 standard errors of a seed-noisy one.
        assert not regressions(compare(cur, noisy))

    def test_malformed_baseline_entries_are_ungated_not_fatal(self):
        # Hand-edited / truncated baselines must hit the friendly error
        # path (or simply be ungated), never a raw KeyError in CI.
        base = stats_doc({"a/x": {"stp": (100.0, 0.0, 3)}})
        cur = stats_doc({"a/x": {"stp": (100.0, 0.0, 3)},
                         "b/y": {"stp": (1.0, 0.0, 3)}})
        base["groups"]["b/y"] = {"n_cells": 3}  # no metrics key
        rows = compare(cur, base)
        assert [(r["group"], r["metric"]) for r in rows] == [("a/x", "stp")]
        base["groups"]["a/x"]["metrics"]["stp"] = {"mean": 100.0}  # no std/n
        assert compare(cur, base) == []
        base["groups"]["a/x"] = "garbage"
        assert compare(cur, base) == []

    def test_workload_mismatch(self):
        base = stats_doc({"a/x": {"stp": (100.0, 0.0, 3)}})
        cur = json.loads(json.dumps(base))
        cur["workload"] = {"family": "cnn"}
        with pytest.raises(WarehouseError, match="different workloads"):
            compare(cur, base)
        assert compare(cur, base, check_workload=False)

    def test_new_groups_and_metrics_are_ungated(self):
        base = stats_doc({"a/x": {"stp": (100.0, 0.0, 3)}})
        cur = stats_doc({"a/x": {"edp": (5.0, 0.0, 3)},
                         "b/y": {"stp": (1.0, 0.0, 3)}})
        assert compare(cur, base) == []  # nothing present in both

    def test_format_rows_marks_regressions(self):
        base = stats_doc({"a/x": {"stp": (100.0, 0.0, 3)}})
        cur = stats_doc({"a/x": {"stp": (50.0, 0.0, 3)}})
        lines = format_rows(compare(cur, base))
        assert len(lines) == 1 and "<-- REGRESSION" in lines[0]


# ---------------------------------------------------------------------------
# Sweep telemetry


class TestSweepTelemetry:
    def make(self):
        t = {"now": 100.0}
        tel = SweepTelemetry(clock=lambda: t["now"])
        return tel, t

    def test_counts_rates_and_eta(self):
        tel, t = self.make()
        tel.begin(total=10, skipped=2)
        assert tel.throughput == 0.0 and tel.eta_s == float("inf")
        assert "ETA --" in tel.progress_line("a", 2, 10)
        t["now"] = 102.0
        tel.on_cell("a", worker=11, wall_s=1.0, peak_rss_mb=100.0)
        tel.on_cell("b", worker=12, wall_s=3.0, peak_rss_mb=50.0)
        assert tel.completed == 2 and tel.skipped == 2
        assert tel.throughput == pytest.approx(1.0)
        assert tel.remaining == 6
        assert tel.eta_s == pytest.approx(6.0)
        line = tel.progress_line("b", 4, 10)
        assert line.startswith("[4/10] b") and "1.00 cells/s" in line
        assert "ETA 6s" in line and "FAILED" not in line

    def test_failures_surface(self):
        tel, t = self.make()
        tel.begin(total=3, skipped=0)
        t["now"] = 101.0
        tel.on_cell("a", wall_s=0.5)
        tel.on_cell("b", failed=True)
        assert tel.failed == 1 and tel.failures == ["b"]
        assert "[1 FAILED]" in tel.progress_line("b", 2, 3)
        # Failed cells still count toward throughput/ETA.
        assert tel.throughput == pytest.approx(2.0)

    def test_summary_and_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        t = {"now": 0.0}
        tel = SweepTelemetry(registry=registry, clock=lambda: t["now"])
        tel.begin(total=4, skipped=1)
        t["now"] = 2.0
        tel.on_cell("a", worker=7, wall_s=1.0, peak_rss_mb=120.0)
        tel.on_cell("b", worker=7, wall_s=3.0, peak_rss_mb=80.0)
        tel.on_cell("c", worker=9, wall_s=2.0)
        summary = tel.summary()
        assert summary["total_cells"] == 4
        assert summary["completed"] == 3 and summary["skipped"] == 1
        assert summary["workers"] == {"7": 2, "9": 1}
        assert summary["cell_wall_s_mean"] == pytest.approx(2.0)
        assert summary["cell_peak_rss_mb_max"] == pytest.approx(120.0)
        names = registry.names()
        for name in ("sweep.cells_completed", "sweep.cells_failed",
                     "sweep.cells_skipped", "sweep.throughput_cells_per_s",
                     "sweep.eta_s", "sweep.worker.7.cells",
                     "sweep.cell_wall_s"):
            assert name in names, name
        snapshot = registry.snapshot()
        assert snapshot["sweep.cells_completed"] == 3
        assert snapshot["sweep.throughput_cells_per_s"] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Warehouse-backed sweeps


class StopSweep(Exception):
    pass


class TestSweepWarehouse:
    def test_bytes_identical_across_worker_counts(self, tmp_path):
        config = tiny_config()
        run_sweep(config, out_path=tmp_path / "w1", workers=1)
        run_sweep(config, out_path=tmp_path / "w2", workers=2)
        with Warehouse.open(tmp_path / "w1") as a, \
                Warehouse.open(tmp_path / "w2") as b:
            assert a.fingerprint() == b.fingerprint()
            assert len(a) == 4
            # Cost sidecar rows exist (one per cell) but are not checksummed.
            assert sorted(c["key"] for c in a.read_costs()) \
                == sorted(a.completed_keys())
            assert all(c["wall_s"] > 0 and c["worker"] > 0
                       for c in a.read_costs())

    def test_resume_and_grid_growth(self, tmp_path):
        out = tmp_path / "wh"
        first = run_sweep(tiny_config(), out_path=out, workers=1)
        assert first.n_run == 4 and first.n_skipped == 0
        again = run_sweep(tiny_config(), out_path=out, workers=2)
        assert again.n_run == 0 and again.n_skipped == 4
        grown = run_sweep(tiny_config(seeds=(0, 1, 2)), out_path=out, workers=1)
        assert grown.n_skipped == 4 and grown.n_run == 2
        assert len(grown.cells) == 6

    def test_workload_change_rejected_unless_forced(self, tmp_path):
        out = tmp_path / "wh"
        run_sweep(tiny_config(), out_path=out, workers=1)
        with pytest.raises(WarehouseError, match="different workload"):
            run_sweep(tiny_config(duration=3.0), out_path=out, workers=1)
        forced = run_sweep(tiny_config(duration=3.0), out_path=out,
                           workers=1, force=True)
        assert forced.n_run == 4 and forced.n_skipped == 0

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        config = tiny_config()
        run_sweep(config, out_path=tmp_path / "clean", workers=1)

        def kill_after_two(key, done, total):
            if done == 2:
                raise StopSweep(key)

        with pytest.raises(StopSweep):
            run_sweep(config, out_path=tmp_path / "torn", workers=1,
                      progress=kill_after_two)
        with Warehouse.open(tmp_path / "torn") as wh:
            assert len(wh) == 2  # the two recorded cells survived the kill
        resumed = run_sweep(config, out_path=tmp_path / "torn", workers=2)
        assert resumed.n_run == 2 and resumed.n_skipped == 2
        with Warehouse.open(tmp_path / "clean") as a, \
                Warehouse.open(tmp_path / "torn") as b:
            assert a.fingerprint() == b.fingerprint()

    def test_failed_cell_keeps_prefix_and_resumes(self, tmp_path, monkeypatch):
        import repro.scenarios.runner as runner_mod

        real = runner_mod._run_cell

        def boom(args):
            if args[1] == "fcfs":
                raise ValueError("injected cell failure")
            return real(args)

        monkeypatch.setattr(runner_mod, "_run_cell", boom)
        config = tiny_config(seeds=(0,))  # grid: steady/sjf, steady/fcfs
        tel = SweepTelemetry()
        with pytest.raises(SchedulingError, match="injected cell failure"):
            run_sweep(config, out_path=tmp_path / "wh", workers=1,
                      telemetry=tel)
        assert tel.failed == 1 and tel.failures == [cell_key("steady", "fcfs", 0)]
        with Warehouse.open(tmp_path / "wh") as wh:
            assert sorted(wh.completed_keys()) == [cell_key("steady", "sjf", 0)]
        monkeypatch.setattr(runner_mod, "_run_cell", real)
        resumed = run_sweep(config, out_path=tmp_path / "wh", workers=1)
        assert resumed.n_run == 1 and resumed.n_skipped == 1

    def test_telemetry_rides_the_sweep(self, tmp_path):
        tel = SweepTelemetry()
        run_sweep(tiny_config(), out_path=tmp_path / "wh", workers=1,
                  telemetry=tel)
        assert tel.completed == 4 and tel.failed == 0
        summary = tel.summary()
        assert summary["workers"] and sum(summary["workers"].values()) == 4
        assert summary["cell_wall_s_mean"] > 0
        # Resume: everything skips, nothing completes.
        tel2 = SweepTelemetry()
        run_sweep(tiny_config(), out_path=tmp_path / "wh", workers=1,
                  telemetry=tel2)
        assert tel2.skipped == 4 and tel2.completed == 0


class TestImportShim:
    def test_import_then_resume(self, tmp_path):
        legacy_cells = json.loads(LEGACY_STORE.read_text())["cells"]
        with import_legacy_json(LEGACY_STORE, tmp_path / "wh") as wh:
            assert wh.read_cells() == legacy_cells
        # The imported warehouse resumes the sweep with nothing to do.
        resumed = run_sweep(SweepConfig(**LEGACY_SWEEP),
                            out_path=tmp_path / "wh", workers=1)
        assert resumed.n_run == 0 and resumed.n_skipped == 1
        # Importing again is idempotent: all cells already present.
        with import_legacy_json(LEGACY_STORE, tmp_path / "wh") as wh:
            assert len(wh) == 1

    def test_import_backfills_keys_the_store_predates(self, tmp_path):
        # The fixture predates the energy / telemetry / alerts / faults
        # workload keys; the import records the values the JSON store
        # implied for them, and a CLI sweep of the same grid then finds
        # every cell done.
        assert main(["warehouse", "import", str(LEGACY_STORE),
                     "--out", str(tmp_path / "wh")]) == 0
        with Warehouse.open(tmp_path / "wh") as wh:
            workload = wh.workload
        assert {key: workload[key] for key in
                ("energy", "telemetry_interval", "alerts", "faults")} == {
            "energy": False, "telemetry_interval": None, "alerts": False,
            "faults": None}
        resumed = run_sweep(SweepConfig(**LEGACY_SWEEP),
                            out_path=tmp_path / "wh", workers=1)
        assert resumed.n_run == 0 and resumed.n_skipped == 1

    @pytest.mark.parametrize("cell", [5, None, [1, 2], "cell"],
                             ids=["int", "null", "list", "string"])
    def test_import_rejects_non_object_cells_before_writing(self, tmp_path,
                                                            cell):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"workload": WORKLOAD,
             "cells": {synth_key(0): synth_cell(0), "a/b/seed0": cell}}))
        with pytest.raises(WarehouseError,
                           match="cell 'a/b/seed0' is not an object"):
            import_legacy_json(path, tmp_path / "wh")
        assert not (tmp_path / "wh").exists()

    def test_import_rejects_non_stores(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(WarehouseError, match="unreadable"):
            import_legacy_json(path, tmp_path / "wh")
        path.write_text('{"cells": []}')
        with pytest.raises(WarehouseError, match="no cells object"):
            import_legacy_json(path, tmp_path / "wh")
        path.write_text('{"cells": {}}')
        with pytest.raises(WarehouseError, match="no workload"):
            import_legacy_json(path, tmp_path / "wh")


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="class")
def cli_store(tmp_path_factory):
    """One real 2-cell sweep shared by every CLI test."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "wh"
    argv = ["scenario", "--scenarios", "steady", "--schedulers", "sjf", "fcfs",
            "--seeds", "0", "--duration", "2", "--samples", "10",
            "--out", str(out)]
    assert main(argv) == 0
    return root


class TestWarehouseCLI:
    def test_scenario_writes_warehouse_and_fleet_line(self, cli_store, capsys):
        capsys.readouterr()
        out = cli_store / "wh"
        assert (out / MANIFEST_NAME).exists()
        argv = ["scenario", "--scenarios", "steady", "--schedulers", "sjf",
                "fcfs", "--seeds", "0", "--duration", "2", "--samples", "10",
                "--out", str(out)]
        assert main(argv) == 0
        resumed = capsys.readouterr().out
        assert "(0 run, 2 skipped)" in resumed
        assert "fleet" not in resumed  # nothing ran, no fleet accounting

    def test_info(self, cli_store, capsys):
        assert main(["warehouse", "info", str(cli_store / "wh")]) == 0
        out = capsys.readouterr().out
        assert "cells           : 2" in out
        assert "cost rows       : 2" in out
        assert '"family": "attnn"' in out

    def test_verify_clean_and_corrupt(self, cli_store, capsys, tmp_path):
        assert main(["warehouse", "verify", str(cli_store / "wh")]) == 0
        # A tail-only store has no segments to checksum; corrupt a sealed one.
        with Warehouse.create(tmp_path / "wh", WORKLOAD, segment_rows=2) as wh:
            fill(wh, 4)
        seg = tmp_path / "wh" / SEGMENT_DIR / "seg-00001.seg"
        seg.write_bytes(seg.read_bytes()[:-1] + b"X")
        # Opening heals the corruption (drops the bad suffix), so what
        # remains checks out — but verify still fails: rows were lost.
        assert main(["warehouse", "verify", str(tmp_path / "wh")]) == 1
        out = capsys.readouterr().out
        assert "recovered: segment seg-00001.seg failed its checksum" in out
        assert "1/1 segments ok" in out

    def test_query_table_distinct_and_json(self, cli_store, capsys):
        store = str(cli_store / "wh")
        assert main(["warehouse", "query", store]) == 0
        table = capsys.readouterr().out
        assert "steady/sjf" in table and "stp mean" in table
        assert main(["warehouse", "query", store,
                     "--distinct", "scheduler"]) == 0
        assert capsys.readouterr().out.split() == ["fcfs", "sjf"]
        assert main(["warehouse", "query", store, "--metrics", "stp",
                     "--where", "scheduler=sjf", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["steady/sjf"] and doc["steady/sjf"]["stp"]["n"] == 1

    def test_query_rejects_bad_where(self, cli_store, capsys):
        assert main(["warehouse", "query", str(cli_store / "wh"),
                     "--where", "notaclause"]) == 1
        assert "bad --where" in capsys.readouterr().err

    def test_import_and_compact(self, cli_store, capsys, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(
            {"workload": WORKLOAD,
             "cells": {synth_key(i): synth_cell(i) for i in range(6)}}))
        out = tmp_path / "imported"
        assert main(["warehouse", "import", str(legacy), "--out", str(out),
                     "--segment-rows", "2"]) == 0
        assert "imported" in capsys.readouterr().out
        assert main(["warehouse", "compact", str(out),
                     "--segment-rows", "4"]) == 0
        assert "3 -> 1 segments" in capsys.readouterr().out

    def test_info_reports_recovery(self, cli_store, capsys, tmp_path):
        with Warehouse.create(tmp_path / "wh", WORKLOAD) as wh:
            fill(wh, 2)
        journal = tmp_path / "wh" / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes() + b"torn")
        assert main(["warehouse", "info", str(tmp_path / "wh")]) == 0
        assert "recovered: dropped a torn" in capsys.readouterr().out


class TestRegressCLI:
    def test_write_baseline_then_pass_then_fail(self, cli_store, capsys):
        store = str(cli_store / "wh")
        baseline = str(cli_store / "baseline.json")
        assert main(["regress", store, "--write-baseline", baseline]) == 0
        assert "2 cell groups" in capsys.readouterr().out

        # Clean: the store trivially matches its own baseline.
        assert main(["regress", store, "--baseline", baseline]) == 0
        captured = capsys.readouterr()
        assert "regression check passed" in captured.out

        # Doctor the baseline so current throughput looks halved.
        doc = json.loads((cli_store / "baseline.json").read_text())
        for group in doc["groups"].values():
            group["metrics"]["stp"]["mean"] *= 2.0
            group["metrics"]["stp"]["std"] = 0.0
        (cli_store / "baseline.json").write_text(json.dumps(doc))
        assert main(["regress", store, "--baseline", baseline]) == 1
        captured = capsys.readouterr()
        assert "SWEEP REGRESSION" in captured.err
        assert "<-- REGRESSION" in captured.out

    def test_json_output(self, cli_store, capsys):
        store = str(cli_store / "wh")
        baseline = str(cli_store / "base2.json")
        assert main(["regress", store, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        assert main(["regress", store, "--baseline", baseline, "--json"]) == 0
        out = capsys.readouterr().out
        doc, _ = json.JSONDecoder().raw_decode(out)  # verdict line follows
        assert doc["regressions"] == 0
        assert all(not row["regressed"] for row in doc["rows"])

    def test_missing_baseline_errors(self, cli_store, capsys):
        assert main(["regress", str(cli_store / "wh"),
                     "--baseline", str(cli_store / "nope.json")]) == 1
        assert "unreadable baseline" in capsys.readouterr().err

    def test_json_store_points_at_import(self, cli_store, capsys, tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_bytes(LEGACY_STORE.read_bytes())
        baseline = tmp_path / "base.json"
        assert main(["regress", str(legacy),
                     "--write-baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "repro warehouse import" in err
        assert not baseline.exists()
