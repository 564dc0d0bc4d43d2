"""Append-only, columnar, crash-recoverable sweep result store.

A :class:`Warehouse` is a directory holding one sweep grid's results:

* ``manifest.json`` — the workload parameters, the segment roll (name,
  rows, CRC-32) and the sealing chunk size.  Rewritten atomically and only
  when a segment seals — never per cell.
* ``segments/seg-NNNNN.seg`` — immutable columnar chunks: a one-line JSON
  header (column names, kinds, byte extents, missing-row indices) followed
  by the raw little-endian column payloads.  Numeric columns are
  ``float64``/``int64`` buffers decoded straight into numpy; everything
  else (names, nested telemetry tables, alert lists) is a JSON column.
* ``journal.jsonl`` — the mutable tail: one CRC-framed JSON line per
  appended cell.  Appending is O(1), and when the tail reaches
  ``segment_rows`` rows it seals into the next segment and the journal
  truncates.
* ``costs.jsonl`` — non-deterministic sidecar (per-cell wall-clock, peak
  RSS, worker pid).  Deliberately outside the manifest/checksum envelope:
  everything *inside* it is a pure function of the workload, so two sweeps
  of the same grid are byte-identical whatever the worker count, and an
  interrupted sweep resumes to the exact bytes of an uninterrupted one.

**Determinism contract.**  Rows must be appended in one globally
deterministic order (the sweep runner's grid order).  Under that
discipline the recovery rule is simple and total: the store's valid state
is always the longest checksum-valid *prefix* of (segments, journal), so
recovery truncates to that prefix and a resume re-appends the missing
suffix — reproducing, byte for byte, the store an uninterrupted run would
have written.

Crash windows and how :meth:`Warehouse.open` heals them:

* torn journal line (killed mid-append) — the CRC frame fails; the journal
  is truncated to its last valid line;
* torn segment (killed mid-seal, or a later truncation) — the CRC-32 in
  the manifest fails; that segment, every later segment and the journal
  are discarded (suffix truncation keeps the deterministic order);
* segment written but manifest not yet updated — the orphan segment file
  is deleted, its rows are still in the journal, and the now-full-size
  journal tail is immediately re-sealed so segment boundaries stay where
  an uninterrupted run would have put them;
* manifest updated but journal not yet truncated — journal rows whose keys
  already live in sealed segments are dropped and the journal rewritten.

:meth:`Warehouse.compact` follows the same discipline: rows leaving the
sealed prefix are spilled to the journal before the manifest stops
referencing their old segments, so a crash mid-compact recovers to either
the old or the compacted layout — never a truncated one.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import zlib
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import WarehouseError

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
COSTS_NAME = "costs.jsonl"
SEGMENT_DIR = "segments"
SEGMENT_MAGIC = "repro-warehouse-seg"
MANIFEST_SCHEMA = 1
#: Rows per sealed segment unless the manifest says otherwise.
DEFAULT_SEGMENT_ROWS = 256
#: Reserved column carrying each row's cell key.
KEY_COLUMN = "cell_key"


def _canon(doc) -> str:
    """Canonical compact JSON: the only serialization written to disk."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def segment_name(index: int) -> str:
    return f"seg-{index:05d}.seg"


def _require_dir(root: Path) -> None:
    """Refuse a warehouse root that exists but is not a directory."""
    if root.exists() and not root.is_dir():
        raise WarehouseError(
            f"{root} is a file, not a warehouse directory; a JSON sweep "
            f"store converts with `repro warehouse import {root} --out DIR`"
        )


# ---------------------------------------------------------------------------
# Columnar segment encoding


def encode_segment(rows: List[Tuple[str, Dict]]) -> bytes:
    """Encode ``(key, cell)`` rows as one immutable columnar segment.

    Column order is sorted by name (the key column first), kinds are
    derived from the present values — ``i8`` when every one is an int and
    no row is missing, ``f8`` when ints and floats mix, ``json`` otherwise
    (including gappy int columns, keeping their values int) — and rows
    where a column is absent are listed in the header's ``missing``
    indices, so decoding reconstructs each cell dict exactly.  Every byte
    is a pure function of the rows: same rows, same segment.
    """
    if not rows:
        raise WarehouseError("cannot encode an empty segment")
    names = sorted({name for _, cell in rows for name in cell})
    columns = []
    payloads = []
    for name, values, missing in _iter_columns(names, rows):
        present = [v for i, v in enumerate(values) if i not in missing]
        entry: Dict = {"name": name}
        numeric = present and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in present
        )
        all_int = numeric and all(isinstance(v, int) for v in present)
        if all_int and not missing:
            entry["kind"] = "i8"
            payload = np.asarray(values, dtype="<i8").tobytes()
        elif numeric and not all_int:
            entry["kind"] = "f8"
            filled = [np.nan if i in missing else float(v)
                      for i, v in enumerate(values)]
            payload = np.asarray(filled, dtype="<f8").tobytes()
        else:
            # json carries strings/nested values — and int columns with
            # gaps: a numeric payload has no int-preserving hole marker,
            # so it would come back float and re-encode to different bytes.
            entry["kind"] = "json"
            filled = [None if i in missing else v
                      for i, v in enumerate(values)]
            payload = _canon(filled).encode()
        entry["nbytes"] = len(payload)
        if missing:
            entry["missing"] = sorted(missing)
        columns.append(entry)
        payloads.append(payload)
    header = _canon({
        "columns": columns,
        "magic": SEGMENT_MAGIC,
        "rows": len(rows),
        "version": 1,
    })
    return header.encode() + b"\n" + b"".join(payloads)


def _iter_columns(names, rows):
    """Yield ``(name, values, missing_row_indices)`` — key column first."""
    yield KEY_COLUMN, [key for key, _ in rows], set()
    for name in names:
        values = [cell.get(name) for _, cell in rows]
        missing = {i for i, (_, cell) in enumerate(rows) if name not in cell}
        yield name, values, missing


def decode_segment(data: bytes,
                   columns: Optional[Iterable[str]] = None) -> Dict[str, object]:
    """Decode a segment buffer into ``{name: values}`` columns.

    ``i8``/``f8`` columns come back as numpy arrays (missing rows as
    NaN), ``json`` columns as Python lists with ``None`` holes.
    ``columns`` restricts decoding; unnamed payloads are skipped without
    parsing.  The key column is always included.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise WarehouseError("segment has no header line")
    try:
        header = json.loads(data[:newline])
    except ValueError as exc:
        raise WarehouseError(f"segment header is not JSON ({exc})") from None
    if header.get("magic") != SEGMENT_MAGIC:
        raise WarehouseError("segment magic mismatch")
    wanted = None if columns is None else set(columns) | {KEY_COLUMN}
    out: Dict[str, object] = {}
    offset = newline + 1
    for entry in header["columns"]:
        name, kind, nbytes = entry["name"], entry["kind"], entry["nbytes"]
        payload = data[offset:offset + nbytes]
        offset += nbytes
        if len(payload) != nbytes:
            raise WarehouseError(f"segment column {name!r} is truncated")
        if wanted is not None and name not in wanted:
            continue
        missing = entry.get("missing", [])
        if kind == "json":
            out[name] = json.loads(payload)
        elif kind == "i8" and not missing:
            out[name] = np.frombuffer(payload, dtype="<i8")
        else:
            values = np.array(
                np.frombuffer(payload, dtype="<i8" if kind == "i8" else "<f8"),
                dtype=np.float64,
            )
            values[missing] = np.nan
            out[name] = values
    return out


def rows_from_columns(batch: Dict[str, object]) -> Iterator[Tuple[str, Dict]]:
    """Invert a decoded batch back into ``(key, cell)`` rows."""
    keys = batch[KEY_COLUMN]
    names = [name for name in batch if name != KEY_COLUMN]
    for i, key in enumerate(keys):
        cell = {}
        for name in names:
            values = batch[name]
            value = values[i]
            if isinstance(values, np.ndarray):
                if np.isnan(value):
                    continue  # missing numeric cell
                value = int(value) if values.dtype.kind == "i" else float(value)
            elif value is None:
                continue  # missing json cell
            cell[name] = value
        yield key, cell


# ---------------------------------------------------------------------------
# Journal framing


def frame_journal_line(key: str, cell: Dict) -> bytes:
    doc = _canon({"cell": cell, "key": key}).encode()
    return f"{_crc(doc):08x} ".encode() + doc + b"\n"


def parse_journal_line(line: bytes) -> Optional[Tuple[str, Dict]]:
    """Decode one framed journal line; ``None`` if torn/corrupt."""
    if not line.endswith(b"\n") or len(line) < 11 or line[8:9] != b" ":
        return None
    doc = line[9:-1]
    try:
        if int(line[:8], 16) != _crc(doc):
            return None
        payload = json.loads(doc)
    except ValueError:
        return None
    if not isinstance(payload, dict) or "key" not in payload:
        return None
    return payload["key"], payload.get("cell", {})


# ---------------------------------------------------------------------------
# The warehouse


class Warehouse:
    """One sweep grid's append-only columnar result store (see module doc)."""

    def __init__(self, root: Union[str, Path], manifest: Dict,
                 tail: List[Tuple[str, Dict]], keys: set,
                 recovered: List[str]):
        self.root = Path(root)
        self._manifest = manifest
        self._tail = tail
        self._keys = keys
        #: Human-readable notes about what :meth:`open` had to heal.
        self.recovered = recovered
        self._journal_fh = open(self.root / JOURNAL_NAME, "ab")

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, root: Union[str, Path], workload: Dict, *,
               segment_rows: int = DEFAULT_SEGMENT_ROWS,
               force: bool = False) -> "Warehouse":
        root = Path(root)
        _require_dir(root)
        if (root / MANIFEST_NAME).exists() and not force:
            raise WarehouseError(f"{root} already holds a warehouse")
        if segment_rows < 1:
            raise WarehouseError(f"segment_rows must be >= 1, got {segment_rows}")
        if force and root.exists():
            if (root / MANIFEST_NAME).exists():
                shutil.rmtree(root)
            elif any(root.iterdir()):
                raise WarehouseError(
                    f"{root} exists but is not a warehouse; refusing to "
                    f"overwrite it — delete it manually if that is really "
                    f"what you want"
                )
        (root / SEGMENT_DIR).mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "segment_rows": int(segment_rows),
            "segments": [],
            "workload": json.loads(json.dumps(workload)),
        }
        _atomic_write(root / MANIFEST_NAME,
                      (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        (root / JOURNAL_NAME).touch()
        return cls(root, manifest, [], set(), [])

    @classmethod
    def open(cls, root: Union[str, Path]) -> "Warehouse":
        """Open an existing warehouse, healing any interrupted-write state."""
        root = Path(root)
        _require_dir(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise WarehouseError(f"{root} is not a warehouse (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise WarehouseError(f"{manifest_path}: corrupt manifest ({exc})") from None
        if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
            raise WarehouseError(
                f"{manifest_path}: unsupported warehouse schema "
                f"{manifest.get('schema')!r}"
            )
        recovered: List[str] = []
        keys: set = set()
        seg_dir = root / SEGMENT_DIR
        seg_dir.mkdir(exist_ok=True)

        # Longest valid segment prefix; everything after a bad segment goes.
        valid: List[Dict] = []
        truncated = False
        for entry in manifest.get("segments", []):
            path = seg_dir / entry["name"]
            data = path.read_bytes() if path.exists() else None
            if data is None or _crc(data) != entry["crc32"]:
                recovered.append(
                    f"segment {entry['name']} "
                    f"{'missing' if data is None else 'failed its checksum'}; "
                    f"dropped it and everything after"
                )
                truncated = True
                break
            batch = decode_segment(data, columns=())
            keys.update(batch[KEY_COLUMN])
            valid.append(entry)
        if truncated:
            manifest["segments"] = valid
            _atomic_write(manifest_path,
                          (json.dumps(manifest, indent=2, sort_keys=True)
                           + "\n").encode())
        listed = {entry["name"] for entry in manifest["segments"]}
        for path in sorted(seg_dir.iterdir()):
            if path.name not in listed:
                path.unlink()
                recovered.append(f"deleted orphan segment file {path.name}")

        # Journal: longest valid line prefix, minus rows already sealed.
        tail: List[Tuple[str, Dict]] = []
        journal_path = root / JOURNAL_NAME
        raw = journal_path.read_bytes() if journal_path.exists() else b""
        kept = bytearray()
        if truncated:
            if raw:
                recovered.append(
                    "discarded the journal (it follows the dropped segments)"
                )
            raw = b""
        pos = 0
        while pos < len(raw):
            end = raw.find(b"\n", pos)
            if end < 0:
                recovered.append("dropped a torn trailing journal line")
                break
            line = raw[pos:end + 1]
            parsed = parse_journal_line(line)
            if parsed is None:
                recovered.append("dropped a corrupt journal line and its tail")
                break
            key, cell = parsed
            if key in keys:
                recovered.append(f"dropped journal row {key!r} already sealed")
            else:
                keys.add(key)
                tail.append((key, cell))
                kept += line
            pos = end + 1
        if bytes(kept) != raw:
            _atomic_write(journal_path, bytes(kept))
        wh = cls(root, manifest, tail, keys, recovered)
        # A crash between the segment write and the manifest update leaves
        # a full-size journal tail (the orphan segment's rows).  Complete
        # the interrupted seal now — deferring it would shift every later
        # segment boundary and break byte-identity with an uninterrupted
        # run.
        while len(wh._tail) >= wh.segment_rows:
            name = wh._seal_rows(wh.segment_rows)
            recovered.append(
                f"completed an interrupted seal into segment {name}")
        return wh

    @classmethod
    def open_or_create(cls, root: Union[str, Path], workload: Dict, *,
                       segment_rows: int = DEFAULT_SEGMENT_ROWS,
                       force: bool = False) -> "Warehouse":
        """Open (validating the workload) or create the warehouse at ``root``.

        An existing warehouse under *different* workload parameters is
        refused rather than silently mixed.
        """
        root = Path(root)
        if force or not (root / MANIFEST_NAME).exists():
            return cls.create(root, workload, segment_rows=segment_rows,
                              force=force)
        wh = cls.open(root)
        expected = json.loads(json.dumps(workload))
        if wh.workload != expected:
            raise WarehouseError(
                f"{root} holds a sweep under different workload parameters "
                f"({wh.workload} vs {expected}); choose another path or pass "
                f"force to overwrite it"
            )
        return wh

    def close(self) -> None:
        if not self._journal_fh.closed:
            self._journal_fh.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- properties ----------------------------------------------------------

    @property
    def workload(self) -> Dict:
        return self._manifest["workload"]

    @property
    def segment_rows(self) -> int:
        return int(self._manifest["segment_rows"])

    @property
    def segments(self) -> List[Dict]:
        return list(self._manifest["segments"])

    @property
    def num_segments(self) -> int:
        return len(self._manifest["segments"])

    @property
    def num_sealed(self) -> int:
        return sum(entry["rows"] for entry in self._manifest["segments"])

    @property
    def tail_rows(self) -> int:
        return len(self._tail)

    def __len__(self) -> int:
        return self.num_sealed + len(self._tail)

    def completed_keys(self) -> FrozenSet[str]:
        return frozenset(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    # -- writes --------------------------------------------------------------

    def append(self, key: str, cell: Dict) -> None:
        """Append one cell: O(1) journal write, sealing every Nth row.

        ``None``-valued and NaN-valued fields are normalized to *absent* —
        both mean "this cell has no such measurement", and collapsing them
        keeps the encoding canonical: appending a round-tripped cell
        reproduces the original bytes.
        """
        if key in self._keys:
            raise WarehouseError(f"cell {key!r} already in the warehouse")
        if KEY_COLUMN in cell:
            raise WarehouseError(f"cell may not define the reserved "
                                 f"{KEY_COLUMN!r} column")
        cell = {
            name: value for name, value in cell.items()
            if value is not None
            and not (isinstance(value, float) and math.isnan(value))
        }
        self._journal_fh.write(frame_journal_line(key, cell))
        self._journal_fh.flush()
        self._keys.add(key)
        self._tail.append((key, cell))
        if len(self._tail) >= self.segment_rows:
            self.seal_tail()

    def seal_tail(self) -> Optional[str]:
        """Seal the journal tail into the next immutable segment.

        Called automatically at every ``segment_rows``-th append; calling
        it early (e.g. before archiving) produces an undersized segment
        that a later :meth:`compact` will fold back into the standard
        chunking.  Returns the new segment's name, or ``None`` when the
        tail is empty.
        """
        if not self._tail:
            return None
        return self._seal_rows(len(self._tail))

    def _seal_rows(self, count: int) -> str:
        """Seal the first ``count`` tail rows into the next segment.

        Three atomic file writes, ordered so a crash between any two of
        them recovers losslessly on :meth:`open`: segment first (crash ->
        orphan file, rows still journalled, seal re-runs), manifest second
        (crash -> journal rows duplicate sealed ones and are dropped),
        journal rewrite last.
        """
        chunk, rest = self._tail[:count], self._tail[count:]
        name = segment_name(len(self._manifest["segments"]))
        data = encode_segment(chunk)
        _atomic_write(self.root / SEGMENT_DIR / name, data)
        self._manifest["segments"].append(
            {"crc32": _crc(data), "name": name, "rows": len(chunk)}
        )
        self._write_manifest()
        self._rewrite_journal(rest)
        self._tail = rest
        return name

    def _write_manifest(self) -> None:
        _atomic_write(self.root / MANIFEST_NAME,
                      (json.dumps(self._manifest, indent=2, sort_keys=True)
                       + "\n").encode())

    def _rewrite_journal(self, rows: List[Tuple[str, Dict]]) -> None:
        """Atomically replace the journal with frames for ``rows``."""
        self._journal_fh.close()
        _atomic_write(self.root / JOURNAL_NAME,
                      b"".join(frame_journal_line(key, cell)
                               for key, cell in rows))
        self._journal_fh = open(self.root / JOURNAL_NAME, "ab")

    def compact(self, *, segment_rows: Optional[int] = None) -> Dict[str, int]:
        """Re-chunk every row into full-size segments, preserving order.

        Merges undersized segments (from :meth:`seal_tail` or historical
        smaller ``segment_rows``) into the standard chunking — the exact
        layout a fresh uninterrupted run would have produced.  Offline
        operation (don't run it concurrently with a sweep), but crash-safe:
        rows leaving the sealed prefix are spilled to the journal before
        the manifest stops referencing their old segments, so at every
        point the store's recoverable state holds every row — a crash
        mid-compact resumes to either the old or the compacted layout.
        """
        rows = list(self.iter_cells())
        if segment_rows is not None:
            if segment_rows < 1:
                raise WarehouseError(
                    f"segment_rows must be >= 1, got {segment_rows}")
            self._manifest["segment_rows"] = int(segment_rows)
        chunk = self.segment_rows
        before = len(self._manifest["segments"])
        # Longest prefix of sealed segments already in final form; only
        # the suffix is rewritten, which also makes the aligned case a
        # byte-for-byte no-op.
        keep = 0
        for index, entry in enumerate(self._manifest["segments"]):
            if entry["rows"] != chunk or entry["name"] != segment_name(index):
                break
            data = encode_segment(rows[index * chunk:(index + 1) * chunk])
            if entry["crc32"] != _crc(data):
                break
            keep += 1
        spill = rows[keep * chunk:]
        self._rewrite_journal(spill)
        self._manifest["segments"] = self._manifest["segments"][:keep]
        self._write_manifest()
        self._tail = spill
        while len(self._tail) >= chunk:
            self._seal_rows(chunk)
        seg_dir = self.root / SEGMENT_DIR
        listed = {entry["name"] for entry in self._manifest["segments"]}
        for path in sorted(seg_dir.iterdir()):
            if path.name not in listed:
                path.unlink()
        return {"rows": len(rows), "segments_before": before,
                "segments_after": len(self._manifest["segments"]),
                "tail_rows": len(self._tail)}

    # -- reads ---------------------------------------------------------------

    def iter_batches(self, columns: Optional[Iterable[str]] = None
                     ) -> Iterator[Dict[str, object]]:
        """Yield one decoded column batch per segment, then the tail.

        Never materializes the whole store: each batch is independent, so
        filters and aggregations stream segment by segment.
        """
        for entry in self._manifest["segments"]:
            data = (self.root / SEGMENT_DIR / entry["name"]).read_bytes()
            yield decode_segment(data, columns=columns)
        if self._tail:
            yield decode_segment(encode_segment(self._tail), columns=columns)

    def iter_cells(self) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(key, cell)`` rows in append order."""
        for entry in self._manifest["segments"]:
            data = (self.root / SEGMENT_DIR / entry["name"]).read_bytes()
            for row in rows_from_columns(decode_segment(data)):
                yield row
        for key, cell in self._tail:
            yield key, dict(cell)

    def read_cells(self, keys: Optional[Iterable[str]] = None
                   ) -> Dict[str, Dict]:
        """Cells as a dict, optionally restricted to ``keys``."""
        wanted = None if keys is None else set(keys)
        return {key: cell for key, cell in self.iter_cells()
                if wanted is None or key in wanted}

    def verify(self) -> List[Dict]:
        """Checksum every sealed segment; one status row each."""
        out = []
        for entry in self._manifest["segments"]:
            path = self.root / SEGMENT_DIR / entry["name"]
            ok = path.exists() and _crc(path.read_bytes()) == entry["crc32"]
            out.append({"name": entry["name"], "rows": entry["rows"],
                        "ok": bool(ok)})
        return out

    def fingerprint(self) -> Dict[str, int]:
        """CRC-32 of every *deterministic* file (costs sidecar excluded).

        Two warehouses holding the same grid — whatever worker count or
        interruption history produced them — have equal fingerprints.
        """
        out: Dict[str, int] = {}
        for name in (MANIFEST_NAME, JOURNAL_NAME):
            path = self.root / name
            out[name] = _crc(path.read_bytes()) if path.exists() else 0
        for entry in self._manifest["segments"]:
            path = self.root / SEGMENT_DIR / entry["name"]
            out[f"{SEGMENT_DIR}/{entry['name']}"] = _crc(path.read_bytes())
        return out

    # -- cost sidecar --------------------------------------------------------

    def record_cost(self, key: str, **fields) -> None:
        """Append one row to the non-deterministic cost sidecar."""
        doc = dict(fields)
        doc["key"] = key
        with open(self.root / COSTS_NAME, "a") as fh:
            fh.write(_canon(doc) + "\n")

    def read_costs(self) -> List[Dict]:
        path = self.root / COSTS_NAME
        if not path.exists():
            return []
        out = []
        for line in path.read_text().splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                continue  # torn tail line: the sidecar is best-effort
        return out


#: Workload keys added after the JSON sweep store shipped, with the value
#: that store implied; older files are back-filled on import.
_LEGACY_WORKLOAD_DEFAULTS = {"energy": False, "telemetry_interval": None,
                             "alerts": False, "faults": None}


def import_legacy_json(json_path: Union[str, Path],
                       root: Union[str, Path], *,
                       segment_rows: int = DEFAULT_SEGMENT_ROWS,
                       force: bool = False) -> Warehouse:
    """Import a JSON sweep store into a warehouse.

    The only way in for result files of the retired JSON store: cells land
    in the file's (sorted-key) order, and workload keys the file predates
    are back-filled, so ``run_sweep`` resumes against the warehouse
    exactly as it did against the JSON.  The file is checked in full
    before the warehouse is created.
    """
    json_path = Path(json_path)
    try:
        store = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        raise WarehouseError(f"{json_path}: unreadable sweep store ({exc})") from None
    if not isinstance(store, dict) or not isinstance(store.get("cells"), dict):
        raise WarehouseError(f"{json_path}: not a sweep store (no cells object)")
    workload = store.get("workload")
    if not isinstance(workload, dict):
        raise WarehouseError(f"{json_path}: not a sweep store (no workload)")
    cells = store["cells"]
    for key, cell in cells.items():
        if not isinstance(cell, dict):
            raise WarehouseError(
                f"{json_path}: cell {key!r} is not an object "
                f"(got {type(cell).__name__})"
            )
    wh = Warehouse.open_or_create(root, {**_LEGACY_WORKLOAD_DEFAULTS, **workload},
                                  segment_rows=segment_rows, force=force)
    for key in sorted(cells):
        if key not in wh:
            wh.append(key, cells[key])
    return wh
