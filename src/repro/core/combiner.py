"""Value Combiner (paper §IV-E, Algorithm 2) and the Maxson scan operator.

``MaxsonScanExec`` replaces the engine's ``ScanExec`` for tables with
cache hits. Per split (one file = one split, the alignment rule of
§IV-C):

* a **PrimaryReader** reads the surviving raw columns of raw file *i*;
* a **CacheReader** reads the requested cached fields of cache file *i*;
* the two value lists are stitched positionally into complete records —
  no join, because the cacher guaranteed identical row counts and order.

Special cases from Algorithm 2 are honoured: when one side needs no
columns the other side's values are returned directly (cache-only reads
are the cheap path the *relevance* score optimises for).

Predicate pushdown (Algorithm 3) plugs in here: an optional SARG over
cached fields is evaluated on the cache file's row-group statistics and
the resulting skip mask is shared with the primary reader when the file
is single-stripe (§IV-F's precondition).

**Graceful degradation.** A cache file that cannot be read — missing,
misaligned with the raw table, transiently erroring, or failing its
stripe/footer checksum — never fails the query and never leaks garbage:
the affected split falls back to parsing the raw JSON column directly,
re-deriving exactly the values the cache would have held (same
extraction, same type coercion). The failure trips the system's circuit
breaker so subsequent queries skip the broken table at plan time until
its quarantine half-opens for a re-probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.batch import ColumnBatch
from ..engine.errors import CatalogError, ExecutionError
from ..engine.physical import ExecState, ScanExec
from ..storage.fs import FsError
from ..storage.orc import CorruptStripeError, OrcError
from ..storage.readers import OrcReader, split_reader
from ..storage.sargs import Sarg
from .cacher import CACHE_DATABASE, CacheEntry, coerce_cache_value
from .extraction import ValueExtractor, path_format

__all__ = ["CachedFieldRequest", "MaxsonScanExec"]


@dataclass(frozen=True)
class CachedFieldRequest:
    """One cached JSONPath this scan must surface.

    ``env_key`` is the row-environment key the matching
    :class:`~repro.engine.expressions.CachedField` placeholder reads.
    """

    entry: CacheEntry
    env_key: str


@dataclass
class MaxsonScanExec(ScanExec):
    """Scan that stitches raw columns with cached JSONPath values."""

    cached_fields: list[CachedFieldRequest] = field(default_factory=list)
    cache_sarg: Sarg | None = None
    """SARG over cached fields (pushed by Algorithm 3)."""
    share_mask_with_primary: bool = True
    breaker: object = None
    """Optional :class:`~repro.core.resilience.CacheCircuitBreaker`."""
    resilience: object = None
    """Optional :class:`~repro.core.resilience.ResilienceStats`."""

    def _label(self) -> str:
        cached = ", ".join(r.entry.field_name for r in self.cached_fields)
        sarg = " +cache_sarg" if self.cache_sarg else ""
        return (
            f"MaxsonScan {self.database}.{self.table} cols={self.columns} "
            f"cached=[{cached}]{sarg}"
        )

    # ------------------------------------------------------------------
    def execute_batch(self, state: ExecState) -> ColumnBatch:
        """Columnar Value Combiner: stitch split columns, not rows.

        A failing cache split falls back to raw parsing for that split
        only; the stitched values flow through as columns, so no per-row
        dicts are built on the cached fast path.
        """
        if not self.cached_fields:
            return super().execute_batch(state)
        started = time.perf_counter()
        cache_table = self.cached_fields[0].entry.cache_table
        for request in self.cached_fields:
            if request.entry.cache_table != cache_table:
                raise ExecutionError(
                    "cached fields of one scan must come from one cache table"
                )
        raw_files = state.catalog.table_files(self.database, self.table)
        try:
            cache_files = state.catalog.table_files(CACHE_DATABASE, cache_table)
        except (CatalogError, FsError):
            cache_files = None
        field_names = [r.entry.field_name for r in self.cached_fields]
        env_keys = [r.env_key for r in self.cached_fields]

        names = list(self.columns)
        columns_out: dict[str, list] = {name: [] for name in self.columns}
        if self.alias:
            for name in self.columns:
                qualified = f"{self.alias}.{name}"
                columns_out[qualified] = columns_out[name]
                names.append(qualified)
        for env_key in env_keys:
            columns_out[env_key] = []
            names.append(env_key)
        length = 0
        fallback_splits = 0
        combine_span = (
            state.tracer.begin("combine", splits=len(raw_files))
            if state.tracer is not None
            else None
        )

        def extend(split_columns: dict, split_length: int) -> None:
            nonlocal length
            for name in self.columns:
                columns_out[name].extend(split_columns[name])
            for env_key in env_keys:
                columns_out[env_key].extend(split_columns[env_key])
            length += split_length

        if cache_files is None or len(cache_files) != len(raw_files):
            # The cache table vanished or is file-misaligned (e.g. a
            # refresh died mid-append). Raw parsing answers the whole
            # scan; the breaker quarantines the table.
            self._note_cache_failure(cache_table, None)
            for raw_path in raw_files:
                state.check_cancelled()
                extend(*self._fallback_columns(state, raw_path))
            fallback_splits = len(raw_files)
        else:
            for split_index in range(len(raw_files)):
                state.check_cancelled()
                try:
                    split_columns, split_length = self._split_columns(
                        state,
                        raw_files[split_index],
                        cache_files[split_index],
                        field_names,
                        env_keys,
                    )
                except (FsError, OrcError, ExecutionError) as exc:
                    # Cache-side failure on this split only: transient fs
                    # error, checksum mismatch, corrupt file structure or
                    # a row-count mismatch. Degrade, never guess.
                    self._note_cache_failure(cache_table, exc)
                    fallback_splits += 1
                    split_columns, split_length = self._fallback_columns(
                        state, raw_files[split_index]
                    )
                extend(split_columns, split_length)
        if combine_span is not None:
            combine_span.attributes["fallback_splits"] = fallback_splits
            combine_span.attributes["degraded"] = bool(fallback_splits)
            state.tracer.end(combine_span)
        if fallback_splits:
            # Per-query degraded marker: the session's result cache
            # checks it to keep degraded answers out of admission.
            state.metrics.extra["degraded_splits"] = (
                state.metrics.extra.get("degraded_splits", 0) + fallback_splits
            )
            if self.resilience is not None:
                self.resilience.add("fallback_queries")
                self.resilience.add("fallback_splits", fallback_splits)
        else:
            state.metrics.cache_hits += len(self.cached_fields)
            if self.breaker is not None:
                # A fully-validated read: closes an open/half-open breaker
                # (the successful re-probe) and is a no-op otherwise.
                self.breaker.record_success(cache_table)
        state.metrics.rows_scanned += length
        state.metrics.read_seconds += time.perf_counter() - started
        return ColumnBatch(names, columns_out, length)

    # ------------------------------------------------------------------
    # morsel API: the same Value Combiner, one split at a time
    # ------------------------------------------------------------------
    def morsel_units(self, state: ExecState) -> list:
        """(raw file, cache file) pairs, one per split.

        The whole-scan decisions of :meth:`execute_batch` — cache-table
        consistency and file alignment — happen here on the coordinator,
        exactly once; a misaligned cache degrades every unit to raw
        parsing (``cache_path`` None) just like the serial path.
        """
        if not self.cached_fields:
            return super().morsel_units(state)
        cache_table = self.cached_fields[0].entry.cache_table
        for request in self.cached_fields:
            if request.entry.cache_table != cache_table:
                raise ExecutionError(
                    "cached fields of one scan must come from one cache table"
                )
        raw_files = state.catalog.table_files(self.database, self.table)
        try:
            cache_files = state.catalog.table_files(CACHE_DATABASE, cache_table)
        except (CatalogError, FsError):
            cache_files = None
        if cache_files is None or len(cache_files) != len(raw_files):
            self._note_cache_failure(cache_table, None)
            return [(raw_path, None) for raw_path in raw_files]
        return list(zip(raw_files, cache_files))

    def morsel_output_names(self) -> list[str]:
        names = super().morsel_output_names()
        names.extend(request.env_key for request in self.cached_fields)
        return names

    def run_morsel(self, state: ExecState, unit) -> tuple[ColumnBatch, bool]:
        """Algorithm 2 for one split, with split-local degraded fallback.

        Runs on a worker thread: only worker-local ``state`` and the
        thread-safe breaker/resilience objects are touched. The shared
        skip mask (Algorithm 3) is computed inside ``_split_columns``,
        once per split, and handed to both readers of this worker.
        """
        if not self.cached_fields:
            return super().run_morsel(state, unit)
        state.check_cancelled()
        started = time.perf_counter()
        raw_path, cache_path = unit
        cache_table = self.cached_fields[0].entry.cache_table
        field_names = [r.entry.field_name for r in self.cached_fields]
        env_keys = [r.env_key for r in self.cached_fields]
        fallback = False
        if cache_path is None:
            columns, length = self._fallback_columns(state, raw_path)
            fallback = True
        else:
            try:
                columns, length = self._split_columns(
                    state, raw_path, cache_path, field_names, env_keys
                )
            except (FsError, OrcError, ExecutionError) as exc:
                self._note_cache_failure(cache_table, exc)
                fallback = True
                columns, length = self._fallback_columns(state, raw_path)
        names = list(self.columns)
        out: dict[str, list] = {name: columns[name] for name in self.columns}
        if self.alias:
            for name in self.columns:
                qualified = f"{self.alias}.{name}"
                out[qualified] = out[name]
                names.append(qualified)
        for env_key in env_keys:
            out[env_key] = columns[env_key]
            names.append(env_key)
        state.metrics.rows_scanned += length
        state.metrics.read_seconds += time.perf_counter() - started
        return ColumnBatch(names, out, length), fallback

    def finish_morsels(self, state: ExecState, fallback_splits: int) -> None:
        """Whole-scan accounting, mirroring the serial combiner exactly:
        any degraded split marks the query degraded; a fully-validated
        scan counts its cache hits and closes the breaker."""
        if not self.cached_fields:
            return
        cache_table = self.cached_fields[0].entry.cache_table
        if fallback_splits:
            # Per-query degraded marker: the session's result cache
            # checks it to keep degraded answers out of admission.
            state.metrics.extra["degraded_splits"] = (
                state.metrics.extra.get("degraded_splits", 0) + fallback_splits
            )
            if self.resilience is not None:
                self.resilience.add("fallback_queries")
                self.resilience.add("fallback_splits", fallback_splits)
        else:
            state.metrics.cache_hits += len(self.cached_fields)
            if self.breaker is not None:
                self.breaker.record_success(cache_table)

    def _note_cache_failure(self, cache_table: str, exc: Exception | None) -> None:
        log = getattr(self, "failure_log", None)
        if log is not None:
            # Process-backend worker replica: breaker/resilience are
            # stripped (they hold coordinator locks), so the failure is
            # recorded for split-ordered replay on the coordinator.
            log.append(
                (cache_table, isinstance(exc, (CorruptStripeError, OrcError)))
            )
        if self.breaker is not None:
            self.breaker.record_failure(cache_table)
        if self.resilience is not None and isinstance(
            exc, (CorruptStripeError, OrcError)
        ):
            self.resilience.add("corruption_events")

    def replay_cache_failures(self, entries: list) -> None:
        """Coordinator-side replay of worker-recorded cache failures.

        ``entries`` is one split's ``failure_log``:
        ``(cache_table, is_corruption)`` tuples, replayed in split order
        so breaker trips and corruption counters match what the thread
        backend records while executing the same splits itself.
        """
        for cache_table, corruption in entries:
            if self.breaker is not None:
                self.breaker.record_failure(cache_table)
            if self.resilience is not None and corruption:
                self.resilience.add("corruption_events")

    # ------------------------------------------------------------------
    def _fallback_columns(
        self, state: ExecState, raw_path: str
    ) -> tuple[dict[str, list], int]:
        """Answer one split without its cache file: parse the raw column.

        Re-derives exactly the values the cache file would have held —
        same extraction, same :func:`coerce_cache_value` coercion — so a
        degraded query is row-identical to the cached one, just slower.
        """
        read_columns = list(self.columns)
        formats_by_column: dict[str, set[str]] = {}
        for request in self.cached_fields:
            column = request.entry.key.column
            if column not in read_columns:
                read_columns.append(column)
            formats_by_column.setdefault(column, set()).add(
                path_format(request.entry.key.path)
            )
        reader = split_reader(
            state.catalog.fs, raw_path, columns=read_columns, sarg=self.sarg
        )
        result = reader.read()
        state.metrics.bytes_read += result.bytes_read
        state.metrics.row_groups_total += result.row_groups_total
        state.metrics.row_groups_skipped += result.row_groups_skipped
        series = {name: result.columns[name] for name in read_columns}
        extractor = ValueExtractor()
        columns: dict[str, list] = {
            name: series[name] for name in self.columns
        }
        env_series: dict[str, list] = {
            request.env_key: [] for request in self.cached_fields
        }
        parse_span = (
            state.tracer.begin(
                "parse", split=str(raw_path), degraded=True
            )
            if state.tracer is not None
            else None
        )
        for i in range(result.rows_read):
            if i % 256 == 0:
                state.check_cancelled()
            documents = {
                column: extractor.decode(series[column][i], formats)
                for column, formats in formats_by_column.items()
            }
            for request in self.cached_fields:
                value = extractor.evaluate(
                    documents[request.entry.key.column], request.entry.key.path
                )
                env_series[request.env_key].append(
                    coerce_cache_value(value, request.entry.dtype)
                )
        columns.update(env_series)
        for parser in (extractor.json_parser, extractor.xml_parser):
            state.metrics.parse_seconds += parser.stats.seconds
            state.metrics.parse_documents += parser.stats.documents
            state.metrics.parse_bytes += parser.stats.bytes_scanned
        if parse_span is not None:
            parse_span.attributes.update(
                rows=result.rows_read,
                parse_documents=extractor.json_parser.stats.documents
                + extractor.xml_parser.stats.documents,
                parse_bytes=extractor.json_parser.stats.bytes_scanned
                + extractor.xml_parser.stats.bytes_scanned,
            )
            state.tracer.end(parse_span)
        return columns, result.rows_read

    def _split_columns(
        self,
        state: ExecState,
        raw_path: str,
        cache_path: str,
        field_names: list[str],
        env_keys: list[str],
    ) -> tuple[dict[str, list], int]:
        """Algorithm 2 for one (raw file, cache file) pair."""
        fs = state.catalog.fs
        cache_reader = OrcReader(
            fs, cache_path, columns=field_names, sarg=self.cache_sarg
        )

        if not self.columns:
            # "when one reader has no value to read, we will directly
            # return the value of the other reader" — the cache-only read.
            cache_result = cache_reader.read()
            state.metrics.bytes_read += cache_result.bytes_read
            state.metrics.row_groups_total += cache_result.row_groups_total
            state.metrics.row_groups_skipped += cache_result.row_groups_skipped
            return (
                {
                    env_key: cache_result.columns[name]
                    for env_key, name in zip(env_keys, field_names)
                },
                cache_result.rows_read,
            )

        primary_reader = split_reader(
            fs, raw_path, columns=self.columns, sarg=self.sarg
        )
        can_align = (
            self.share_mask_with_primary
            and cache_reader.can_align_row_groups()
            and primary_reader.can_align_row_groups()
            and len(cache_reader.row_group_mask)
            == len(primary_reader.row_group_mask)
        )
        if can_align:
            # Algorithm 3 line 7: both readers skip exactly the row groups
            # eliminated by *either* side's SARG — the cache reader's skip
            # array is shared with the primary reader, and vice versa.
            combined = [
                a and b
                for a, b in zip(
                    cache_reader.row_group_mask, primary_reader.row_group_mask
                )
            ]
            cache_reader.share_row_group_mask(combined)
            primary_reader.share_row_group_mask(combined)
        else:
            # Cannot align (multi-stripe or layout mismatch): read both
            # sides fully; the residual filter preserves correctness.
            cache_reader = OrcReader(fs, cache_path, columns=field_names)
            primary_reader = split_reader(fs, raw_path, columns=self.columns)
        cache_result = cache_reader.read()
        primary_result = primary_reader.read()
        for result in (cache_result, primary_result):
            state.metrics.bytes_read += result.bytes_read
            state.metrics.row_groups_total += result.row_groups_total
            state.metrics.row_groups_skipped += result.row_groups_skipped

        if primary_result.rows_read != cache_result.rows_read:
            raise ExecutionError(
                "value combiner row mismatch in split "
                f"{raw_path!r}: primary={primary_result.rows_read} "
                f"cache={cache_result.rows_read}"
            )

        # Stitch: place each value at its schema position (here, its
        # env key) to form the complete record.
        columns: dict[str, list] = {
            name: primary_result.columns[name] for name in self.columns
        }
        for env_key, name in zip(env_keys, field_names):
            columns[env_key] = cache_result.columns[name]
        return columns, primary_result.rows_read

    def output_names(self) -> set[str]:
        names = super().output_names()
        names |= {r.env_key for r in self.cached_fields}
        return names
