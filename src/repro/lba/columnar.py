"""Columnar record pipeline: run-grouped dispatch over decoded columns.

The reference consumer, :meth:`EventDispatcher.consume`, walks one record
object at a time through :meth:`EventAccelerator.process` and per-event
handler dispatch.  This module is the one fast path over it: a chunk
decoded into :class:`repro.trace.codec.RecordColumns` is consumed by
grouping consecutive rows with the same event ordinal *and* field-presence
bitmap into runs, and handing each run to the one step registered for its
ordinal:

* a propagation step applies its Inheritance-Tracking transition row by
  row straight from the columns, interleaved with the row's check events.
  Every register flush -- a store conflicting with an inherited range, a
  check that reads an ``addr``-state register, a ``dest_mem op= reg``
  source -- goes through one ``_flush_register``;
* checking events are classified once per run (the presence bitmap is
  uniform), their Idempotent-Filter keys are built from the columns and
  probed through :meth:`IdempotentFilter.lookup_insert`, and delivered
  events go through per-lifeguard span fast paths
  (:meth:`repro.lifeguards.base.Lifeguard.columnar_handlers`) that skip
  :class:`DeliveredEvent` construction;
* a run of an ordinal that carries no propagation event, or whose event
  IT absorbs unchanged (``reg_self``/``mem_self``), needs no step: the run
  loop counts its rows and hands them to ``_check_rows`` only when its
  bitmap carries a flag of a registered check;
* annotation records, propagation events while IT is off, and ``other``
  events while IT is on (they flush the whole IT table) fall back to the
  scalar :meth:`EventDispatcher.consume`, row by row, inside the same
  pass.  Every replay with the default configuration turns IT on for the
  lifeguards that register propagation handlers.

The steps charge no cycles event by event.  They count delivered events
and their handler instructions, and :meth:`ColumnarEngine._fold` charges
the chunk once: ``nlba`` and handler cycles from those counts, and
mapping, miss-handler and metadata-access cycles from the deltas of the
mapper's counters over the chunk, less what the fallback ``consume`` rows
charged themselves.

Bit-identity contract: for any column set, ``consume_columns(columns)``
leaves the dispatcher, accelerator, IT, IF, M-TLB, mapper and lifeguard in
exactly the state a ``for record: dispatcher.consume(record)`` loop would,
returns the same total lifeguard cycles, and produces the same reports in
the same order (enforced by the conformance matrix in
``tests/lba/test_conformance_matrix.py``).  Two invariants make the
run-grouped interleaving equivalent to the scalar order:

* lifeguard handlers never mutate the accelerator structures (IT/IF), so
  dispatching a delivered event eagerly -- instead of after the record's
  remaining classification -- commutes with later filter lookups;
* all accelerator state mutations (IT transitions, conflict/register
  flushes, filter lookups) are performed in exact scalar order, row by
  row, whenever a run contains events that could observe them.

Coverage rule, decided once in :meth:`ColumnarEngine._snapshot`: the run
steps serve a pipeline only when the dispatcher has no cache hierarchy
attached (offline replay; with one, every metadata address feeds the
cache model in order) and, when the Idempotent Filter is on, every cacheable
registered check is a load or store keyed ``(CC, address, size)`` or
``(CC, address, size, thread_id)`` -- the shapes the five lifeguards
register.  For any other pipeline ``consume_columns`` runs the scalar
:meth:`EventDispatcher.consume` loop, record by record, so replay stays
exact for any lifeguard.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.accelerator import (
    ORD_ADDR_COMPUTE,
    ORD_COND_TEST,
    ORD_INDIRECT_JUMP,
    ORD_MEM_LOAD,
    ORD_MEM_STORE,
)
from repro.core.events import (
    F_BASE_REG,
    F_COND_TEST,
    F_DEST_ADDR,
    F_DEST_REG,
    F_INDEX_REG,
    F_INDIRECT_JUMP,
    F_IS_LOAD,
    F_IS_STORE,
    F_SRC_ADDR,
    F_SRC_REG,
    NUM_EVENT_TYPES,
    PROPAGATION_ORDINAL_MASK,
    DeliveredEvent,
    EventType,
)
from repro.core.inheritance_tracking import ITState
from repro.isa.registers import NUM_GPRS
from repro.lba.dispatch import NLBA_CYCLES, EventDispatcher
from repro.obs.runtime import OBS

#: Propagation ordinals, precomputed for the step table.
_ORD_IMM_TO_REG = EventType.IMM_TO_REG.ordinal
_ORD_IMM_TO_MEM = EventType.IMM_TO_MEM.ordinal
_ORD_REG_SELF = EventType.REG_SELF.ordinal
_ORD_MEM_SELF = EventType.MEM_SELF.ordinal
_ORD_REG_TO_REG = EventType.REG_TO_REG.ordinal
_ORD_REG_TO_MEM = EventType.REG_TO_MEM.ordinal
_ORD_MEM_TO_REG = EventType.MEM_TO_REG.ordinal
_ORD_MEM_TO_MEM = EventType.MEM_TO_MEM.ordinal
_ORD_DEST_REG_OP_REG = EventType.DEST_REG_OP_REG.ordinal
_ORD_DEST_REG_OP_MEM = EventType.DEST_REG_OP_MEM.ordinal
_ORD_DEST_MEM_OP_REG = EventType.DEST_MEM_OP_REG.ordinal

#: Presence pair a mem_to_reg inheritance needs.
_DREG_SADDR = F_DEST_REG | F_SRC_ADDR

#: Span fast-path slots, in the order ``_snapshot`` binds them.
_FAST_SLOTS = (
    EventType.MEM_LOAD,
    EventType.MEM_STORE,
    EventType.ADDR_COMPUTE,
    EventType.COND_TEST,
    EventType.INDIRECT_JUMP,
    EventType.IMM_TO_MEM,
    EventType.MEM_TO_MEM,
    EventType.MEM_TO_REG,
    EventType.REG_TO_MEM,
    EventType.DEST_REG_OP_MEM,
)

#: What the run loop counts for a run, per ordinal: nothing (0: the step
#: counts), records (1: no propagation event) or rows IT absorbs unchanged
#: (2: ``reg_self``/``mem_self`` with IT on).
_RUN_STEP, _RUN_RECORDS, _RUN_ABSORBED = 0, 1, 2


class ColumnarEngine:
    """Run-grouped columnar consumer wrapped around an :class:`EventDispatcher`."""

    def __init__(self, dispatcher: EventDispatcher) -> None:
        self.dispatcher = dispatcher
        self.accelerator = dispatcher.accelerator
        self.lifeguard = dispatcher.lifeguard
        self.it = self.accelerator.it
        self.filter = self.accelerator.idempotent_filter
        self._table = self.accelerator.etct.handler_table()
        self._mapper = self.lifeguard.mapper()
        self._snapshot()

    # ------------------------------------------------------------------ set-up

    def _registered(self, ordinal: int):
        entry = self._table[ordinal]
        return entry if entry is not None and entry.handler is not None else None

    def _snapshot(self) -> None:
        """Snapshot registration-dependent dispatch state, once.

        Registrations only happen at lifeguard construction, before the
        engine is built, so ``__init__`` takes the snapshot for the
        engine's lifetime.
        """
        registered = self._registered
        self._entry_load = registered(ORD_MEM_LOAD)
        self._entry_store = registered(ORD_MEM_STORE)
        self._entry_ac = registered(ORD_ADDR_COMPUTE)
        self._entry_ct = registered(ORD_COND_TEST)
        self._entry_ij = registered(ORD_INDIRECT_JUMP)
        self._entry_i2m = registered(_ORD_IMM_TO_MEM)
        self._entry_m2m = registered(_ORD_MEM_TO_MEM)
        self._entry_m2r = registered(_ORD_MEM_TO_REG)
        self._entry_r2m = registered(_ORD_REG_TO_MEM)
        self._entry_r2r = registered(_ORD_REG_TO_REG)
        self._entry_drr = registered(_ORD_DEST_REG_OP_REG)
        self._entry_drm = registered(_ORD_DEST_REG_OP_MEM)
        self._entry_dmr = registered(_ORD_DEST_MEM_OP_REG)

        # Flag bits that can produce a *registered* check event: a row
        # without any of them classifies to nothing, exactly like the
        # scalar classifier that never constructs unregistered events.
        mask = 0
        if self._entry_load is not None:
            mask |= F_IS_LOAD
        if self._entry_store is not None:
            mask |= F_IS_STORE
        if self._entry_ac is not None:
            mask |= F_IS_LOAD | F_IS_STORE
        if self._entry_ct is not None:
            mask |= F_COND_TEST
        if self._entry_ij is not None:
            mask |= F_INDIRECT_JUMP
        self._check_mask = mask

        # The coverage rule.  The chunk is charged from counters (a cache
        # hierarchy needs every metadata address, in order) and the steps
        # build only the two filter-key shapes the lifeguards register for
        # loads and stores.  Any other pipeline runs ``consume``.
        keyed = (EventType.MEM_LOAD, EventType.MEM_STORE)
        self.supported = self.dispatcher.hierarchy is None and (
            self.filter is None
            or all(
                entry is None
                or not entry.cacheable
                or (entry.event_type in keyed and entry.filter_mode)
                for entry in (
                    self._entry_load, self._entry_store,
                    self._entry_ac, self._entry_ct, self._entry_ij,
                )
            )
        )

        self._ctx_cache = {}
        fast = self.lifeguard.columnar_handlers() or {}
        (
            self._fast_load,
            self._fast_store,
            self._fast_ac,
            self._fast_ct,
            self._fast_ij,
            self._fast_i2m,
            self._fast_m2m,
            self._fast_m2r,
            self._fast_r2m,
            self._fast_drm,
        ) = [fast.get(event_type, (None,))[0] for event_type in _FAST_SLOTS]

        # Per ordinal, the step its runs go to (None: the scalar fallback,
        # as the telemetry census reads it).  The run loop counts the runs
        # of ``counted`` ordinals itself and calls their step,
        # ``_check_rows``, only for a bitmap with a registered check.
        check_rows = self._check_rows
        steps: List[Optional[object]] = [check_rows] * NUM_EVENT_TYPES
        counted = bytearray([_RUN_RECORDS]) * NUM_EVENT_TYPES
        if self.accelerator.uses_propagation:
            # Propagation rows with IT off, and ``other`` rows with IT on
            # (they flush the whole IT table), are rare: the scalar fallback
            # keeps the engine small without a measurable cost.
            for ordinal in range(NUM_EVENT_TYPES):
                if (PROPAGATION_ORDINAL_MASK >> ordinal) & 1:
                    steps[ordinal] = None
                    counted[ordinal] = _RUN_STEP
            if self.it is not None:
                # reg_self / mem_self: IT absorbs every event unchanged.
                steps[_ORD_REG_SELF] = steps[_ORD_MEM_SELF] = check_rows
                counted[_ORD_REG_SELF] = counted[_ORD_MEM_SELF] = _RUN_ABSORBED
                steps[_ORD_IMM_TO_REG] = self._step_imm_to_reg
                steps[_ORD_IMM_TO_MEM] = self._step_imm_to_mem
                steps[_ORD_REG_TO_REG] = self._step_reg_to_reg
                steps[_ORD_REG_TO_MEM] = self._step_reg_to_mem
                steps[_ORD_MEM_TO_REG] = self._step_mem_to_reg
                steps[_ORD_MEM_TO_MEM] = self._step_mem_to_mem
                steps[_ORD_DEST_REG_OP_REG] = self._step_dest_reg_op_reg
                steps[_ORD_DEST_REG_OP_MEM] = self._step_dest_reg_op_mem
                steps[_ORD_DEST_MEM_OP_REG] = self._step_dest_mem_op_reg
        self._steps = steps
        self._counted = counted

    # ------------------------------------------------------------------ main entry

    def consume_columns(self, columns) -> int:
        """Consume one decoded column set; returns total lifeguard cycles.

        Bit-identical to ``sum(dispatcher.consume(r) for r in
        columns.records())``, which is what it runs for a pipeline outside
        the coverage rule (``supported`` is False).

        The engine reads columns strictly by integer row index and writes
        nothing but the run table, and only when a hand-built column set
        lacks one (decoded columns always carry theirs).  Replay feeds it
        one decoded chunk per call, in trace order, so lifeguard and
        accelerator state carries across chunk boundaries exactly as in a
        per-record ``consume`` loop.
        """
        if not self.supported:
            consume = self.dispatcher.consume
            cycles = 0
            for record in columns.records():
                cycles += consume(record)
            return cycles
        self._begin_columns(columns)
        cycles = self._consume_runs(columns)
        # Telemetry is a per-run census after the loop; disabled, it costs
        # one attribute load and one branch per chunk.
        if OBS.enabled and OBS.recorder is not None:
            record_run = OBS.recorder.record_run
            steps = self._steps
            for i, j, o, _f in columns.runs:
                record_run(o, j - i, o < 0 or steps[o] is None)
        return cycles

    def _begin_columns(self, columns) -> None:
        """Zero the per-batch counters, mark the charged counters, ensure runs exist."""
        # Row-class counters: each step counts its rows once; _fold expands
        # them into the record/propagation/IT counters they imply.
        self._c_rows_absorbed = 0
        self._c_rows_seen = 0
        self._c_rows_seen_delivered = 0
        self._c_records = 0
        self._c_prop_delivered = 0
        self._c_check_in = 0
        self._c_check_filtered = 0
        self._c_check_delivered = 0
        self._c_handler_instr = 0
        self._c_it_discarded = 0
        self._c_it_delivered = 0
        self._c_it_transformed = 0
        self._c_it_conflict = 0
        # Where the chunk's translations, misses and the fallback rows'
        # own mapping charges start from.
        mapper_stats = self._mapper.stats
        self._c_translations = mapper_stats.translations
        self._c_mtlb_misses = mapper_stats.mtlb_misses
        stats = self.dispatcher.stats
        self._c_fallback_mapping = stats.mapping_instructions
        self._c_fallback_miss = stats.miss_handler_instructions
        if not columns.runs and columns.n:
            # Hand-built columns without a run table: group them now.
            columns.build_runs()

    def _consume_runs(self, columns) -> int:
        """The run loop: one step per run, scalar ``consume`` for the rest."""
        fallback_cycles = 0
        records = absorbed = 0
        consume = self.dispatcher.consume
        objects = columns.objects
        record_of = columns.record
        steps = self._steps
        counted = self._counted
        check_mask = self._check_mask
        check_rows = self._check_rows
        try:
            for i, j, o, f in columns.runs:
                if o < 0:
                    # Annotation (or otherwise opaque) rows: scalar fallback.
                    for row in range(i, j):
                        fallback_cycles += consume(objects[row])
                    continue
                count = counted[o]
                if count:
                    # Counted here; a run whose bitmap fires no registered
                    # check (most rows) goes no further.
                    if count == _RUN_RECORDS:
                        records += j - i
                    else:
                        absorbed += j - i
                    if f & check_mask:
                        check_rows(columns, i, j, f)
                    continue
                step = steps[o]
                if step is None:
                    for row in range(i, j):
                        fallback_cycles += consume(record_of(row))
                else:
                    step(columns, i, j, f)
        finally:
            self._c_records += records
            self._c_rows_absorbed += absorbed
            columnar_cycles = self._fold()
        return columnar_cycles + fallback_cycles

    def _fold(self) -> int:
        """Fold the batched counters into the live stats; returns the steps' cycles."""
        # Expand the row-class counters: every counted row is one record
        # with one propagation event in, which passed through IT; IT always
        # discarded "absorbed" rows and always delivered "seen_delivered"
        # rows, and decided "seen" rows one by one.
        absorbed = self._c_rows_absorbed
        prop_rows = absorbed + self._c_rows_seen + self._c_rows_seen_delivered
        acc_stats = self.accelerator.stats
        n = self._c_records + prop_rows
        acc_stats.records_processed += n
        acc_stats.instruction_records += n
        acc_stats.propagation_events_in += prop_rows
        acc_stats.propagation_events_delivered += self._c_prop_delivered
        acc_stats.check_events_in += self._c_check_in
        acc_stats.check_events_filtered += self._c_check_filtered
        acc_stats.check_events_delivered += self._c_check_delivered
        # Every delivered event has a registered handler, so the steps
        # handled exactly the events they delivered.  Their translations
        # and M-TLB misses are the mapper's deltas over the chunk less the
        # fallback rows', which ``consume`` charged to ``stats`` as it ran.
        dispatcher = self.dispatcher
        stats = dispatcher.stats
        mapper = self._mapper
        handled = self._c_prop_delivered + self._c_check_delivered
        translation_instr = dispatcher._translation_instr
        fallback_mapping = stats.mapping_instructions - self._c_fallback_mapping
        translations = (
            mapper.stats.translations - self._c_translations
            - fallback_mapping // translation_instr
        )
        mapping_instr = translations * translation_instr
        miss_instr = (
            (mapper.stats.mtlb_misses - self._c_mtlb_misses) * dispatcher._miss_cost
            - (stats.miss_handler_instructions - self._c_fallback_miss)
        )
        cycles = (
            NLBA_CYCLES * handled + self._c_handler_instr + mapping_instr + miss_instr
            + translations * dispatcher._translation_accesses
        )
        mapper.metadata_log.clear()
        stats.records_consumed += n
        stats.events_handled += handled
        stats.handler_instructions += self._c_handler_instr
        stats.mapping_instructions += mapping_instr
        stats.miss_handler_instructions += miss_instr
        stats.lifeguard_cycles += cycles
        it = self.it
        if it is not None:
            it_stats = it.stats
            it_stats.events_seen += prop_rows
            it_stats.events_discarded += absorbed + self._c_it_discarded
            it_stats.events_delivered += self._c_it_delivered + self._c_rows_seen_delivered
            it_stats.events_transformed += self._c_it_transformed
            it_stats.conflict_flushes += self._c_it_conflict
        return cycles

    # ------------------------------------------------------------------ delivery

    def _dispatch(self, entry, event) -> None:
        """Deliver one event generically (DeliveredEvent + registered handler)."""
        entry.handler(event)
        self._c_handler_instr += entry.handler_instructions

    # ------------------------------------------------------------------ IT helpers

    def _conflict_flushes(self, address, size, exclude, pc, thread_id) -> None:
        """Flush registers inheriting from a store range (scalar order).

        Twin of ``InheritanceTracker._conflict_events``: the caller
        guarantees IT is enabled with at least one ``addr`` register, an
        address and a positive size.
        """
        store_hi = address + size
        addr_state = ITState.ADDR
        for reg, it_entry in enumerate(self.it._table):
            if reg == exclude or it_entry.state is not addr_state:
                continue
            own_lo = it_entry.address
            if own_lo is None:
                continue
            if address < own_lo + (it_entry.size or 1) and own_lo < store_hi:
                self._c_it_conflict += 1
                self._flush_register(reg, pc, thread_id)

    def _flush_register(self, reg, pc, thread_id) -> None:
        """Deliver one ``addr``-state register as a ``mem_to_reg`` flush.

        Every IT flush the engine performs comes through here; the caller
        checked the register's state.
        """
        it = self.it
        it_entry = it._table[reg]
        ev_addr = it_entry.address
        ev_size = it_entry.size
        it._addr_count -= 1
        it_entry.state = ITState.IN_LIFEGUARD
        it_entry.address = None
        it_entry.size = 0
        entry_m2r = self._entry_m2r
        if entry_m2r is None:
            return
        self._c_prop_delivered += 1
        fast = self._fast_m2r
        if fast is not None:
            fast(reg, ev_addr, ev_size)
            self._c_handler_instr += entry_m2r.handler_instructions
        else:
            self._dispatch(
                entry_m2r,
                DeliveredEvent(
                    EventType.MEM_TO_REG, pc, reg, None, None,
                    ev_addr, ev_size, thread_id,
                ),
            )

    def _check_flushes(self, row_sreg, row_breg, row_ireg, pc, thread_id) -> None:
        """Register flushes a non-load/store check event forces first.

        Twin of ``EventAccelerator._flush_registers_for_check``; the caller
        guarantees IT is enabled with at least one ``addr`` register.  Note
        the scalar twin does *not* count IT conflict-flush statistics.
        """
        table_it = self.it._table
        addr_state = ITState.ADDR
        for reg in (row_sreg, row_breg, row_ireg):
            if reg is not None and reg < NUM_GPRS and table_it[reg].state is addr_state:
                self._flush_register(reg, pc, thread_id)

    # ------------------------------------------------------------------ check events

    def _check_ctx(self, f):
        """Pre-classify a uniform-flag run's check events (cached per ``f``).

        Returns ``None`` when rows with bitmap ``f`` produce no registered
        check event, else a flat context tuple the per-row worker unpacks:
        which of the five check types fire, their filter configuration,
        handler costs and span fast paths.  Only a handful of distinct
        bitmaps occur per trace, so the context is memoised for the
        engine's lifetime (it depends only on the registrations that
        ``_snapshot`` read).
        """
        try:
            return self._ctx_cache[f]
        except KeyError:
            ctx = self._ctx_cache[f] = self._build_check_ctx(f)
            return ctx

    def _build_check_ctx(self, f):
        is_load = f & F_IS_LOAD
        is_store = f & F_IS_STORE
        entry_load = self._entry_load if is_load and f & F_SRC_ADDR else None
        entry_store = self._entry_store if is_store and f & F_DEST_ADDR else None
        entry_ac = (
            self._entry_ac
            if (is_load or is_store) and f & (F_BASE_REG | F_INDEX_REG)
            else None
        )
        entry_ct = self._entry_ct if f & F_COND_TEST else None
        entry_ij = self._entry_ij if f & F_INDIRECT_JUMP else None
        per_row = 0
        filt = self.filter
        load_mode = load_cc = load_instr = 0
        if entry_load is not None:
            per_row += 1
            # mode: 0 = unfiltered, else the key shape (``filter_mode``)
            load_mode = entry_load.filter_mode if filt is not None and entry_load.cacheable else 0
            load_cc = entry_load.check_category
            load_instr = entry_load.handler_instructions
        store_mode = store_cc = store_instr = 0
        if entry_store is not None:
            per_row += 1
            store_mode = (
                entry_store.filter_mode if filt is not None and entry_store.cacheable else 0
            )
            store_cc = entry_store.check_category
            store_instr = entry_store.handler_instructions
        ac_instr = ct_instr = ij_instr = 0
        if entry_ac is not None:
            per_row += 1
            ac_instr = entry_ac.handler_instructions
        if entry_ct is not None:
            per_row += 1
            ct_instr = entry_ct.handler_instructions
        if entry_ij is not None:
            per_row += 1
            ij_instr = entry_ij.handler_instructions
        if not per_row:
            return None
        return (
            per_row,
            entry_load, load_mode, load_cc, load_instr, self._fast_load,
            entry_store, store_mode, store_cc, store_instr, self._fast_store,
            entry_ac, ac_instr, self._fast_ac,
            entry_ct, ct_instr, self._fast_ct,
            entry_ij, ij_instr, self._fast_ij,
        )

    def _check_row(self, cols, k, f, ctx) -> None:
        """Filter and deliver row ``k``'s check events (pre-classified).

        The caller accounts ``check_events_in`` (``ctx[0]`` per row) and
        guarantees ``ctx`` was built from this row's bitmap.
        """
        (
            _per_row,
            entry_load, load_mode, load_cc, load_instr, fast_load,
            entry_store, store_mode, store_cc, store_instr, fast_store,
            entry_ac, ac_instr, fast_ac,
            entry_ct, ct_instr, fast_ct,
            entry_ij, ij_instr, fast_ij,
        ) = ctx
        delivered = 0
        instructions = 0
        filt = self.filter
        it = self.it
        size = cols.size[k]
        # ---- mem_load ----------------------------------------------------
        if entry_load is not None:
            addr = cols.src_addr[k]
            # The two key shapes the coverage rule admits, from the columns.
            if load_mode and filt.lookup_insert(
                (load_cc, addr, size)
                if load_mode == 1
                else (load_cc, addr, size, cols.thread_id[k])
            ):
                self._c_check_filtered += 1
            else:
                delivered += 1
                instructions += load_instr
                if fast_load is not None:
                    fast_load(addr, size, cols.pc[k], cols.thread_id[k])
                else:
                    entry_load.handler(self._event_mem_load(cols, k, f, addr, size))
        # ---- mem_store ---------------------------------------------------
        if entry_store is not None:
            addr = cols.dest_addr[k]
            if store_mode and filt.lookup_insert(
                (store_cc, addr, size)
                if store_mode == 1
                else (store_cc, addr, size, cols.thread_id[k])
            ):
                self._c_check_filtered += 1
            else:
                delivered += 1
                instructions += store_instr
                if fast_store is not None:
                    fast_store(addr, size, cols.pc[k], cols.thread_id[k])
                else:
                    entry_store.handler(self._event_mem_store(cols, k, f, addr, size))
        # ---- addr_compute ------------------------------------------------
        if entry_ac is not None:
            breg = cols.base_reg[k] if f & F_BASE_REG else None
            ireg = cols.index_reg[k] if f & F_INDEX_REG else None
            if it is not None and it._addr_count:
                # Pre-test: scan the (at most two) consulted registers and
                # only take the flush path when one is in the addr state.
                table_it = it._table
                addr_state = ITState.ADDR
                if (
                    breg is not None
                    and breg < NUM_GPRS
                    and table_it[breg].state is addr_state
                ) or (
                    ireg is not None
                    and ireg < NUM_GPRS
                    and table_it[ireg].state is addr_state
                ):
                    self._check_flushes(None, breg, ireg, cols.pc[k], cols.thread_id[k])
            if f & F_DEST_ADDR:
                report_addr = cols.dest_addr[k]
            elif f & F_SRC_ADDR:
                report_addr = cols.src_addr[k]
            else:
                report_addr = None
            delivered += 1
            instructions += ac_instr
            if fast_ac is not None:
                fast_ac(breg, ireg, cols.pc[k], cols.thread_id[k], report_addr)
            else:
                entry_ac.handler(
                    self._event_addr_compute(cols, k, f, report_addr, breg, ireg)
                )
        # ---- cond_test ---------------------------------------------------
        if entry_ct is not None:
            sreg = cols.src_reg[k] if f & F_SRC_REG else None
            if it is not None and it._addr_count:
                if (
                    sreg is not None
                    and sreg < NUM_GPRS
                    and it._table[sreg].state is ITState.ADDR
                ):
                    self._check_flushes(sreg, None, None, cols.pc[k], cols.thread_id[k])
            saddr = cols.src_addr[k] if f & F_SRC_ADDR else None
            delivered += 1
            instructions += ct_instr
            if fast_ct is not None:
                fast_ct(sreg, saddr, size, cols.pc[k], cols.thread_id[k])
            else:
                entry_ct.handler(self._event_cond_test(cols, k, f, sreg, saddr, size))
        # ---- indirect_jump -----------------------------------------------
        if entry_ij is not None:
            sreg = cols.src_reg[k] if f & F_SRC_REG else None
            if it is not None and it._addr_count:
                if (
                    sreg is not None
                    and sreg < NUM_GPRS
                    and it._table[sreg].state is ITState.ADDR
                ):
                    self._check_flushes(sreg, None, None, cols.pc[k], cols.thread_id[k])
            saddr = cols.src_addr[k] if f & F_SRC_ADDR else None
            ij_size = size or 4
            delivered += 1
            instructions += ij_instr
            if fast_ij is not None:
                fast_ij(sreg, saddr, ij_size, cols.pc[k], cols.thread_id[k])
            else:
                entry_ij.handler(
                    self._event_indirect_jump(cols, k, f, sreg, saddr, ij_size)
                )
        self._c_check_delivered += delivered
        self._c_handler_instr += instructions

    # Generic check-event builders: field-for-field what the scalar
    # classifier constructs (origin is never read by a handler).

    def _event_mem_load(self, cols, k, f, addr, size):
        return DeliveredEvent(
            EventType.MEM_LOAD, cols.pc[k], None, None, addr, addr, size,
            cols.thread_id[k],
            cols.base_reg[k] if f & F_BASE_REG else None,
            cols.index_reg[k] if f & F_INDEX_REG else None,
        )

    def _event_mem_store(self, cols, k, f, addr, size):
        return DeliveredEvent(
            EventType.MEM_STORE, cols.pc[k], None, None, addr, None, size,
            cols.thread_id[k],
            cols.base_reg[k] if f & F_BASE_REG else None,
            cols.index_reg[k] if f & F_INDEX_REG else None,
        )

    def _event_addr_compute(self, cols, k, f, report_addr, breg, ireg):
        return DeliveredEvent(
            EventType.ADDR_COMPUTE, cols.pc[k], None, None, report_addr, None,
            cols.size[k], cols.thread_id[k], breg, ireg,
        )

    def _event_cond_test(self, cols, k, f, sreg, saddr, size):
        return DeliveredEvent(
            EventType.COND_TEST, cols.pc[k], None, sreg, saddr, saddr, size,
            cols.thread_id[k],
        )

    def _event_indirect_jump(self, cols, k, f, sreg, saddr, size):
        return DeliveredEvent(
            EventType.INDIRECT_JUMP, cols.pc[k], None, sreg, saddr, saddr, size,
            cols.thread_id[k],
        )

    def _event_from_row(self, cols, k, f, event_type):
        """`DeliveredEvent.from_instruction` twin built straight from columns."""
        return DeliveredEvent(
            event_type,
            cols.pc[k],
            cols.dest_reg[k] if f & F_DEST_REG else None,
            cols.src_reg[k] if f & F_SRC_REG else None,
            cols.dest_addr[k] if f & F_DEST_ADDR else None,
            cols.src_addr[k] if f & F_SRC_ADDR else None,
            cols.size[k],
            cols.thread_id[k],
            cols.base_reg[k] if f & F_BASE_REG else None,
            cols.index_reg[k] if f & F_INDEX_REG else None,
        )

    # ------------------------------------------------------------------ steps
    #
    # One step per (propagation) event ordinal; every step receives a run
    # of rows with identical ordinal and presence bitmap and counts what it
    # delivers (``_fold`` charges the cycles).

    def _check_rows(self, cols, i, j, f) -> None:
        """Filter and deliver the check events of rows ``[i, j)`` (the run
        loop counted the rows)."""
        ctx = self._check_ctx(f)
        if ctx is None:
            return
        self._c_check_in += ctx[0] * (j - i)
        check_row = self._check_row
        for k in range(i, j):
            check_row(cols, k, f, ctx)

    def _step_imm_to_reg(self, cols, i, j, f) -> None:
        """``imm_to_reg``: clear the destination's inheritance, discard."""
        n = j - i
        self._c_rows_absorbed += n
        set_clear = self.it._set_clear
        has_dreg = f & F_DEST_REG
        dest_reg_col = cols.dest_reg
        ctx = self._check_ctx(f) if f & self._check_mask else None
        if ctx is not None:
            self._c_check_in += ctx[0] * n
        # Row by row: a check flush must observe the clears of all earlier
        # rows (and only those).
        check_row = self._check_row
        for k in range(i, j):
            set_clear(dest_reg_col[k] if has_dreg else None)
            if ctx is not None:
                check_row(cols, k, f, ctx)

    def _step_mem_to_reg(self, cols, i, j, f) -> None:
        """``mem_to_reg``: record the inheritance (never delivered)."""
        n = j - i
        self._c_rows_absorbed += n
        inherits = f & _DREG_SADDR == _DREG_SADDR
        set_addr = self.it._set_addr
        dest_reg_col = cols.dest_reg
        src_addr_col = cols.src_addr
        size_col = cols.size
        ctx = self._check_ctx(f) if f & self._check_mask else None
        if ctx is not None:
            self._c_check_in += ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            if inherits:
                set_addr(dest_reg_col[k], src_addr_col[k], size_col[k])
            if ctx is not None:
                check_row(cols, k, f, ctx)

    def _step_imm_to_mem(self, cols, i, j, f) -> None:
        """``imm_to_mem``: conflict flushes, then always delivered."""
        n = j - i
        self._c_rows_seen_delivered += n
        it = self.it
        entry_i2m = self._entry_i2m
        fast = self._fast_i2m
        has_daddr = f & F_DEST_ADDR
        dest_addr_col = cols.dest_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                self._conflict_flushes(daddr, size, None, pc_col[k], tid_col[k])
            if entry_i2m is not None:
                self._c_prop_delivered += 1
                if fast is not None:
                    fast(daddr, size)
                    self._c_handler_instr += entry_i2m.handler_instructions
                else:
                    self._dispatch(
                        entry_i2m, self._event_from_row(cols, k, f, EventType.IMM_TO_MEM)
                    )
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)

    def _step_mem_to_mem(self, cols, i, j, f) -> None:
        """``mem_to_mem``: conflict flushes, then always delivered."""
        n = j - i
        self._c_rows_seen_delivered += n
        it = self.it
        entry_m2m = self._entry_m2m
        fast = self._fast_m2m
        has_daddr = f & F_DEST_ADDR
        has_saddr = f & F_SRC_ADDR
        dest_addr_col = cols.dest_addr
        src_addr_col = cols.src_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                self._conflict_flushes(daddr, size, None, pc_col[k], tid_col[k])
            if entry_m2m is not None:
                self._c_prop_delivered += 1
                if fast is not None:
                    fast(daddr, src_addr_col[k] if has_saddr else None, size)
                    self._c_handler_instr += entry_m2m.handler_instructions
                else:
                    self._dispatch(
                        entry_m2m, self._event_from_row(cols, k, f, EventType.MEM_TO_MEM)
                    )
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)

    def _step_reg_to_reg(self, cols, i, j, f) -> None:
        """``reg_to_reg``: inheritance copy; delivered only from ``in lifeguard``."""
        n = j - i
        self._c_rows_seen += n
        it = self.it
        table_it = it._table
        num_regs = len(table_it)
        clear_state = ITState.CLEAR
        addr_state = ITState.ADDR
        has_sreg = f & F_SRC_REG
        has_dreg = f & F_DEST_REG
        src_reg_col = cols.src_reg
        dest_reg_col = cols.dest_reg
        entry_r2r = self._entry_r2r
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            src_state = table_it[sreg].state if sreg is not None else clear_state
            dreg = dest_reg_col[k] if has_dreg else None
            if src_state is clear_state:
                self._c_it_discarded += 1
                if dreg is not None and dreg < num_regs:
                    entry = table_it[dreg]
                    if entry.state is addr_state:
                        it._addr_count -= 1
                    entry.state = clear_state
                    entry.address = None
                    entry.size = 0
            elif src_state is addr_state:
                self._c_it_discarded += 1
                src_entry = table_it[sreg]
                if dreg is not None and dreg < num_regs:
                    entry = table_it[dreg]
                    if entry.state is not addr_state:
                        it._addr_count += 1
                        entry.state = addr_state
                    entry.address = src_entry.address
                    entry.size = src_entry.size or 1
            else:
                self._c_it_delivered += 1
                event = (
                    self._event_from_row(cols, k, f, EventType.REG_TO_REG)
                    if entry_r2r is not None
                    else None
                )
                if dreg is not None and dreg < num_regs:
                    entry = table_it[dreg]
                    if entry.state is addr_state:
                        it._addr_count -= 1
                    entry.state = ITState.IN_LIFEGUARD
                    entry.address = None
                    entry.size = 0
                if entry_r2r is not None:
                    self._c_prop_delivered += 1
                    self._dispatch(entry_r2r, event)
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)

    def _step_reg_to_mem(self, cols, i, j, f) -> None:
        """``reg_to_mem``: conflict flushes, then transform by source state."""
        n = j - i
        self._c_rows_seen += n
        it = self.it
        table_it = it._table
        clear_state = ITState.CLEAR
        addr_state = ITState.ADDR
        has_sreg = f & F_SRC_REG
        has_daddr = f & F_DEST_ADDR
        src_reg_col = cols.src_reg
        dest_addr_col = cols.dest_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        entry_i2m = self._entry_i2m
        entry_m2m = self._entry_m2m
        entry_r2m = self._entry_r2m
        fast_i2m = self._fast_i2m
        # m2m / r2m outcomes are rarer; their fast-path bindings are read
        # from self inside those branches.
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        transformed = 0
        prop_delivered = 0
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                self._conflict_flushes(daddr, size, sreg, pc_col[k], tid_col[k])
            src_state = table_it[sreg].state if sreg is not None else clear_state
            if src_state is clear_state:
                transformed += 1
                if entry_i2m is not None:
                    prop_delivered += 1
                    if fast_i2m is not None:
                        fast_i2m(daddr, size)
                        self._c_handler_instr += entry_i2m.handler_instructions
                    else:
                        event = self._event_from_row(cols, k, f, EventType.IMM_TO_MEM)
                        event.src_reg = None
                        self._dispatch(entry_i2m, event)
            elif src_state is addr_state:
                transformed += 1
                if entry_m2m is not None:
                    prop_delivered += 1
                    src_entry = table_it[sreg]
                    fast_m2m = self._fast_m2m
                    if fast_m2m is not None:
                        fast_m2m(daddr, src_entry.address, size)
                        self._c_handler_instr += entry_m2m.handler_instructions
                    else:
                        event = self._event_from_row(cols, k, f, EventType.MEM_TO_MEM)
                        event.src_reg = None
                        event.src_addr = src_entry.address
                        self._dispatch(entry_m2m, event)
            else:
                self._c_it_delivered += 1
                if entry_r2m is not None:
                    prop_delivered += 1
                    fast_r2m = self._fast_r2m
                    if fast_r2m is not None:
                        fast_r2m(sreg, daddr, size)
                        self._c_handler_instr += entry_r2m.handler_instructions
                    else:
                        self._dispatch(
                            entry_r2m,
                            self._event_from_row(cols, k, f, EventType.REG_TO_MEM),
                        )
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)
        self._c_it_transformed += transformed
        self._c_prop_delivered += prop_delivered

    def _step_dest_reg_op_reg(self, cols, i, j, f) -> None:
        """``dest_reg op= reg``: discard on clean source, else transform/deliver."""
        n = j - i
        self._c_rows_seen += n
        it = self.it
        table_it = it._table
        clear_state = ITState.CLEAR
        addr_state = ITState.ADDR
        has_sreg = f & F_SRC_REG
        has_dreg = f & F_DEST_REG
        src_reg_col = cols.src_reg
        dest_reg_col = cols.dest_reg
        pc_col = cols.pc
        tid_col = cols.thread_id
        entry_drr = self._entry_drr
        entry_drm = self._entry_drm
        set_clear = it._set_clear
        # The span fast path reports with a None address; only rows without
        # a destination address match that (the overwhelmingly common case
        # for register-destination operations).
        fast_drm = self._fast_drm if not f & F_DEST_ADDR else None
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        discarded = 0
        transformed = 0
        prop_delivered = 0
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            src_state = table_it[sreg].state if sreg is not None else clear_state
            if src_state is clear_state:
                discarded += 1
            else:
                dreg = dest_reg_col[k] if has_dreg else None
                if src_state is addr_state:
                    transformed += 1
                    src_entry = table_it[sreg]
                    ev_addr = src_entry.address
                    ev_size = src_entry.size
                    set_clear(dreg)
                    if entry_drm is not None:
                        prop_delivered += 1
                        if fast_drm is not None:
                            fast_drm(dreg, None, ev_addr, ev_size, pc_col[k], tid_col[k])
                            self._c_handler_instr += entry_drm.handler_instructions
                        else:
                            event = self._event_from_row(
                                cols, k, f, EventType.DEST_REG_OP_MEM
                            )
                            event.src_reg = None
                            event.src_addr = ev_addr
                            event.size = ev_size
                            self._dispatch(entry_drm, event)
                else:
                    self._c_it_delivered += 1
                    event = (
                        self._event_from_row(cols, k, f, EventType.DEST_REG_OP_REG)
                        if entry_drr is not None
                        else None
                    )
                    set_clear(dreg)
                    if entry_drr is not None:
                        prop_delivered += 1
                        self._dispatch(entry_drr, event)
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)
        self._c_it_discarded += discarded
        self._c_it_transformed += transformed
        self._c_prop_delivered += prop_delivered

    def _step_dest_reg_op_mem(self, cols, i, j, f) -> None:
        """``dest_reg op= mem``: always delivered, destination cleared."""
        n = j - i
        self._c_rows_seen_delivered += n
        set_clear = self.it._set_clear
        has_sreg = f & F_SRC_REG
        has_dreg = f & F_DEST_REG
        has_saddr = f & F_SRC_ADDR
        src_reg_col = cols.src_reg
        dest_reg_col = cols.dest_reg
        src_addr_col = cols.src_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        entry_drm = self._entry_drm
        # Fast path only for rows without a destination address (its
        # register-use reports carry a None address, like the scalar path).
        fast_drm = self._fast_drm if not f & F_DEST_ADDR else None
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            dreg = dest_reg_col[k] if has_dreg else None
            event = (
                self._event_from_row(cols, k, f, EventType.DEST_REG_OP_MEM)
                if entry_drm is not None and fast_drm is None
                else None
            )
            set_clear(dreg)
            if entry_drm is not None:
                self._c_prop_delivered += 1
                if fast_drm is not None:
                    fast_drm(
                        dreg,
                        src_reg_col[k] if has_sreg else None,
                        src_addr_col[k] if has_saddr else None,
                        size_col[k], pc_col[k], tid_col[k],
                    )
                    self._c_handler_instr += entry_drm.handler_instructions
                else:
                    self._dispatch(entry_drm, event)
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)

    def _step_dest_mem_op_reg(self, cols, i, j, f) -> None:
        """``dest_mem op= reg``: discard on clean source, else flush + deliver."""
        n = j - i
        self._c_rows_seen += n
        it = self.it
        table_it = it._table
        clear_state = ITState.CLEAR
        addr_state = ITState.ADDR
        has_sreg = f & F_SRC_REG
        has_daddr = f & F_DEST_ADDR
        src_reg_col = cols.src_reg
        dest_addr_col = cols.dest_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        entry_dmr = self._entry_dmr
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            src_state = table_it[sreg].state if sreg is not None else clear_state
            if src_state is clear_state:
                self._c_it_discarded += 1
            else:
                daddr = dest_addr_col[k] if has_daddr else None
                size = size_col[k]
                if it._addr_count and daddr is not None and size > 0:
                    self._conflict_flushes(daddr, size, sreg, pc_col[k], tid_col[k])
                if src_state is addr_state:
                    # Materialise the source register's metadata first.
                    self._c_it_conflict += 1
                    self._flush_register(sreg, pc_col[k], tid_col[k])
                self._c_it_delivered += 1
                if entry_dmr is not None:
                    self._c_prop_delivered += 1
                    self._dispatch(
                        entry_dmr,
                        self._event_from_row(cols, k, f, EventType.DEST_MEM_OP_REG),
                    )
            if check_ctx is not None:
                check_row(cols, k, f, check_ctx)
