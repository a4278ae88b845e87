"""Columnar record pipeline: run-grouped dispatch over decoded columns.

The reference consumer, :meth:`EventDispatcher.consume`, walks one record
object at a time through :meth:`EventAccelerator.process` and per-event
handler dispatch.  This module is the one fast path over it: a chunk
decoded into :class:`repro.trace.codec.RecordColumns` is consumed by
grouping consecutive rows with the same event ordinal *and* field-presence
bitmap into runs, and handing each run to the one step registered for its
ordinal:

* a propagation step applies its Inheritance-Tracking transition row by
  row straight from the columns; runs with no check events to interleave
  are absorbed by the tracker itself
  (:meth:`InheritanceTracker.absorb_mem_to_reg_run` and friends).  Every
  register flush -- a store conflicting with an inherited range, a check
  that reads an ``addr``-state register, a ``dest_mem op= reg`` source --
  goes through one ``_flush_register``;
* checking events are classified once per run (the presence bitmap is
  uniform), their Idempotent-Filter keys are built from the columns and
  probed through :meth:`IdempotentFilter.lookup_insert`, and delivered
  events go through per-lifeguard span fast paths
  (:meth:`repro.lifeguards.base.Lifeguard.columnar_handlers`) that skip
  :class:`DeliveredEvent` construction;
* annotation records, and ``other`` events while IT is on (they flush
  the whole IT table), fall back to the scalar
  :meth:`EventDispatcher.consume`, row by row, inside the same pass.

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

The engine only groups runs when the dispatcher has no cache hierarchy
attached (offline replay); with a hierarchy the per-event metadata
addresses feed the cache model, and the engine transparently degrades to
the scalar :meth:`EventDispatcher.consume`, record by record.
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
    EVENT_TYPES,
    NUM_EVENT_TYPES,
    DeliveredEvent,
    EventType,
)
from repro.core.inheritance_tracking import ITState
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
_ORD_OTHER = EventType.OTHER.ordinal

#: Presence pair a mem_to_reg inheritance needs.
_DREG_SADDR = F_DEST_REG | F_SRC_ADDR

#: Event types the per-lifeguard span fast paths may cover, in the slot
#: order the engine binds them (see ``_refresh``).
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


class ColumnarEngine:
    """Run-grouped columnar consumer wrapped around an :class:`EventDispatcher`."""

    def __init__(self, dispatcher: EventDispatcher) -> None:
        self.dispatcher = dispatcher
        self.accelerator = dispatcher.accelerator
        self.lifeguard = dispatcher.lifeguard
        #: run steps need usage-count cycle charging only; a cache
        #: hierarchy needs the actual metadata addresses per event, so the
        #: engine falls back to the scalar ``consume`` loop then.
        self.supported = dispatcher.hierarchy is None
        self.it = self.accelerator.it
        self.filter = self.accelerator.idempotent_filter
        self._table = self.accelerator.etct.handler_table()
        self._it_nregs = self.accelerator.config.it.num_registers
        mapper = self.lifeguard.mapper()
        self._begin_event = mapper.begin_event
        #: the mapper's reused per-event usage object (reset by begin_event)
        self._usage = mapper.end_event()
        self._translation_instr = dispatcher._translation.instructions
        self._miss_cost = dispatcher._miss_cost
        self._refresh()

    # ------------------------------------------------------------------ set-up

    def _registered(self, ordinal: int):
        entry = self._table[ordinal]
        return entry if entry is not None and entry.handler is not None else None

    def _refresh(self) -> None:
        """Snapshot registration-dependent dispatch state.

        Called at every ``consume_columns`` entry: registrations only
        happen at lifeguard construction, but re-snapshotting keeps the
        engine honest if a caller wires a new handler table in between
        batches.
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
        #: True when a registered check event can flush IT registers
        #: (address-compute / cond-test / indirect-jump consult registers)
        self._flushy = self.it is not None and (
            self._entry_ac is not None
            or self._entry_ct is not None
            or self._entry_ij is not None
        )

        self._ctx_cache = {}
        fast = self.lifeguard.columnar_handlers() or {}
        (
            (self._fast_load, self._fast_load_tr),
            (self._fast_store, self._fast_store_tr),
            (self._fast_ac, self._fast_ac_tr),
            (self._fast_ct, self._fast_ct_tr),
            (self._fast_ij, self._fast_ij_tr),
            (self._fast_i2m, self._fast_i2m_tr),
            (self._fast_m2m, self._fast_m2m_tr),
            (self._fast_m2r, self._fast_m2r_tr),
            (self._fast_r2m, self._fast_r2m_tr),
            (self._fast_drm, self._fast_drm_tr),
        ) = [fast.get(event_type, (None, False)) for event_type in _FAST_SLOTS]

        steps: List[Optional[object]] = [self._step_checks_only] * NUM_EVENT_TYPES
        if self.accelerator.uses_propagation:
            if self.it is not None:
                steps[_ORD_IMM_TO_REG] = self._step_imm_to_reg
                steps[_ORD_IMM_TO_MEM] = self._step_imm_to_mem
                steps[_ORD_REG_SELF] = self._step_discard
                steps[_ORD_MEM_SELF] = self._step_discard
                steps[_ORD_REG_TO_REG] = self._step_reg_to_reg
                steps[_ORD_REG_TO_MEM] = self._step_reg_to_mem
                steps[_ORD_MEM_TO_REG] = self._step_mem_to_reg
                steps[_ORD_MEM_TO_MEM] = self._step_mem_to_mem
                steps[_ORD_DEST_REG_OP_REG] = self._step_dest_reg_op_reg
                steps[_ORD_DEST_REG_OP_MEM] = self._step_dest_reg_op_mem
                steps[_ORD_DEST_MEM_OP_REG] = self._step_dest_mem_op_reg
                # ``other`` flushes the whole IT table and is rare: scalar
                # fallback keeps the engine small without a measurable cost.
                steps[_ORD_OTHER] = None
            else:
                for ordinal in (
                    _ORD_IMM_TO_REG, _ORD_IMM_TO_MEM, _ORD_REG_SELF,
                    _ORD_MEM_SELF, _ORD_REG_TO_REG, _ORD_REG_TO_MEM,
                    _ORD_MEM_TO_REG, _ORD_MEM_TO_MEM, _ORD_DEST_REG_OP_REG,
                    _ORD_DEST_REG_OP_MEM, _ORD_DEST_MEM_OP_REG, _ORD_OTHER,
                ):
                    steps[ordinal] = self._step_prop_no_it
        self._steps = steps

    # ------------------------------------------------------------------ main entry

    def consume_columns(self, columns) -> int:
        """Consume one decoded column set; returns total lifeguard cycles.

        Bit-identical to ``sum(dispatcher.consume(r) for r in
        columns.records())``, which is what it runs when a cache hierarchy
        is attached.

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
        """Refresh caches, zero the per-batch counters, ensure runs exist."""
        self._refresh()
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
        self._c_handled = 0
        self._c_handler_instr = 0
        self._c_mapping_instr = 0
        self._c_miss_instr = 0
        self._c_it_seen = 0
        self._c_it_discarded = 0
        self._c_it_delivered = 0
        self._c_it_transformed = 0
        self._c_it_conflict = 0
        if not columns.runs and columns.n:
            # Hand-built columns without a run table: group them now.
            columns.build_runs()

    def _consume_runs(self, columns) -> int:
        """The run loop: one step per run, scalar ``consume`` for the rest."""
        columnar_cycles = 0
        fallback_cycles = 0
        consume = self.dispatcher.consume
        objects = columns.objects
        record_of = columns.record
        steps = self._steps
        try:
            for i, j, o, f in columns.runs:
                if o < 0:
                    # Annotation (or otherwise opaque) rows: scalar fallback.
                    for row in range(i, j):
                        fallback_cycles += consume(objects[row])
                    continue
                step = steps[o]
                if step is None:
                    for row in range(i, j):
                        fallback_cycles += consume(record_of(row))
                else:
                    columnar_cycles += step(columns, i, j, f)
        finally:
            self._fold(columnar_cycles)
        return columnar_cycles + fallback_cycles

    def consume_records(self, records) -> int:
        """Columnar-consume an in-memory record sequence (test/bench helper)."""
        from repro.trace.codec import RecordColumns

        return self.consume_columns(RecordColumns.from_records(records))

    def _fold(self, columnar_cycles: int) -> None:
        """Fold the batched counters into the live stats objects."""
        # Expand the row-class counters: every counted row is one record
        # with one propagation event in; "seen" rows additionally passed
        # through IT, "seen_delivered" rows were always delivered by it.
        prop_rows = (
            self._c_rows_absorbed + self._c_rows_seen + self._c_rows_seen_delivered
        )
        acc_stats = self.accelerator.stats
        n = self._c_records + prop_rows
        acc_stats.records_processed += n
        acc_stats.instruction_records += n
        acc_stats.propagation_events_in += prop_rows
        acc_stats.propagation_events_delivered += self._c_prop_delivered
        acc_stats.check_events_in += self._c_check_in
        acc_stats.check_events_filtered += self._c_check_filtered
        acc_stats.check_events_delivered += self._c_check_delivered
        stats = self.dispatcher.stats
        stats.records_consumed += n
        stats.events_handled += self._c_handled
        stats.handler_instructions += self._c_handler_instr
        stats.mapping_instructions += self._c_mapping_instr
        stats.miss_handler_instructions += self._c_miss_instr
        stats.lifeguard_cycles += columnar_cycles
        it = self.it
        if it is not None:
            it_stats = it.stats
            it_stats.events_seen += (
                self._c_it_seen + self._c_rows_seen + self._c_rows_seen_delivered
            )
            it_stats.events_discarded += self._c_it_discarded
            it_stats.events_delivered += self._c_it_delivered + self._c_rows_seen_delivered
            it_stats.events_transformed += self._c_it_transformed
            it_stats.conflict_flushes += self._c_it_conflict

    # ------------------------------------------------------------------ delivery

    def _account(self, instructions: int) -> int:
        """Cycle charge of the event just handled (usage-based, no hierarchy)."""
        usage = self._usage
        mapping = usage.translations * self._translation_instr
        miss = usage.mtlb_misses * self._miss_cost
        self._c_handler_instr += instructions
        self._c_mapping_instr += mapping
        self._c_miss_instr += miss
        return NLBA_CYCLES + instructions + mapping + miss + len(usage.metadata_addresses)

    def _dispatch(self, entry, event) -> int:
        """Deliver one event generically (DeliveredEvent + registered handler)."""
        self._c_handled += 1
        self._begin_event()
        entry.handler(event)
        return self._account(entry.handler_instructions)

    # ------------------------------------------------------------------ IT helpers

    def _conflict_flushes(self, address, size, exclude, pc, thread_id) -> int:
        """Flush registers inheriting from a store range (scalar order).

        Twin of ``InheritanceTracker._conflict_events``: the caller
        guarantees IT is enabled with at least one ``addr`` register, an
        address and a positive size.
        """
        store_hi = address + size
        addr_state = ITState.ADDR
        cycles = 0
        for reg, it_entry in enumerate(self.it._table):
            if reg == exclude or it_entry.state is not addr_state:
                continue
            own_lo = it_entry.address
            if own_lo is None:
                continue
            if address < own_lo + (it_entry.size or 1) and own_lo < store_hi:
                self._c_it_conflict += 1
                cycles += self._flush_register(reg, pc, thread_id)
        return cycles

    def _flush_register(self, reg, pc, thread_id) -> int:
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
            return 0
        self._c_prop_delivered += 1
        self._c_handled += 1
        self._begin_event()
        fast = self._fast_m2r
        if fast is not None:
            fast(reg, ev_addr, ev_size)
        else:
            entry_m2r.handler(
                DeliveredEvent(
                    EventType.MEM_TO_REG, pc, reg, None, None,
                    ev_addr, ev_size, thread_id,
                )
            )
        return self._account(entry_m2r.handler_instructions)

    def _check_flushes(self, row_sreg, row_breg, row_ireg, pc, thread_id) -> int:
        """Register flushes a non-load/store check event forces first.

        Twin of ``EventAccelerator._flush_registers_for_check``; the caller
        guarantees IT is enabled with at least one ``addr`` register.  Note
        the scalar twin does *not* count IT conflict-flush statistics.
        """
        table_it = self.it._table
        num_regs = self._it_nregs
        addr_state = ITState.ADDR
        cycles = 0
        for reg in (row_sreg, row_breg, row_ireg):
            if reg is not None and reg < num_regs and table_it[reg].state is addr_state:
                cycles += self._flush_register(reg, pc, thread_id)
        return cycles

    # ------------------------------------------------------------------ check events

    def _check_ctx(self, f):
        """Pre-classify a uniform-flag run's check events (cached per ``f``).

        Returns ``None`` when rows with bitmap ``f`` produce no registered
        check event, else a flat context tuple the per-row worker unpacks:
        which of the five check types fire, their filter configuration,
        handler costs and span fast paths.  Only a handful of distinct
        bitmaps occur per trace, so the context is memoised (the cache is
        cleared by ``_refresh`` at every ``consume_columns`` entry).
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
        fast_load = fast_load_tr = None
        if entry_load is not None:
            per_row += 1
            # mode: 0 = unfiltered, 1/2 = specialised key shapes, 3 = generic
            load_mode = (
                (entry_load.filter_mode or 3)
                if filt is not None and entry_load.cacheable
                else 0
            )
            load_cc = entry_load.check_category
            load_instr = entry_load.handler_instructions
            fast_load = self._fast_load
            fast_load_tr = self._fast_load_tr
        store_mode = store_cc = store_instr = 0
        fast_store = fast_store_tr = None
        if entry_store is not None:
            per_row += 1
            store_mode = (
                (entry_store.filter_mode or 3)
                if filt is not None and entry_store.cacheable
                else 0
            )
            store_cc = entry_store.check_category
            store_instr = entry_store.handler_instructions
            fast_store = self._fast_store
            fast_store_tr = self._fast_store_tr
        ac_cacheable = ac_instr = 0
        fast_ac = fast_ac_tr = None
        if entry_ac is not None:
            per_row += 1
            ac_cacheable = filt is not None and entry_ac.cacheable
            ac_instr = entry_ac.handler_instructions
            fast_ac = self._fast_ac
            fast_ac_tr = self._fast_ac_tr
        ct_cacheable = ct_instr = 0
        fast_ct = fast_ct_tr = None
        if entry_ct is not None:
            per_row += 1
            ct_cacheable = filt is not None and entry_ct.cacheable
            ct_instr = entry_ct.handler_instructions
            fast_ct = self._fast_ct
            # The memory operand of a cond-test/indirect-jump/reg-op-mem
            # check is its src_addr; without one the fast handler cannot
            # reach its translating branch, so the per-event usage scoping
            # is skipped for the whole run.
            fast_ct_tr = self._fast_ct_tr and bool(f & F_SRC_ADDR)
        ij_cacheable = ij_instr = 0
        fast_ij = fast_ij_tr = None
        if entry_ij is not None:
            per_row += 1
            ij_cacheable = filt is not None and entry_ij.cacheable
            ij_instr = entry_ij.handler_instructions
            fast_ij = self._fast_ij
            fast_ij_tr = self._fast_ij_tr and bool(f & F_SRC_ADDR)
        if not per_row:
            return None
        return (
            per_row,
            entry_load, load_mode, load_cc, load_instr, fast_load, fast_load_tr,
            entry_store, store_mode, store_cc, store_instr, fast_store, fast_store_tr,
            entry_ac, ac_cacheable, ac_instr, fast_ac, fast_ac_tr,
            entry_ct, ct_cacheable, ct_instr, fast_ct, fast_ct_tr,
            entry_ij, ij_cacheable, ij_instr, fast_ij, fast_ij_tr,
        )

    def _check_row(self, cols, k, f, ctx) -> int:
        """Filter and deliver row ``k``'s check events (pre-classified).

        The caller accounts ``check_events_in`` (``ctx[0]`` per row) and
        guarantees ``ctx`` was built from this row's bitmap.
        """
        (
            _per_row,
            entry_load, load_mode, load_cc, load_instr, fast_load, fast_load_tr,
            entry_store, store_mode, store_cc, store_instr, fast_store, fast_store_tr,
            entry_ac, ac_cacheable, ac_instr, fast_ac, fast_ac_tr,
            entry_ct, ct_cacheable, ct_instr, fast_ct, fast_ct_tr,
            entry_ij, ij_cacheable, ij_instr, fast_ij, fast_ij_tr,
        ) = ctx
        cycles = 0
        delivered = 0
        filt = self.filter
        it = self.it
        size = cols.size[k]
        # ---- mem_load ----------------------------------------------------
        if entry_load is not None:
            addr = cols.src_addr[k]
            deliver = True
            if load_mode:
                # The two specialised key shapes are built from the columns.
                if load_mode == 1:
                    key = (load_cc, addr, size)
                elif load_mode == 2:
                    key = (load_cc, addr, size, cols.thread_id[k])
                else:
                    key = self.accelerator.etct.filter_key(
                        entry_load, self._event_mem_load(cols, k, f, addr, size)
                    )
                if filt.lookup_insert(key):
                    self._c_check_filtered += 1
                    deliver = False
            if deliver:
                delivered += 1
                if fast_load is not None:
                    self._c_handled += 1
                    if fast_load_tr:
                        self._begin_event()
                        fast_load(addr, size, cols.pc[k], cols.thread_id[k])
                        cycles += self._account(load_instr)
                    else:
                        fast_load(addr, size, cols.pc[k], cols.thread_id[k])
                        self._c_handler_instr += load_instr
                        cycles += NLBA_CYCLES + load_instr
                else:
                    cycles += self._dispatch(
                        entry_load, self._event_mem_load(cols, k, f, addr, size)
                    )
        # ---- mem_store ---------------------------------------------------
        if entry_store is not None:
            addr = cols.dest_addr[k]
            deliver = True
            if store_mode:
                if store_mode == 1:
                    key = (store_cc, addr, size)
                elif store_mode == 2:
                    key = (store_cc, addr, size, cols.thread_id[k])
                else:
                    key = self.accelerator.etct.filter_key(
                        entry_store, self._event_mem_store(cols, k, f, addr, size)
                    )
                if filt.lookup_insert(key):
                    self._c_check_filtered += 1
                    deliver = False
            if deliver:
                delivered += 1
                if fast_store is not None:
                    self._c_handled += 1
                    if fast_store_tr:
                        self._begin_event()
                        fast_store(addr, size, cols.pc[k], cols.thread_id[k])
                        cycles += self._account(store_instr)
                    else:
                        fast_store(addr, size, cols.pc[k], cols.thread_id[k])
                        self._c_handler_instr += store_instr
                        cycles += NLBA_CYCLES + store_instr
                else:
                    cycles += self._dispatch(
                        entry_store, self._event_mem_store(cols, k, f, addr, size)
                    )
        # ---- addr_compute ------------------------------------------------
        if entry_ac is not None:
            breg = cols.base_reg[k] if f & F_BASE_REG else None
            ireg = cols.index_reg[k] if f & F_INDEX_REG else None
            if it is not None and it._addr_count:
                # Pre-test: scan the (at most two) consulted registers and
                # only take the flush path when one is in the addr state.
                table_it = it._table
                num_regs = self._it_nregs
                addr_state = ITState.ADDR
                if (
                    breg is not None
                    and breg < num_regs
                    and table_it[breg].state is addr_state
                ) or (
                    ireg is not None
                    and ireg < num_regs
                    and table_it[ireg].state is addr_state
                ):
                    cycles += self._check_flushes(
                        None, breg, ireg, cols.pc[k], cols.thread_id[k]
                    )
            if f & F_DEST_ADDR:
                report_addr = cols.dest_addr[k]
            elif f & F_SRC_ADDR:
                report_addr = cols.src_addr[k]
            else:
                report_addr = None
            deliver = True
            if ac_cacheable:
                event = self._event_addr_compute(cols, k, f, report_addr, breg, ireg)
                if filt.lookup_insert(
                    self.accelerator.etct.filter_key(entry_ac, event)
                ):
                    self._c_check_filtered += 1
                    deliver = False
                elif fast_ac is None:
                    delivered += 1
                    cycles += self._dispatch(entry_ac, event)
                    deliver = False
            if deliver:
                delivered += 1
                if fast_ac is not None:
                    self._c_handled += 1
                    if fast_ac_tr:
                        self._begin_event()
                        fast_ac(breg, ireg, cols.pc[k], cols.thread_id[k], report_addr)
                        cycles += self._account(ac_instr)
                    else:
                        fast_ac(breg, ireg, cols.pc[k], cols.thread_id[k], report_addr)
                        self._c_handler_instr += ac_instr
                        cycles += NLBA_CYCLES + ac_instr
                else:
                    cycles += self._dispatch(
                        entry_ac,
                        self._event_addr_compute(cols, k, f, report_addr, breg, ireg),
                    )
        # ---- cond_test ---------------------------------------------------
        if entry_ct is not None:
            sreg = cols.src_reg[k] if f & F_SRC_REG else None
            if it is not None and it._addr_count:
                if (
                    sreg is not None
                    and sreg < self._it_nregs
                    and it._table[sreg].state is ITState.ADDR
                ):
                    cycles += self._check_flushes(
                        sreg, None, None, cols.pc[k], cols.thread_id[k]
                    )
            saddr = cols.src_addr[k] if f & F_SRC_ADDR else None
            deliver = True
            if ct_cacheable:
                event = self._event_cond_test(cols, k, f, sreg, saddr, size)
                if filt.lookup_insert(
                    self.accelerator.etct.filter_key(entry_ct, event)
                ):
                    self._c_check_filtered += 1
                    deliver = False
                elif fast_ct is None:
                    delivered += 1
                    cycles += self._dispatch(entry_ct, event)
                    deliver = False
            if deliver:
                delivered += 1
                if fast_ct is not None:
                    self._c_handled += 1
                    if fast_ct_tr:
                        self._begin_event()
                        fast_ct(sreg, saddr, size, cols.pc[k], cols.thread_id[k])
                        cycles += self._account(ct_instr)
                    else:
                        fast_ct(sreg, saddr, size, cols.pc[k], cols.thread_id[k])
                        self._c_handler_instr += ct_instr
                        cycles += NLBA_CYCLES + ct_instr
                else:
                    cycles += self._dispatch(
                        entry_ct, self._event_cond_test(cols, k, f, sreg, saddr, size)
                    )
        # ---- indirect_jump -----------------------------------------------
        if entry_ij is not None:
            sreg = cols.src_reg[k] if f & F_SRC_REG else None
            if it is not None and it._addr_count:
                if (
                    sreg is not None
                    and sreg < self._it_nregs
                    and it._table[sreg].state is ITState.ADDR
                ):
                    cycles += self._check_flushes(
                        sreg, None, None, cols.pc[k], cols.thread_id[k]
                    )
            saddr = cols.src_addr[k] if f & F_SRC_ADDR else None
            ij_size = size or 4
            deliver = True
            if ij_cacheable:
                event = self._event_indirect_jump(cols, k, f, sreg, saddr, ij_size)
                if filt.lookup_insert(
                    self.accelerator.etct.filter_key(entry_ij, event)
                ):
                    self._c_check_filtered += 1
                    deliver = False
                elif fast_ij is None:
                    delivered += 1
                    cycles += self._dispatch(entry_ij, event)
                    deliver = False
            if deliver:
                delivered += 1
                if fast_ij is not None:
                    self._c_handled += 1
                    if fast_ij_tr:
                        self._begin_event()
                        fast_ij(sreg, saddr, ij_size, cols.pc[k], cols.thread_id[k])
                        cycles += self._account(ij_instr)
                    else:
                        fast_ij(sreg, saddr, ij_size, cols.pc[k], cols.thread_id[k])
                        self._c_handler_instr += ij_instr
                        cycles += NLBA_CYCLES + ij_instr
                else:
                    cycles += self._dispatch(
                        entry_ij,
                        self._event_indirect_jump(cols, k, f, sreg, saddr, ij_size),
                    )
        self._c_check_delivered += delivered
        return cycles

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
    # of rows with identical ordinal and presence bitmap and returns the
    # lifeguard cycles it charged.

    def _step_checks_only(self, cols, i, j, f) -> int:
        """Rows whose ordinal carries no propagation event (or lifeguard)."""
        n = j - i
        self._c_records += n
        if not f & self._check_mask:
            return 0
        ctx = self._check_ctx(f)
        if ctx is None:
            return 0
        self._c_check_in += ctx[0] * n
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            cycles += check_row(cols, k, f, ctx)
        return cycles

    def _step_discard(self, cols, i, j, f) -> int:
        """``reg_self`` / ``mem_self``: IT absorbs every event unchanged."""
        n = j - i
        self._c_rows_absorbed += n
        self.it.absorb_noop_run(n)
        if not f & self._check_mask:
            return 0
        ctx = self._check_ctx(f)
        if ctx is None:
            return 0
        self._c_check_in += ctx[0] * n
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            cycles += check_row(cols, k, f, ctx)
        return cycles

    def _step_imm_to_reg(self, cols, i, j, f) -> int:
        """``imm_to_reg``: clear the destination's inheritance, discard."""
        n = j - i
        self._c_rows_absorbed += n
        it = self.it
        ctx = self._check_ctx(f) if f & self._check_mask else None
        if ctx is None:
            it.absorb_clear_run(cols.flags, cols.dest_reg, i, j)
            return 0
        # Interleave row by row: a check flush must observe the clears of
        # all earlier rows (and only those).
        self._c_check_in += ctx[0] * n
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            it.absorb_clear_run(cols.flags, cols.dest_reg, k, k + 1)
            cycles += check_row(cols, k, f, ctx)
        return cycles

    def _step_mem_to_reg(self, cols, i, j, f) -> int:
        """``mem_to_reg``: record the inheritance (never delivered)."""
        n = j - i
        self._c_rows_absorbed += n
        it = self.it
        ctx = self._check_ctx(f) if f & self._check_mask else None
        if ctx is None:
            it.absorb_mem_to_reg_run(
                cols.flags, cols.dest_reg, cols.src_addr, cols.size, i, j
            )
            return 0
        self._c_it_seen += n
        self._c_it_discarded += n
        self._c_check_in += ctx[0] * n
        cycles = 0
        check_row = self._check_row
        if f & _DREG_SADDR == _DREG_SADDR:
            table_it = it._table
            num_regs = len(table_it)
            addr_state = ITState.ADDR
            dest_regs = cols.dest_reg
            src_addrs = cols.src_addr
            sizes = cols.size
            for k in range(i, j):
                reg = dest_regs[k]
                if reg < num_regs:
                    entry = table_it[reg]
                    if entry.state is not addr_state:
                        it._addr_count += 1
                        entry.state = addr_state
                    entry.address = src_addrs[k]
                    entry.size = sizes[k] or 1
                cycles += check_row(cols, k, f, ctx)
        else:
            for k in range(i, j):
                cycles += check_row(cols, k, f, ctx)
        return cycles

    def _step_imm_to_mem(self, cols, i, j, f) -> int:
        """``imm_to_mem``: conflict flushes, then always delivered."""
        n = j - i
        self._c_rows_seen_delivered += n
        it = self.it
        entry_i2m = self._entry_i2m
        fast = self._fast_i2m
        fast_tr = self._fast_i2m_tr
        has_daddr = f & F_DEST_ADDR
        dest_addr_col = cols.dest_addr
        size_col = cols.size
        pc_col = cols.pc
        tid_col = cols.thread_id
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                cycles += self._conflict_flushes(daddr, size, None, pc_col[k], tid_col[k])
            if entry_i2m is not None:
                self._c_prop_delivered += 1
                if fast is not None:
                    self._c_handled += 1
                    if fast_tr:
                        self._begin_event()
                        fast(daddr, size)
                        cycles += self._account(entry_i2m.handler_instructions)
                    else:
                        fast(daddr, size)
                        instr = entry_i2m.handler_instructions
                        self._c_handler_instr += instr
                        cycles += NLBA_CYCLES + instr
                else:
                    cycles += self._dispatch(
                        entry_i2m, self._event_from_row(cols, k, f, EventType.IMM_TO_MEM)
                    )
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    def _step_mem_to_mem(self, cols, i, j, f) -> int:
        """``mem_to_mem``: conflict flushes, then always delivered."""
        n = j - i
        self._c_rows_seen_delivered += n
        it = self.it
        entry_m2m = self._entry_m2m
        fast = self._fast_m2m
        fast_tr = self._fast_m2m_tr
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
        cycles = 0
        for k in range(i, j):
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                cycles += self._conflict_flushes(daddr, size, None, pc_col[k], tid_col[k])
            if entry_m2m is not None:
                self._c_prop_delivered += 1
                if fast is not None:
                    saddr = src_addr_col[k] if has_saddr else None
                    self._c_handled += 1
                    if fast_tr:
                        self._begin_event()
                        fast(daddr, saddr, size)
                        cycles += self._account(entry_m2m.handler_instructions)
                    else:
                        fast(daddr, saddr, size)
                        instr = entry_m2m.handler_instructions
                        self._c_handler_instr += instr
                        cycles += NLBA_CYCLES + instr
                else:
                    cycles += self._dispatch(
                        entry_m2m, self._event_from_row(cols, k, f, EventType.MEM_TO_MEM)
                    )
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    def _step_reg_to_reg(self, cols, i, j, f) -> int:
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
        cycles = 0
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
                    cycles += self._dispatch(entry_r2r, event)
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    def _step_reg_to_mem(self, cols, i, j, f) -> int:
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
        fast_i2m_tr = self._fast_i2m_tr
        # m2m / r2m outcomes are rarer; their fast-path bindings are read
        # from self inside those branches.
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        cycles = 0
        transformed = 0
        prop_delivered = 0
        handled = 0
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            daddr = dest_addr_col[k] if has_daddr else None
            size = size_col[k]
            if it._addr_count and daddr is not None and size > 0:
                cycles += self._conflict_flushes(daddr, size, sreg, pc_col[k], tid_col[k])
            src_state = table_it[sreg].state if sreg is not None else clear_state
            if src_state is clear_state:
                transformed += 1
                if entry_i2m is not None:
                    prop_delivered += 1
                    if fast_i2m is not None:
                        handled += 1
                        if fast_i2m_tr:
                            self._begin_event()
                            fast_i2m(daddr, size)
                            cycles += self._account(entry_i2m.handler_instructions)
                        else:
                            fast_i2m(daddr, size)
                            instr = entry_i2m.handler_instructions
                            self._c_handler_instr += instr
                            cycles += NLBA_CYCLES + instr
                    else:
                        event = self._event_from_row(cols, k, f, EventType.IMM_TO_MEM)
                        event.src_reg = None
                        cycles += self._dispatch(entry_i2m, event)
            elif src_state is addr_state:
                transformed += 1
                if entry_m2m is not None:
                    prop_delivered += 1
                    src_entry = table_it[sreg]
                    fast_m2m = self._fast_m2m
                    if fast_m2m is not None:
                        handled += 1
                        if self._fast_m2m_tr:
                            self._begin_event()
                            fast_m2m(daddr, src_entry.address, size)
                            cycles += self._account(entry_m2m.handler_instructions)
                        else:
                            fast_m2m(daddr, src_entry.address, size)
                            instr = entry_m2m.handler_instructions
                            self._c_handler_instr += instr
                            cycles += NLBA_CYCLES + instr
                    else:
                        event = self._event_from_row(cols, k, f, EventType.MEM_TO_MEM)
                        event.src_reg = None
                        event.src_addr = src_entry.address
                        cycles += self._dispatch(entry_m2m, event)
            else:
                self._c_it_delivered += 1
                if entry_r2m is not None:
                    prop_delivered += 1
                    fast_r2m = self._fast_r2m
                    if fast_r2m is not None:
                        handled += 1
                        if self._fast_r2m_tr:
                            self._begin_event()
                            fast_r2m(sreg, daddr, size)
                            cycles += self._account(entry_r2m.handler_instructions)
                        else:
                            fast_r2m(sreg, daddr, size)
                            instr = entry_r2m.handler_instructions
                            self._c_handler_instr += instr
                            cycles += NLBA_CYCLES + instr
                    else:
                        cycles += self._dispatch(
                            entry_r2m,
                            self._event_from_row(cols, k, f, EventType.REG_TO_MEM),
                        )
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        self._c_it_transformed += transformed
        self._c_prop_delivered += prop_delivered
        self._c_handled += handled
        return cycles

    def _step_dest_reg_op_reg(self, cols, i, j, f) -> int:
        """``dest_reg op= reg``: discard on clean source, else transform/deliver."""
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
        pc_col = cols.pc
        tid_col = cols.thread_id
        entry_drr = self._entry_drr
        entry_drm = self._entry_drm
        # The span fast path reports with a None address; only rows without
        # a destination address match that (the overwhelmingly common case
        # for register-destination operations).
        fast_drm = self._fast_drm if not f & F_DEST_ADDR else None
        fast_drm_tr = self._fast_drm_tr
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        cycles = 0
        discarded = 0
        transformed = 0
        prop_delivered = 0
        handled = 0
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
                    self._set_clear(dreg, num_regs)
                    if entry_drm is not None:
                        prop_delivered += 1
                        if fast_drm is not None:
                            handled += 1
                            if fast_drm_tr:
                                self._begin_event()
                                fast_drm(dreg, None, ev_addr, ev_size, pc_col[k], tid_col[k])
                                cycles += self._account(entry_drm.handler_instructions)
                            else:
                                fast_drm(dreg, None, ev_addr, ev_size, pc_col[k], tid_col[k])
                                instr = entry_drm.handler_instructions
                                self._c_handler_instr += instr
                                cycles += NLBA_CYCLES + instr
                        else:
                            event = self._event_from_row(
                                cols, k, f, EventType.DEST_REG_OP_MEM
                            )
                            event.src_reg = None
                            event.src_addr = ev_addr
                            event.size = ev_size
                            cycles += self._dispatch(entry_drm, event)
                else:
                    self._c_it_delivered += 1
                    event = (
                        self._event_from_row(cols, k, f, EventType.DEST_REG_OP_REG)
                        if entry_drr is not None
                        else None
                    )
                    self._set_clear(dreg, num_regs)
                    if entry_drr is not None:
                        prop_delivered += 1
                        cycles += self._dispatch(entry_drr, event)
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        self._c_it_discarded += discarded
        self._c_it_transformed += transformed
        self._c_prop_delivered += prop_delivered
        self._c_handled += handled
        return cycles

    def _step_dest_reg_op_mem(self, cols, i, j, f) -> int:
        """``dest_reg op= mem``: always delivered, destination cleared."""
        n = j - i
        self._c_rows_seen_delivered += n
        table_it = self.it._table
        num_regs = len(table_it)
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
        fast_drm_tr = self._fast_drm_tr
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            dreg = dest_reg_col[k] if has_dreg else None
            event = (
                self._event_from_row(cols, k, f, EventType.DEST_REG_OP_MEM)
                if entry_drm is not None and fast_drm is None
                else None
            )
            self._set_clear(dreg, num_regs)
            if entry_drm is not None:
                self._c_prop_delivered += 1
                if fast_drm is not None:
                    sreg = src_reg_col[k] if has_sreg else None
                    saddr = src_addr_col[k] if has_saddr else None
                    self._c_handled += 1
                    if fast_drm_tr:
                        self._begin_event()
                        fast_drm(dreg, sreg, saddr, size_col[k], pc_col[k], tid_col[k])
                        cycles += self._account(entry_drm.handler_instructions)
                    else:
                        fast_drm(dreg, sreg, saddr, size_col[k], pc_col[k], tid_col[k])
                        instr = entry_drm.handler_instructions
                        self._c_handler_instr += instr
                        cycles += NLBA_CYCLES + instr
                else:
                    cycles += self._dispatch(entry_drm, event)
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    def _step_dest_mem_op_reg(self, cols, i, j, f) -> int:
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
        cycles = 0
        for k in range(i, j):
            sreg = src_reg_col[k] if has_sreg else None
            src_state = table_it[sreg].state if sreg is not None else clear_state
            if src_state is clear_state:
                self._c_it_discarded += 1
            else:
                daddr = dest_addr_col[k] if has_daddr else None
                size = size_col[k]
                if it._addr_count and daddr is not None and size > 0:
                    cycles += self._conflict_flushes(
                        daddr, size, sreg, pc_col[k], tid_col[k]
                    )
                if src_state is addr_state:
                    # Materialise the source register's metadata first.
                    self._c_it_conflict += 1
                    cycles += self._flush_register(sreg, pc_col[k], tid_col[k])
                self._c_it_delivered += 1
                if entry_dmr is not None:
                    self._c_prop_delivered += 1
                    cycles += self._dispatch(
                        entry_dmr,
                        self._event_from_row(cols, k, f, EventType.DEST_MEM_OP_REG),
                    )
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    def _step_prop_no_it(self, cols, i, j, f) -> int:
        """Propagation rows with IT disabled: deliver unfiltered if registered."""
        n = j - i
        self._c_rows_absorbed += n
        entry = self._registered(cols.ordinal[i])
        check_ctx = self._check_ctx(f) if f & self._check_mask else None
        if entry is None and check_ctx is None:
            return 0
        if check_ctx is not None:
            self._c_check_in += check_ctx[0] * n
        etype = EVENT_TYPES[cols.ordinal[i]] if entry is not None else None
        check_row = self._check_row
        cycles = 0
        for k in range(i, j):
            if entry is not None:
                self._c_prop_delivered += 1
                cycles += self._dispatch(entry, self._event_from_row(cols, k, f, etype))
            if check_ctx is not None:
                cycles += check_row(cols, k, f, check_ctx)
        return cycles

    # ------------------------------------------------------------------ IT micro-ops

    def _set_clear(self, reg, num_regs) -> None:
        """Inline twin of ``InheritanceTracker._set_clear``."""
        if reg is None or reg >= num_regs:
            return
        it = self.it
        entry = it._table[reg]
        if entry.state is ITState.ADDR:
            it._addr_count -= 1
        entry.state = ITState.CLEAR
        entry.address = None
        entry.size = 0
