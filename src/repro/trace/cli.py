"""``python -m repro.trace`` -- trace-file maintenance commands.

Currently one subcommand::

    python -m repro.trace verify run.lbatrace [more.lbatrace ...]

audits each file's header, chunk index, footer totals, per-chunk CRC32s
and (unless ``--no-decode``) a full codec decode of every chunk, printing
one line per problem and a per-file summary.  Exit status is non-zero when
any file fails, so the command doubles as a CI / pre-replay integrity
gate.  ``--json`` emits the audit as a machine-readable document instead.

``verify --repair`` additionally recovers damaged files in place: the
trace is truncated to its longest valid chunk prefix and the footer is
rewritten atomically (see :func:`repro.trace.tracefile.repair_trace`).
A file that ends up valid -- already intact or successfully repaired --
counts as a success; only unrecoverable files fail the command.  The
monitoring gateway's crash-recovery path runs the same repair on partial
traces it finds in its store at startup.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.trace.tracefile import TraceAudit, repair_trace, verify_trace


def _audit_document(audit: TraceAudit) -> dict:
    return {
        "path": audit.path,
        "ok": audit.ok,
        "version": audit.version,
        "file_error": audit.file_error,
        "chunks": len(audit.chunks),
        "records": audit.stats.records if audit.stats else None,
        "bad_chunks": [
            {"chunk": chunk.index, "records": chunk.records, "error": chunk.error}
            for chunk in audit.bad_chunks
        ],
    }


def _print_audit(audit: TraceAudit) -> None:
    if audit.file_error is not None:
        print(f"FAIL {audit.path}: {audit.file_error}")
        return
    for chunk in audit.bad_chunks:
        print(f"  chunk {chunk.index} ({chunk.records} records): {chunk.error}")
    if audit.bad_chunks:
        bad_records = sum(chunk.records for chunk in audit.bad_chunks)
        print(
            f"FAIL {audit.path}: {len(audit.bad_chunks)}/{len(audit.chunks)} "
            f"chunks corrupt ({bad_records} records unrecoverable)"
        )
    else:
        stats = audit.stats
        print(
            f"ok {audit.path}: version {audit.version}, {len(audit.chunks)} "
            f"chunks, {stats.records} records, {stats.stored_bytes} bytes "
            "stored, CRCs verified"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Trace-file maintenance commands.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    verify = subparsers.add_parser(
        "verify", help="audit header/index/CRCs (and decode) of trace files"
    )
    verify.add_argument("traces", nargs="+", metavar="TRACE",
                        help="trace files to audit")
    verify.add_argument("--no-decode", action="store_true",
                        help="check only header/index/CRC layers, skip the "
                             "codec decode of every chunk")
    verify.add_argument("--json", action="store_true",
                        help="emit one JSON document per file instead of text")
    verify.add_argument("--repair", action="store_true",
                        help="recover damaged files in place by truncating to "
                             "the last valid chunk and atomically rewriting "
                             "the footer; only unrecoverable files fail")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    failed = 0
    for path in args.traces:
        audit = verify_trace(path, decode=not args.no_decode)
        repair = None
        if args.repair and not audit.ok:
            repair = repair_trace(path)
            if repair.changed:
                # Re-audit so the reported verdict describes the file as it
                # now exists on disk.
                audit = verify_trace(path, decode=not args.no_decode)
        if args.json:
            document = _audit_document(audit)
            if repair is not None:
                document["repair"] = repair.to_dict()
            print(json.dumps(document, sort_keys=True))
        else:
            if repair is not None:
                _print_repair(repair)
            _print_audit(audit)
        if not (audit.ok if repair is None else repair.ok and audit.ok):
            failed += 1
    if failed and not args.json:
        print(f"{failed}/{len(args.traces)} trace file(s) failed verification")
    return 1 if failed else 0


def _print_repair(repair) -> None:
    if repair.action == "repaired":
        lost = ("unknown damage" if repair.lost_records is None
                else f"{repair.lost_chunks} chunk(s) / {repair.lost_records} record(s) lost")
        print(
            f"repaired {repair.path}: kept {repair.kept_chunks} chunk(s) / "
            f"{repair.kept_records} record(s), {lost}"
        )
    elif repair.action == "unrecoverable":
        print(f"unrecoverable {repair.path}: {repair.detail}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
