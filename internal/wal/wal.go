// Package wal is GRETEL's durable event plane: a segmented, append-only
// write-ahead log for captured trace events, so the evidence the
// analyzer passively observes survives the crashes it exists to
// explain. Everything else in the analyzer is rebuildable state — the
// WAL is the one thing that must not die with the process.
//
// The log is a thin user of internal/seglog, which owns segments,
// rotation, retention, fsync, abandon-on-error and recovery. Records
// are kind 'E' and carry a JSON-encoded trace.Event; their framing is
// the agent's wire-frame format (internal/agent frame.go, wire format
// v2), so a WAL segment is exactly a captured frame stream on disk,
// and the reader recovers it the same way the transport receiver
// resynchronizes on the wire: corruption is skipped and counted, never
// trusted and never fatal. Segments are named wal-<first-seq>.seg and
// rotate on a size bound; retention drops whole closed segments
// oldest-first to hold a byte budget. On top of the shared log the
// package adds the JSON body codec, the fsync policy names, and the
// durable consumer cursor.
//
// The recovery invariant, proven by the crash soak: for every record
// handed to Append, recovery either returns it intact (recovered) or
// counts it as lost (quarantined) — recovered + quarantined == written.
// Silent loss is the only failure mode the log does not permit.
package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// WAL telemetry: append/rotation/retention on the write side,
// recovered/quarantined on the read side (the durable twin of the
// transport's delivered/missed accounting). The wal.append histogram
// times Append/AppendBatch calls — the cost the ingest path pays for
// durability — and wal.replay times full recovery scans.
var (
	segMetrics = seglog.Metrics{
		Appended:     telemetry.GetCounter("wal.appended"),
		Synced:       telemetry.GetCounter("wal.synced"),
		Rotated:      telemetry.GetCounter("wal.rotated"),
		Retired:      telemetry.GetCounter("wal.segments_retired"),
		Abandoned:    telemetry.GetCounter("wal.segments_abandoned"),
		Quarantined:  telemetry.GetCounter("wal.quarantined"),
		BytesSkipped: telemetry.GetCounter("wal.bytes_skipped"),
		Scan:         telemetry.GetHistogram("wal.replay"),
	}
	mAppendErrors = telemetry.GetCounter("wal.append_errors")
	mRecovered    = telemetry.GetCounter("wal.recovered")
	mCursorSaves  = telemetry.GetCounter("wal.cursor_saves")
	hAppend       = telemetry.GetHistogram("wal.append")
)

// MaxRecord bounds one encoded event (the shared record bound).
const MaxRecord = seglog.MaxRecord

const (
	// fsyncInterval is the FsyncInterval policy's flush period.
	fsyncInterval = 100 * time.Millisecond
	// cursorEvery persists the consumer cursor after this many
	// MarkProcessed advances; it is always persisted on Sync and Close.
	cursorEvery = 4096
	// cursorFile holds the durable consumer cursor: the highest record
	// sequence the analyzer has fully processed. Written atomically
	// (tmp + rename) so a crash never leaves a torn cursor.
	cursorFile = "CURSOR"
)

// segOptions is the shared log's view of a WAL directory.
func segOptions(dir string) seglog.Options {
	return seglog.Options{Dir: dir, Name: "wal", Kind: seglog.KindEvent, Metrics: segMetrics}
}

// Fsync selects the durability policy for appends.
type Fsync uint8

const (
	// FsyncNone never calls fsync: appends are flushed to the OS (they
	// survive a process kill) but a machine crash can lose the page
	// cache. The fastest policy.
	FsyncNone Fsync = iota
	// FsyncInterval calls fsync at most once per 100ms, bounding
	// machine-crash loss to that window.
	FsyncInterval
	// FsyncEvery calls fsync on every Append/AppendBatch: nothing acked
	// is ever lost, at one disk flush per call.
	FsyncEvery
)

// String implements fmt.Stringer.
func (f Fsync) String() string {
	switch f {
	case FsyncNone:
		return "none"
	case FsyncInterval:
		return "interval"
	case FsyncEvery:
		return "every"
	default:
		return fmt.Sprintf("fsync(%d)", uint8(f))
	}
}

// ParseFsync resolves a policy name ("none", "interval", "every").
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "none":
		return FsyncNone, nil
	case "interval":
		return FsyncInterval, nil
	case "every":
		return FsyncEvery, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want none, interval, or every)", s)
}

// Options tunes the log. The zero value (plus Dir) is usable but never
// fsyncs (FsyncNone); production callers pick a policy explicitly —
// gretel's -wal-fsync flag defaults to interval.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 8 MiB).
	SegmentBytes int64
	// Fsync is the durability policy. The zero value is FsyncNone.
	Fsync Fsync
	// RetainBytes drops closed segments oldest-first once the log
	// exceeds this budget (default 1 GiB; negative retains everything).
	RetainBytes int64
	// WrapWriter, when set, wraps each segment file as it is created —
	// the chaos tests inject torn writes, short writes, and bit flips
	// here. Sync still reaches the underlying file.
	WrapWriter func(io.Writer) io.Writer
}

// Stats is a point-in-time view of the log's write-side accounting.
type Stats = seglog.Stats

// Log is the append side. All methods are safe for a single writer
// goroutine (the analyzer's ingest goroutine); Append never reorders —
// record sequence numbers are monotonically increasing, and dense
// except where a failed append skipped its batch's sequences.
type Log struct {
	w       *seglog.Writer
	dir     string
	scratch []byte

	cursor          uint64 // highest record seq marked processed
	cursorPersisted uint64
}

// Open opens (or creates) the log at opts.Dir for appending. The
// sequence continues after the last intact record on disk, in a fresh
// segment; trailing segments holding no intact record (a crash tore
// their first append) are removed.
func Open(opts Options) (*Log, error) {
	so := segOptions(opts.Dir)
	so.SegmentBytes = opts.SegmentBytes
	if so.SegmentBytes <= 0 {
		so.SegmentBytes = 8 << 20
	}
	so.RetainBytes = opts.RetainBytes
	if so.RetainBytes == 0 {
		so.RetainBytes = 1 << 30
	}
	so.SyncEvery = opts.Fsync == FsyncEvery
	if opts.Fsync == FsyncInterval {
		so.SyncInterval = fsyncInterval
	}
	so.WrapWriter = opts.WrapWriter
	w, err := seglog.Open(so)
	if err != nil {
		return nil, err
	}
	// The cursor can run ahead of the durable log when the final record
	// was torn after being processed; clamp so MarkProcessed stays
	// monotonic against replayed sequences.
	cursor := min(loadCursor(opts.Dir), w.LastSeq())
	return &Log{w: w, dir: opts.Dir, cursor: cursor, cursorPersisted: cursor}, nil
}

// LastSeq returns the last record sequence assigned: the highest acked,
// unless the latest append failed (its sequences are skipped).
func (l *Log) LastSeq() uint64 { return l.w.LastSeq() }

// Stats snapshots the write-side accounting.
func (l *Log) Stats() Stats { return l.w.Stats() }

// Cursor returns the durable consumer cursor loaded at Open and
// advanced by MarkProcessed: the highest record sequence the consumer
// has fully processed.
func (l *Log) Cursor() uint64 { return l.cursor }

// Append encodes and appends one event, returning its record sequence.
// The record reaches the OS before Append returns (a process kill after
// the ack loses nothing); fsync follows the configured policy.
func (l *Log) Append(ev trace.Event) (uint64, error) {
	return l.AppendBatch([]trace.Event{ev})
}

// AppendBatch appends a batch of events as consecutive records in one
// write (and at most one fsync), returning the last record sequence.
// On error the batch may be partially durable; the sequence reflects
// only what was acked, and recovery quarantines any torn remainder.
func (l *Log) AppendBatch(evs []trace.Event) (uint64, error) {
	base := l.w.LastSeq()
	if len(evs) == 0 {
		return base, nil
	}
	span := hAppend.Start()
	defer span.End()
	l.scratch = l.scratch[:0]
	for i := range evs {
		body, err := json.Marshal(&evs[i])
		if err != nil {
			mAppendErrors.Inc()
			return base, fmt.Errorf("wal: encoding event: %w", err)
		}
		if len(body) > MaxRecord {
			// The reader unconditionally skips any length prefix over
			// MaxRecord, so acking this record would make it durable but
			// unrecoverable — refuse the whole batch before any byte of
			// it is written.
			mAppendErrors.Inc()
			return base, fmt.Errorf("wal: encoded event is %d bytes, over the %d-byte record bound", len(body), MaxRecord)
		}
		l.scratch = seglog.EncodeRecord(l.scratch, seglog.KindEvent, base+uint64(i)+1, body)
	}
	last, err := l.w.Append(l.scratch, len(evs))
	if err != nil {
		mAppendErrors.Inc()
	}
	return last, err
}

// Sync fsyncs the active segment and persists the cursor — a
// durability barrier callers can place wherever they need one.
func (l *Log) Sync() error {
	if err := l.w.Sync(); err != nil {
		return err
	}
	return l.saveCursor()
}

// MarkProcessed advances the durable consumer cursor: every record at
// or below seq has been fully processed by the consumer, so a restart
// may treat them as already-reported history. The cursor is persisted
// every 4096 advances and on Sync/Close; report emission across a
// crash boundary is therefore at-least-once, while the log itself
// stays exactly-once.
func (l *Log) MarkProcessed(seq uint64) {
	if seq <= l.cursor {
		return
	}
	l.cursor = seq
	if l.cursor-l.cursorPersisted >= cursorEvery {
		if err := l.saveCursor(); err != nil {
			telemetry.LogFirst("wal.cursor", "wal: persisting cursor: %v", err)
		}
	}
}

// saveCursor writes the cursor atomically (tmp + rename).
func (l *Log) saveCursor() error {
	if l.cursor == l.cursorPersisted {
		return nil
	}
	if err := saveCursor(l.dir, l.cursor); err != nil {
		return err
	}
	l.cursorPersisted = l.cursor
	mCursorSaves.Inc()
	return nil
}

// Close fsyncs and closes the active segment and persists the cursor.
func (l *Log) Close() error {
	err := l.saveCursor()
	if cerr := l.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadCursor reads the persisted consumer cursor (0 when absent or
// unreadable — recovery then replays the whole retained log, which is
// always safe).
func loadCursor(dir string) uint64 {
	b, err := os.ReadFile(filepath.Join(dir, cursorFile))
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// saveCursor atomically persists a consumer cursor value for dir.
func saveCursor(dir string, seq uint64) error {
	path := filepath.Join(dir, cursorFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq, 10)+"\n"), 0o644); err != nil {
		return fmt.Errorf("wal: writing cursor: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: committing cursor: %w", err)
	}
	return nil
}

// LoadCursor reads dir's persisted consumer cursor without opening the
// log — boot recovery decides report suppression from it before the
// writer exists (0 when absent: replay everything, report everything).
func LoadCursor(dir string) uint64 { return loadCursor(dir) }

// RemoveCursor deletes the persisted cursor, turning the next boot
// replay into a full from-scratch reanalysis. Missing cursors are not
// an error.
func RemoveCursor(dir string) error {
	err := os.Remove(filepath.Join(dir, cursorFile))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
