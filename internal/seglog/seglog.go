// Package seglog is the segmented, append-only record log under both of
// GRETEL's durable stores: the event WAL (internal/wal) and the
// telemetry TSDB (internal/tsdb). It owns what the two have in common —
// record framing, segment naming and listing, O_EXCL create, rotation,
// retention, the fsync policy, abandon-on-error, recovery that drops
// trailing recordless segments, and the skip-and-count recovery scan —
// so a durability fix is written once. Its users differ only in record
// kind, file prefix and body format.
//
// Segments are named <name>-<first seq, %020d>.seg. Sequences are
// assigned by the writer: monotonically increasing, and dense except
// where a failed append skipped its batch's sequences. Appends reach
// the OS before Append returns (a process kill after the ack loses
// nothing); fsync, which survives machine crashes, follows the policy.
package seglog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gretel/internal/telemetry"
)

// Metrics is the telemetry a log feeds; nil entries are not fed.
type Metrics struct {
	// Writer side: records acked, fsyncs, rotations, segments dropped
	// by retention, segments abandoned after an I/O error.
	Appended, Synced, Rotated, Retired, Abandoned *telemetry.Counter
	// Scanner side: records lost to corruption, bytes skipped while
	// resynchronizing, and the duration of whole scans.
	Quarantined, BytesSkipped *telemetry.Counter
	Scan                      *telemetry.Histogram
}

func add(c *telemetry.Counter, n uint64) {
	if c != nil {
		c.Add(n)
	}
}

// Options configures a log's writer and scanner.
type Options struct {
	// Dir is the log directory (Open creates it if missing).
	Dir string
	// Name prefixes the segment files (<Name>-<seq>.seg), errors and log
	// lines: "wal" or "tsdb".
	Name string
	// Kind is the record kind byte of every record in this log.
	Kind byte
	// SegmentBytes rotates the active segment once a write would push
	// it past this size. Must be positive.
	SegmentBytes int64
	// RetainBytes drops closed segments oldest-first once the log
	// exceeds this budget (<= 0 retains everything).
	RetainBytes int64
	// SyncEvery fsyncs after every Append; otherwise a positive
	// SyncInterval fsyncs at most once per interval. Rotation, Sync and
	// Close always fsync.
	SyncEvery    bool
	SyncInterval time.Duration
	// WrapWriter, when set, wraps each segment file on creation — the
	// chaos tests inject torn writes, short writes, and bit flips here.
	// Sync still reaches the underlying file.
	WrapWriter func(io.Writer) io.Writer
	Metrics    Metrics
}

// Segment is one on-disk segment file.
type Segment struct {
	Path     string
	FirstSeq uint64
	Bytes    int64
}

// SegName renders the canonical segment file name for a first sequence.
func SegName(name string, firstSeq uint64) string {
	return fmt.Sprintf("%s-%020d.seg", name, firstSeq)
}

// List returns dir's segments of the named log sorted by first
// sequence (which is also creation order).
func List(dir, name string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := name + "-"
	var segs []Segment
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasPrefix(n, prefix) || !strings.HasSuffix(n, ".seg") {
			continue
		}
		first, err := strconv.ParseUint(n[len(prefix):len(n)-len(".seg")], 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, Segment{Path: filepath.Join(dir, n), FirstSeq: first, Bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
	return segs, nil
}

// Stats is a point-in-time view of the writer's accounting.
type Stats struct {
	// Appended counts records acked by Append since Open.
	Appended uint64
	// Synced counts fsync calls; Rotated counts segment rotations;
	// Retired counts whole segments dropped by retention.
	Synced, Rotated, Retired uint64
	// Segments is the current on-disk segment count (active included);
	// Bytes is their total size.
	Segments int
	Bytes    int64
}

// Writer is the append side. It is not safe for concurrent use; a
// single goroutine (or the caller's lock) owns it.
type Writer struct {
	opts Options

	segs     []Segment // closed segments, oldest first
	f        *os.File  // active segment; nil until the next Append opens one
	out      io.Writer // f, or f behind Options.WrapWriter
	active   Segment
	lastSync time.Time
	next     uint64 // last assigned record sequence

	stats Stats
}

// Open opens (or creates) the log at opts.Dir for appending. Existing
// segments are preserved: the writer scans backwards for the last
// intact record and continues the sequence after it, always starting a
// fresh segment — it never appends to a file a crash may have torn.
func Open(opts Options) (*Writer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("%s: Options.Dir is required", opts.Name)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: creating %s: %w", opts.Name, opts.Dir, err)
	}
	segs, err := List(opts.Dir, opts.Name)
	if err != nil {
		return nil, fmt.Errorf("%s: listing %s: %w", opts.Name, opts.Dir, err)
	}
	w := &Writer{opts: opts}
	resume := -1 // index of the newest segment holding an intact record
	for i := len(segs) - 1; i >= 0; i-- {
		last, ok, err := lastGoodSeq(segs[i].Path, opts.Kind)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opts.Name, err)
		}
		if ok {
			w.next = last
			resume = i
			break
		}
	}
	// Segments newer than the resume point hold no intact record: a
	// crash tore their very first append (or created them and died
	// before any write). They must go, or the next segment's name —
	// SegName(next+1), exactly the torn segment's name — would collide
	// on O_EXCL and fail every future append. A scan before this Open
	// has counted their bytes as a torn tail, and removal makes the
	// torn sequence get reused exactly as after a mid-segment tear.
	for _, s := range segs[resume+1:] {
		if err := os.Remove(s.Path); err != nil {
			return nil, fmt.Errorf("%s: removing recordless segment %s: %w", opts.Name, s.Path, err)
		}
		telemetry.LogFirst(opts.Name+".recordless", "%s: dropped recordless torn segment %s (%d bytes)", opts.Name, s.Path, s.Bytes)
	}
	w.segs = segs[:resume+1]
	w.stats.Segments = len(w.segs)
	for _, s := range w.segs {
		w.stats.Bytes += s.Bytes
	}
	return w, nil
}

// lastGoodSeq scans one segment for its last CRC-intact record.
func lastGoodSeq(path string, kind byte) (uint64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var last uint64
	found := false
	for {
		seq, _, _, err := ReadRecord(br, kind, nil)
		if err != nil {
			return last, found, nil
		}
		last, found = seq, true
	}
}

// LastSeq returns the last record sequence assigned: the highest acked,
// unless the latest append failed (its sequences are skipped). The
// caller frames its next records as LastSeq()+1, LastSeq()+2, ….
func (w *Writer) LastSeq() uint64 { return w.next }

// Stats snapshots the writer's accounting.
func (w *Writer) Stats() Stats { return w.stats }

// Append writes n records the caller has already framed, sequences
// LastSeq()+1 through LastSeq()+n, in one write, and returns the last
// acked sequence. The bytes reach the OS before Append returns; fsync
// follows the policy.
//
// On a write error the active segment is abandoned and the next Append
// opens a fresh one. Part of the batch may already be on disk intact,
// so its n sequences are never reused: a reused sequence would shadow
// the next acked record as a duplicate at recovery, while a skipped one
// is counted as quarantined.
func (w *Writer) Append(framed []byte, n int) (uint64, error) {
	if err := w.rotateIfDue(int64(len(framed))); err != nil {
		return w.next, err
	}
	if _, err := w.out.Write(framed); err != nil {
		acked := w.next
		w.next += uint64(n)
		w.abandonActive()
		return acked, fmt.Errorf("%s: appending: %w", w.opts.Name, err)
	}
	w.next += uint64(n)
	w.active.Bytes += int64(len(framed))
	w.stats.Bytes += int64(len(framed))
	w.stats.Appended += uint64(n)
	add(w.opts.Metrics.Appended, uint64(n))
	if w.opts.SyncEvery || w.opts.SyncInterval > 0 && time.Since(w.lastSync) >= w.opts.SyncInterval {
		return w.next, w.Sync()
	}
	return w.next, nil
}

// rotateIfDue opens the first segment lazily and rotates when the
// active segment would exceed the size bound. need is the byte size of
// the write about to happen.
func (w *Writer) rotateIfDue(need int64) error {
	if w.f != nil {
		if w.active.Bytes == 0 || w.active.Bytes+need <= w.opts.SegmentBytes {
			return nil
		}
		if err := w.Rotate(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.opts.Dir, SegName(w.opts.Name, w.next+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("%s: creating segment %s: %w", w.opts.Name, path, err)
	}
	w.f, w.out = f, f
	if w.opts.WrapWriter != nil {
		w.out = w.opts.WrapWriter(f)
	}
	w.active = Segment{Path: path, FirstSeq: w.next + 1}
	w.stats.Segments++
	return nil
}

// Rotate closes the active segment, if any, so the next Append starts
// a new one, and then enforces retention.
func (w *Writer) Rotate() error {
	if w.f == nil {
		return nil
	}
	if err := w.closeActive(); err != nil {
		return err
	}
	w.stats.Rotated++
	add(w.opts.Metrics.Rotated, 1)
	w.retain()
	return nil
}

// closeActive fsyncs and closes the active segment, moving it to the
// closed list. Closed segments are always fsynced — whatever the
// append policy, a rotated-away segment is finished evidence. On a
// sync error the segment is abandoned instead, so the handle is
// released either way and the next append starts a fresh segment.
func (w *Writer) closeActive() error {
	if w.f == nil {
		return nil
	}
	if err := w.Sync(); err != nil {
		w.abandonActive()
		return err
	}
	err := w.f.Close()
	w.segs = append(w.segs, w.active)
	w.f, w.out = nil, nil
	if err != nil {
		return fmt.Errorf("%s: closing %s: %w", w.opts.Name, w.active.Path, err)
	}
	return nil
}

// abandonActive drops the active segment after an I/O error. Its acked
// records stay on disk and it joins the closed list for retention; a
// segment holding no acked record is removed instead — nothing in it
// was promised. A file left by a failed removal is harmless: its
// sequences are never reused, so no later segment takes its name.
func (w *Writer) abandonActive() {
	w.f.Close()
	w.f, w.out = nil, nil
	if w.active.Bytes > 0 {
		w.segs = append(w.segs, w.active)
	} else if os.Remove(w.active.Path) == nil {
		w.stats.Segments--
	}
	add(w.opts.Metrics.Abandoned, 1)
	telemetry.LogFirst(w.opts.Name+".abandon", "%s: abandoned active segment %s after write error", w.opts.Name, w.active.Path)
}

// retain enforces the byte budget by unlinking closed segments
// oldest-first. The active segment is never touched: retention can
// only drop finished history, not in-flight capture.
func (w *Writer) retain() {
	if w.opts.RetainBytes <= 0 {
		return
	}
	for len(w.segs) > 0 && w.stats.Bytes > w.opts.RetainBytes {
		old := w.segs[0]
		if err := os.Remove(old.Path); err != nil {
			telemetry.LogFirst(w.opts.Name+".retain", "%s: dropping %s: %v", w.opts.Name, old.Path, err)
			return
		}
		w.segs = w.segs[1:]
		w.stats.Bytes -= old.Bytes
		w.stats.Segments--
		w.stats.Retired++
		add(w.opts.Metrics.Retired, 1)
	}
}

// Sync fsyncs the active segment — a durability barrier callers can
// place wherever they need one.
func (w *Writer) Sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%s: fsync %s: %w", w.opts.Name, w.active.Path, err)
	}
	w.stats.Synced++
	add(w.opts.Metrics.Synced, 1)
	w.lastSync = time.Now()
	return nil
}

// Close fsyncs and closes the active segment.
func (w *Writer) Close() error { return w.closeActive() }
