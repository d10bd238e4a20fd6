// Recovery scan: reads a log directory the way the transport receiver
// reads a damaged wire — skip-and-count, never abort. Torn writes,
// truncated tails, and corrupt records are quarantined (counted, with
// their bytes skipped) and every record whose CRC passes is returned,
// so recovery upholds the log's one invariant: recovered + quarantined
// == written.

package seglog

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"

	"gretel/internal/telemetry"
)

// ReadStats is the recovery scan's accounting.
type ReadStats struct {
	// Segments is the number of segment files in the scan.
	Segments int
	// Records counts CRC-intact records returned.
	Records uint64
	// Quarantined counts records lost to corruption: sequence gaps
	// between intact records, rejected bodies, and a torn tail.
	// Trailing garbage counts as (at least) one record — a torn write
	// can only lose the record it tore.
	Quarantined uint64
	// Duplicates counts intact records skipped because their sequence
	// was already seen.
	Duplicates uint64
	// BytesSkipped is the total bytes discarded while resynchronizing.
	BytesSkipped uint64
	// TornTail reports whether the log ended in unparseable bytes —
	// the signature of a crash mid-append.
	TornTail bool
	// FirstSeq/LastSeq bound the intact records returned (0,0 when the
	// log is empty). FirstSeq > 1 means retention has dropped history.
	FirstSeq, LastSeq uint64
}

// Scanner iterates every intact record of a log directory in sequence
// order. It reads a static snapshot of the segment list taken at open;
// a concurrently appending writer is safe but its new records are not
// seen.
type Scanner struct {
	opts Options
	segs []Segment
	cur  int // index into segs of the open segment (len(segs) = done)

	f  *os.File
	br *bufio.Reader

	buf         []byte
	lastSeq     uint64 // newest sequence consumed, rejected ones included
	prevLast    uint64 // stats.LastSeq before the latest record, for Reject
	tailSkipped int64  // bytes skipped since the last intact record
	stats       ReadStats
	span        telemetry.Span
	done        bool
}

// OpenScanner opens a recovery scan over opts.Dir (only Dir, Name,
// Kind and Metrics are used). A directory that does not exist yet is
// an empty log, not an error — first boot recovers nothing.
func OpenScanner(opts Options) (*Scanner, error) {
	segs, err := List(opts.Dir, opts.Name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	s := &Scanner{opts: opts, segs: segs}
	if opts.Metrics.Scan != nil {
		s.span = opts.Metrics.Scan.Start()
	}
	s.stats.Segments = len(segs)
	return s, nil
}

// Progress reports the 1-based index of the segment being scanned and
// the total segment count.
func (s *Scanner) Progress() (segment, total int) {
	return min(s.cur+1, len(s.segs)), len(s.segs)
}

// Stats snapshots the scan accounting. Final (including torn-tail
// attribution) once Next has returned io.EOF.
func (s *Scanner) Stats() ReadStats { return s.stats }

// Next returns the next intact record in sequence order, or io.EOF at
// the end of the log. Corruption never surfaces as an error: damaged
// bytes are skipped and quarantined, and the scan continues. The body
// is valid until the next call.
func (s *Scanner) Next() (seq uint64, body []byte, err error) {
	for {
		if s.br == nil {
			if s.cur >= len(s.segs) {
				s.finish()
				return 0, nil, io.EOF
			}
			f, err := os.Open(s.segs[s.cur].Path)
			if err != nil {
				// An unreadable segment is quarantined wholesale: the gap
				// accounting on the next segment's records counts what it
				// held; here we only note the skipped bytes.
				s.skip(s.segs[s.cur].Bytes)
				s.cur++
				continue
			}
			s.f = f
			s.br = bufio.NewReaderSize(f, 256<<10)
		}
		seq, body, skipped, rerr := ReadRecord(s.br, s.opts.Kind, s.buf)
		s.skip(skipped)
		if rerr != nil {
			// End of this segment; move on. Tail garbage inside a
			// non-final segment is resolved by sequence-gap accounting
			// against the next segment's records.
			s.f.Close()
			s.f, s.br = nil, nil
			s.cur++
			continue
		}
		if cap(body) > cap(s.buf) {
			s.buf = body[:0]
		}
		if s.lastSeq != 0 && seq <= s.lastSeq {
			s.stats.Duplicates++
			continue
		}
		if s.lastSeq != 0 && seq > s.lastSeq+1 {
			gap := seq - s.lastSeq - 1
			s.stats.Quarantined += gap
			add(s.opts.Metrics.Quarantined, gap)
		}
		if s.stats.Records == 0 {
			s.stats.FirstSeq = seq
		}
		s.prevLast = s.stats.LastSeq
		s.lastSeq, s.stats.LastSeq = seq, seq
		s.stats.Records++
		s.tailSkipped = 0
		return seq, body, nil
	}
}

// Reject reclassifies the record Next just returned as quarantined:
// CRC-intact but undecodable by its consumer — a writer-side bug, not
// disk damage. Its sequence stays consumed for gap accounting but no
// longer bounds the returned records.
func (s *Scanner) Reject() {
	s.stats.Records--
	s.stats.Quarantined++
	add(s.opts.Metrics.Quarantined, 1)
	if s.stats.Records == 0 {
		s.stats.FirstSeq = 0
	}
	s.stats.LastSeq = s.prevLast
}

func (s *Scanner) skip(n int64) {
	if n > 0 {
		s.stats.BytesSkipped += uint64(n)
		s.tailSkipped += n
		add(s.opts.Metrics.BytesSkipped, uint64(n))
	}
}

// finish closes out the scan: bytes skipped after the last intact
// record are a torn tail — at least one record died there.
func (s *Scanner) finish() {
	if s.done {
		return
	}
	s.done = true
	s.span.End()
	if s.tailSkipped > 0 {
		s.stats.TornTail = true
		s.stats.Quarantined++
		add(s.opts.Metrics.Quarantined, 1)
	}
}

// Close releases the scan. Safe after io.EOF.
func (s *Scanner) Close() error {
	if s.f != nil {
		s.f.Close()
		s.f, s.br = nil, nil
	}
	s.finish()
	return nil
}
