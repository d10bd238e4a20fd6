// Recovery reader: the shared recovery scan (internal/seglog) plus the
// JSON body decode. Torn writes, truncated tails, and corrupt records
// are quarantined by the scan; a CRC-intact body that does not decode
// is quarantined here.

package wal

import (
	"encoding/json"

	"gretel/internal/seglog"
	"gretel/internal/trace"
)

// ReadStats is the recovery scan's accounting.
type ReadStats = seglog.ReadStats

// Reader iterates every intact event in a WAL directory in sequence
// order. It reads a static snapshot of the segment list taken at open;
// a concurrently appending writer is safe but its new records are not
// seen. Progress, Stats and Close come from the shared scanner.
type Reader struct {
	*seglog.Scanner
}

// OpenReader opens a recovery scan over the log directory. A directory
// that does not exist yet is an empty log, not an error — first boot
// recovers nothing.
func OpenReader(dir string) (*Reader, error) {
	s, err := seglog.OpenScanner(segOptions(dir))
	if err != nil {
		return nil, err
	}
	return &Reader{s}, nil
}

// Next returns the next intact event in sequence order, or io.EOF at
// the end of the log. Corruption never surfaces as an error: damaged
// bytes are skipped and quarantined, and the scan continues.
func (r *Reader) Next() (seq uint64, ev trace.Event, err error) {
	for {
		seq, body, err := r.Scanner.Next()
		if err != nil {
			return 0, trace.Event{}, err
		}
		if err := json.Unmarshal(body, &ev); err != nil {
			// CRC-intact but undecodable: a writer-side bug, not wire
			// damage.
			r.Reject()
			ev = trace.Event{}
			continue
		}
		mRecovered.Inc()
		return seq, ev, nil
	}
}
