// File-side chaos: a seeded, deterministic io.Writer wrapper that does
// to a WAL segment what a dying disk and a kill -9 do — short writes,
// a torn record at the kill point, bit flips. The WAL crash soak wraps
// each segment file with it (wal.Options.WrapWriter) and asserts the
// recovery invariant recovered + quarantined == written against the
// faults it injected.
package chaos

import (
	"errors"
	"io"
	"math/rand"
)

// ErrKilled is returned by a Writer once its kill point has fired: the
// write in flight landed only a prefix and every later write vanishes,
// which is exactly what a process killed mid-append observes (nothing).
var ErrKilled = errors.New("chaos: writer killed at kill point")

// WriterConfig sets the file-side fault schedule. The zero value (plus
// Seed) injects nothing.
type WriterConfig struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// KillAfterBytes arms a kill point: the write that crosses this
	// cumulative byte offset is torn — a prefix reaches the underlying
	// writer, the rest is discarded, and the write (and every write
	// after it) fails with ErrKilled. <= 0 disables.
	KillAfterBytes int64
	// ShortWrite is the per-write probability that only a prefix lands
	// and the write reports io.ErrShortWrite — a disk-full or
	// interrupted syscall the caller must treat as append failure.
	ShortWrite float64
	// Corrupt is the per-write probability that one random byte is
	// flipped before landing (silent media corruption; only recovery's
	// CRC check can catch it).
	Corrupt float64
}

// WriterStats counts the faults a Writer actually injected.
type WriterStats struct {
	// Writes counts Write calls; BytesIn the bytes offered;
	// BytesOut the bytes that truly reached the underlying writer.
	Writes, BytesIn, BytesOut int64
	// Shorts, Corrupts, Kills count injected faults (Kills is 0 or 1:
	// a killed writer stays dead).
	Shorts, Corrupts, Kills int64
}

// Writer injects faults on Write. Single-writer like the files it
// stands in for; not safe for concurrent use.
type Writer struct {
	w     io.Writer
	cfg   WriterConfig
	rng   *rand.Rand
	stats WriterStats
	dead  bool
}

// WrapWriter adorns w with fault injection driven by cfg.
func WrapWriter(w io.Writer, cfg WriterConfig) *Writer {
	return &Writer{w: w, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counts.
func (w *Writer) Stats() WriterStats { return w.stats }

// Killed reports whether the kill point has fired.
func (w *Writer) Killed() bool { return w.dead }

// Write applies the fault schedule to one write.
func (w *Writer) Write(p []byte) (int, error) {
	w.stats.Writes++
	w.stats.BytesIn += int64(len(p))
	if w.dead {
		return 0, ErrKilled
	}
	if w.cfg.KillAfterBytes > 0 && w.stats.BytesOut+int64(len(p)) > w.cfg.KillAfterBytes {
		// The kill point lands inside this write: tear it. The prefix
		// that "made it to disk" is whatever fits below the kill byte.
		keep := int(w.cfg.KillAfterBytes - w.stats.BytesOut)
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			n, _ := w.w.Write(p[:keep])
			w.stats.BytesOut += int64(n)
		}
		w.dead = true
		w.stats.Kills++
		return 0, ErrKilled
	}
	roll := func(prob float64) bool { return prob > 0 && w.rng.Float64() < prob }
	if len(p) > 1 && roll(w.cfg.ShortWrite) {
		w.stats.Shorts++
		keep := 1 + w.rng.Intn(len(p)-1)
		n, err := w.w.Write(p[:keep])
		w.stats.BytesOut += int64(n)
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	if len(p) > 0 && roll(w.cfg.Corrupt) {
		w.stats.Corrupts++
		// Copy before mangling: the caller's buffer is not ours to edit.
		q := make([]byte, len(p))
		copy(q, p)
		q[w.rng.Intn(len(q))] ^= 0xff
		p = q
	}
	n, err := w.w.Write(p)
	w.stats.BytesOut += int64(n)
	return n, err
}
