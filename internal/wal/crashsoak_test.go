// Crash soak: the WAL's reason to exist, proven the hard way. A writer
// is killed mid-append at random byte offsets (torn records) and at
// clean record boundaries, over and over, recovering between kills and
// re-appending what the tear lost. After every crash the recovery scan
// must uphold the loss bound — recovered + quarantined == written,
// acked records never lost, nothing silently missing — and when the
// full stream has finally been captured, replaying the log through the
// analyzer must produce reports byte-identical to an uninterrupted run.
// A second phase injects transient write errors instead of kills: the
// writer lives on and keeps appending after each failed batch.
//
// External test package: the soak drives the real replay/core stack,
// which imports wal.

package wal_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"

	"gretel/internal/chaos"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/replay"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// scan runs a full recovery pass and returns the intact events + stats.
func scan(t *testing.T, dir string) ([]trace.Event, wal.ReadStats) {
	t.Helper()
	r, err := wal.OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	var out []trace.Event
	for {
		_, ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ev)
	}
	r.Close()
	return out, r.Stats()
}

func TestWALCrashSoak(t *testing.T) {
	total := 3000
	if testing.Short() {
		total = 800
	}
	events := replay.Synthesize(replay.StreamConfig{
		Concurrency: 100, Events: total, FaultEvery: 97, Seed: 42,
	})

	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	appended := 0 // records proven durable at cycle start
	var lastSkipped uint64
	var kills, tears int

	for cycle := 0; appended < total; cycle++ {
		if cycle > 400 {
			t.Fatalf("soak not converging: %d/%d after %d cycles", appended, total, cycle)
		}
		// Half the crashes land mid-write (torn record), half at a clean
		// record boundary.
		torn := rng.Intn(2) == 0
		killBytes := int64(0)
		if torn {
			killBytes = int64(200 + rng.Intn(40000))
		}
		cleanStop := 1 + rng.Intn(120)

		opts := wal.Options{
			Dir: dir, SegmentBytes: 256 << 10, Fsync: wal.FsyncNone, RetainBytes: -1,
		}
		if torn {
			opts.WrapWriter = func(w io.Writer) io.Writer {
				return chaos.WrapWriter(w, chaos.WriterConfig{
					Seed: rng.Int63(), KillAfterBytes: killBytes,
				})
			}
		}
		l, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("cycle %d: Open: %v", cycle, err)
		}
		if got := int(l.LastSeq()); got != appended {
			t.Fatalf("cycle %d: writer resumed at seq %d, recovery said %d", cycle, got, appended)
		}

		acked := 0
		killedMidWrite := false
		for i := appended; i < total; i++ {
			if _, err := l.Append(events[i]); err != nil {
				killedMidWrite = true
				kills++
				break
			}
			acked++
			if !torn && acked >= cleanStop {
				kills++
				break
			}
		}
		// Crash: the log is abandoned, never Closed — whatever the kill
		// let through is all recovery gets.

		recovered, stats := scan(t, dir)
		tornPartial := stats.BytesSkipped > lastSkipped // this crash left ink behind
		if tornPartial {
			tears++
		}
		lastSkipped = stats.BytesSkipped

		if int(stats.Records) != appended+acked {
			t.Fatalf("cycle %d: acked records lost: recovered %d, want %d (prev %d + acked %d)",
				cycle, stats.Records, appended+acked, appended, acked)
		}
		written := uint64(appended + acked)
		if tornPartial {
			written++ // the torn append reached the log partially
		}
		if stats.Records+stats.Quarantined != written {
			t.Fatalf("cycle %d: recovered+quarantined = %d+%d, want written %d (torn=%v killed=%v)",
				cycle, stats.Records, stats.Quarantined, written, tornPartial, killedMidWrite)
		}
		if stats.TornTail != tornPartial {
			t.Fatalf("cycle %d: TornTail=%v but partial-tear=%v (%+v)", cycle, stats.TornTail, tornPartial, stats)
		}
		for i, ev := range recovered {
			if ev.ConnID != events[i].ConnID || ev.Seq != events[i].Seq {
				t.Fatalf("cycle %d: recovered record %d is the wrong event", cycle, i)
			}
		}
		appended = int(stats.Records)
	}
	if kills == 0 || tears == 0 {
		t.Fatalf("soak injected no faults (kills %d, tears %d) — not a soak", kills, tears)
	}

	// The full stream survived the gauntlet: the log must now replay
	// byte-identically to a run that never crashed.
	final, stats := scan(t, dir)
	if len(final) != total || stats.FirstSeq != 1 || stats.LastSeq != uint64(total) {
		t.Fatalf("final log: %d records over %d..%d, want %d over 1..%d",
			len(final), stats.FirstSeq, stats.LastSeq, total, total)
	}

	reports := func(drive func(a *core.Analyzer)) []byte {
		a := core.New(experiments.BenchLibrary(), core.Config{})
		drive(a)
		a.Close()
		b, err := json.Marshal(a.Reports())
		if err != nil {
			t.Fatalf("marshal reports: %v", err)
		}
		return b
	}
	fromWAL := reports(func(a *core.Analyzer) {
		res, err := replay.DriveWAL(a, dir, replay.WALDrive{})
		if err != nil {
			t.Fatalf("DriveWAL: %v", err)
		}
		if res.Events != total || res.Recovery.Quarantined != 0 {
			t.Fatalf("DriveWAL fed %d events (quarantined %d), want %d clean", res.Events, res.Recovery.Quarantined, total)
		}
	})
	uninterrupted := reports(func(a *core.Analyzer) {
		for i := range events {
			a.Ingest(events[i])
		}
	})
	if !bytes.Equal(fromWAL, uninterrupted) {
		t.Fatalf("reports after crash recovery differ from uninterrupted run (%d vs %d bytes)",
			len(fromWAL), len(uninterrupted))
	}

	soakTransientErrors(t, events)
}

// soakTransientErrors is the soak's transient-error phase: the disk
// fails writes short at random and the writer appends on after each
// failed batch. For every seed, every acked record must be recovered,
// every recovered record must be the event appended at its sequence,
// every sequence from the first to the last intact record must be
// recovered or quarantined, and no sequence may repeat.
func soakTransientErrors(t *testing.T, events []trace.Event) {
	const batch = 7
	var failed, resumed int
	for seed := int64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(seed))
		l, err := wal.Open(wal.Options{
			Dir: dir, SegmentBytes: 64 << 10, Fsync: wal.FsyncNone, RetainBytes: -1,
			WrapWriter: func(w io.Writer) io.Writer {
				// A fresh seed per segment: a repeated one would replay the
				// same fault schedule in every segment.
				return chaos.WrapWriter(w, chaos.WriterConfig{Seed: rng.Int63(), ShortWrite: 0.05})
			},
		})
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		bySeq := map[uint64]int{} // record sequence -> index into events
		var acked []uint64
		afterFailure := false
		for i := 0; i < len(events); i += batch {
			evs := events[i:min(i+batch, len(events))]
			base := l.LastSeq()
			for j := range evs {
				bySeq[base+uint64(j)+1] = i + j
			}
			last, err := l.AppendBatch(evs)
			if err != nil {
				if last != base {
					t.Fatalf("seed %d: failed batch acked up to %d, want %d", seed, last, base)
				}
				failed++
				afterFailure = true
				continue
			}
			if afterFailure {
				resumed++
				afterFailure = false
			}
			for seq := base + 1; seq <= last; seq++ {
				acked = append(acked, seq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}

		r, err := wal.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		recovered := map[uint64]bool{}
		for {
			seq, ev, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: Next: %v", seed, err)
			}
			i, ok := bySeq[seq]
			if !ok || ev.ConnID != events[i].ConnID || ev.Seq != events[i].Seq {
				t.Fatalf("seed %d: record %d is not the event appended at that sequence", seed, seq)
			}
			recovered[seq] = true
		}
		r.Close()
		for _, seq := range acked {
			if !recovered[seq] {
				t.Fatalf("seed %d: acked record %d lost", seed, seq)
			}
		}
		st := r.Stats()
		want := st.LastSeq - st.FirstSeq + 1
		if st.TornTail {
			want++ // the torn tail's record lies past LastSeq
		}
		if st.Duplicates != 0 || st.Records+st.Quarantined != want {
			t.Fatalf("seed %d: sequences unaccounted for: %+v", seed, st)
		}
	}
	if failed == 0 || resumed == 0 {
		t.Fatalf("transient phase failed %d batches and resumed after %d", failed, resumed)
	}
	t.Logf("transient phase: %d failed batches, writer resumed after %d", failed, resumed)
}

// TestCaptureThroughAnalyzer wires a real wal.Log into the analyzer's
// capture hook and checks the durable log holds exactly the ingested
// stream, the cursor tracks processing, and a WAL replay of it through
// a second analyzer reproduces the reports byte-for-byte.
func TestCaptureThroughAnalyzer(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{
		Concurrency: 100, Events: 1500, FaultEvery: 101, Seed: 9,
	})
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	a := core.New(experiments.BenchLibrary(), core.Config{})
	a.SetCapture(l)
	for i := range events {
		a.Ingest(events[i])
	}
	a.Close()
	repsLive, _ := json.Marshal(a.Reports())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l.LastSeq() != uint64(len(events)) {
		t.Fatalf("captured %d records, want %d", l.LastSeq(), len(events))
	}
	if l.Cursor() != uint64(len(events)) {
		t.Fatalf("cursor %d, want %d", l.Cursor(), len(events))
	}
	if a.Stats.CaptureErrors != 0 {
		t.Fatalf("capture errors: %d", a.Stats.CaptureErrors)
	}

	got, stats := scan(t, dir)
	if len(got) != len(events) || stats.Quarantined != 0 {
		t.Fatalf("recovered %d (quarantined %d), want %d clean", len(got), stats.Quarantined, len(events))
	}

	b := core.New(experiments.BenchLibrary(), core.Config{})
	if _, err := replay.DriveWAL(b, dir, replay.WALDrive{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	repsReplayed, _ := json.Marshal(b.Reports())
	if !bytes.Equal(repsLive, repsReplayed) {
		t.Fatalf("WAL replay reports differ from live run")
	}
}

// TestCaptureBatchedOnce guards the Ingest⇄IngestBatch routing:
// IngestBatch captures its batch once and then runs Ingest per event,
// so each event must still be captured exactly once whichever public
// entry point it came through.
func TestCaptureBatchedOnce(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 50, Events: 600, Seed: 3})
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(experiments.BenchLibrary(), core.Config{})
	a.SetCapture(l)
	// Mix entry points: batches and single-event ingests.
	a.IngestBatch(events[:256])
	for _, ev := range events[256:300] {
		a.Ingest(ev)
	}
	a.IngestBatch(events[300:])
	a.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := scan(t, dir)
	if len(got) != len(events) || stats.Duplicates != 0 || stats.Quarantined != 0 {
		t.Fatalf("captured %d records (dups %d, quarantined %d), want %d exactly once",
			len(got), stats.Duplicates, stats.Quarantined, len(events))
	}
	for i := range got {
		if got[i].ConnID != events[i].ConnID {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestDriveWALBarrierSplitsBatch: boot recovery lifts report
// suppression at the durable cursor via the replay barrier. The split
// must land exactly on the cursor even when it falls mid-batch —
// everything at or below it ingested before OnBarrier fires, nothing
// after it — or reports triggered by the unprocessed suffix are
// silently swallowed while suppression is still on.
func TestDriveWALBarrierSplitsBatch(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 50, Events: 600, Seed: 5})
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Barrier 100 falls inside the first 256-event ingest batch.
	a := core.New(experiments.BenchLibrary(), core.Config{})
	atBarrier := -1
	res, err := replay.DriveWAL(a, dir, replay.WALDrive{
		Barrier:   100,
		OnBarrier: func() { atBarrier = int(a.Stats.Events) },
	})
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 600 {
		t.Fatalf("replayed %d events, want 600", res.Events)
	}
	if atBarrier != 100 {
		t.Fatalf("OnBarrier fired with %d events ingested, want exactly the 100 at or below the barrier", atBarrier)
	}

	// A barrier at or past the end of the log is never crossed: the
	// caller keeps suppression until the replay returns.
	b := core.New(experiments.BenchLibrary(), core.Config{})
	fired := false
	if _, err := replay.DriveWAL(b, dir, replay.WALDrive{
		Barrier:   600,
		OnBarrier: func() { fired = true },
	}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if fired {
		t.Fatal("OnBarrier fired although no record lies past the barrier")
	}
}
