package main

import (
	"fmt"
	"io"
	"time"

	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// walBatch is replay.DriveWAL's batch size for an analyzer without
// ingest shards (cmd/gretel's default).
const walBatch = 256

// recording is the wal-recovery workload's log: the reference tap's
// event stream, appended at setup in DriveWAL-sized batches.
type recording struct {
	dir     string
	log     *wal.Log
	batch   []trace.Event
	written uint64
}

func newRecording(dir string) (*recording, error) {
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval})
	if err != nil {
		return nil, err
	}
	return &recording{dir: dir, log: log, batch: make([]trace.Event, 0, walBatch)}, nil
}

// add is the reference tap's event hook.
func (r *recording) add(ev trace.Event) error {
	r.batch = append(r.batch, ev)
	if len(r.batch) < walBatch {
		return nil
	}
	return r.flush()
}

func (r *recording) flush() error {
	if len(r.batch) == 0 {
		return nil
	}
	_, err := r.log.AppendBatch(r.batch)
	r.batch = r.batch[:0]
	return err
}

// finish writes the last batch and closes the log.
func (r *recording) finish() error {
	err := r.flush()
	r.written = r.log.Stats().Appended
	if cerr := r.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// recoveryPass replays the recorded WAL into a fresh analyzer with no
// capture attached, as gretel's boot recovery does. The saturation pass
// is replay.DriveWAL itself; the traced run swaps in an equivalent loop
// that times wal.Reader.Next and IngestBatch. The paced pass ingests
// each record when its packet was due on the 50 Kpps schedule.
func recoveryPass(in *inputs, rec *recording, tl *timeline, paced bool, tr *tracer) (*passResult, error) {
	tl.reset()
	res := &passResult{tapped: int(rec.written)}
	a := newAnalyzer(in, rca.NewStore(), tr)
	t0 := nanotime()
	a.OnReport(tl.onReport(t0))
	stamp := func(upTo uint64) {
		now := nanotime() - t0
		for uint64(len(tl.ingestAt)) < upTo {
			tl.ingestAt = append(tl.ingestAt, now)
		}
	}
	var stats wal.ReadStats
	cpu0 := cpuTime()
	if !paced && tr == nil {
		wr, err := replay.DriveWAL(a, rec.dir, replay.WALDrive{
			OnBatch: func(_, _ int, lastSeq uint64) { stamp(lastSeq) },
		})
		if err != nil {
			return nil, err
		}
		stats = wr.Recovery
	} else {
		r, err := wal.OpenReader(rec.dir)
		if err != nil {
			return nil, err
		}
		batch := make([]trace.Event, 0, walBatch)
		ingest := func() {
			t := nanotime()
			a.IngestBatch(batch)
			if tr != nil {
				tr.ingestNS += nanotime() - t
			}
			stamp(uint64(len(tl.ingestAt) + len(batch)))
			batch = batch[:0]
		}
		for {
			t := nanotime()
			_, ev, err := r.Next()
			if tr != nil && !paced {
				tr.walReadNS += nanotime() - t
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, err
			}
			if !paced {
				if batch = append(batch, ev); len(batch) == walBatch {
					ingest()
				}
				continue
			}
			due := int64(in.evPkt[len(tl.ingestAt)]) * interval
			if now := nanotime() - t0; now < due {
				time.Sleep(time.Duration(due - now))
			}
			t = nanotime()
			a.Ingest(ev)
			done := nanotime()
			if tr != nil {
				tr.ingestNS += done - t
			}
			tl.ingestAt = append(tl.ingestAt, done-t0)
		}
		if len(batch) > 0 {
			ingest()
		}
		r.Close()
		stats = r.Stats()
	}
	a.Close()
	res.wall = time.Duration(nanotime() - t0)
	res.cpu = cpuTime() - cpu0
	res.ingested = int(stats.Records)
	res.reports = a.Reports()
	if stats.Records != rec.written || stats.Quarantined != 0 || len(tl.ingestAt) != res.ingested {
		return nil, fmt.Errorf("wal replay recovered %d of %d records written (%d quarantined, %d ingested)",
			stats.Records, rec.written, stats.Quarantined, len(tl.ingestAt))
	}
	if tr != nil {
		tr.events += res.ingested
		tr.snapshots += int(a.Stats.Snapshots)
		if !paced {
			tr.walReadEvents += res.ingested
		}
	}
	return res, nil
}
