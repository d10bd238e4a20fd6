package replay

import (
	"testing"

	"gretel/internal/core"
	"gretel/internal/scenario"
	"gretel/internal/wal"
)

// TestDriveWALWithDetectWorkers replays a fault-dense WAL through an
// analyzer with a detect pool — gretel's boot recovery configuration.
// The report collector appends to the analyzer's report list while the
// replay is still running, so DriveWAL must not read it; under -race
// any such read is a data race.
func TestDriveWALWithDetectWorkers(t *testing.T) {
	events := Synthesize(StreamConfig{Events: 4000, Concurrency: 50, FaultEvery: 50, Seed: 13})
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

	a := core.New(scenario.CoreLibrary(), core.Config{DetectWorkers: 2})
	res, err := DriveWAL(a, dir, WALDrive{})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if res.Events != len(events) || res.Recovery.Quarantined != 0 {
		t.Fatalf("replayed %d events (quarantined %d), want %d clean", res.Events, res.Recovery.Quarantined, len(events))
	}
	if len(a.Reports()) == 0 {
		t.Fatal("fault-dense replay produced no reports")
	}
}
