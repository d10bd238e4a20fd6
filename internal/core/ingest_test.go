package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

// faultyEvents records the shared multi-fault script as a plain event
// slice, so the same stream can be replayed through Ingest and
// IngestBatch.
func faultyEvents() []trace.Event {
	var evs []trace.Event
	faultyScript(&stream{emit: func(ev trace.Event) { evs = append(evs, ev) }})
	return evs
}

// serializeReports renders reports to JSON — the byte-identical
// contract covers the serialized form, not just DeepEqual.
func serializeReports(t *testing.T, reps []*Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range reps {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// serializeTraces renders a trace store's contents to NDJSON.
func serializeTraces(t *testing.T, store *tracestore.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracestore.WriteNDJSON(&buf, store.All()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestBatchMatchesIngest pins the contract WAL replay relies on:
// the same faulty stream fed event by event through Ingest and in
// chunks through IngestBatch — at batch sizes that split exchanges
// mid-way (1, 7) and the replay default (256), with inline detection
// and a detect worker pool — must produce byte-identical serialized
// reports, byte-identical explain traces, and identical Stats.
func TestIngestBatchMatchesIngest(t *testing.T) {
	evs := faultyEvents()
	for _, workers := range []int{0, 2} {
		cfg := Config{Alpha: 32, DetectWorkers: workers, DetectBacklog: 2}

		baseStore := tracestore.New(0)
		base := newAnalyzer(cfg)
		base.SetExplain(baseStore)
		for _, ev := range evs {
			base.Ingest(ev)
		}
		base.Close()
		if len(base.Reports()) == 0 {
			t.Fatal("no reports produced")
		}
		baseReps := serializeReports(t, base.Reports())
		baseTraces := serializeTraces(t, baseStore)
		if len(baseTraces) == 0 {
			t.Fatal("no traces serialized")
		}

		for _, size := range []int{1, 7, 256} {
			name := fmt.Sprintf("workers=%d/batch=%d", workers, size)
			store := tracestore.New(0)
			a := newAnalyzer(cfg)
			a.SetExplain(store)
			for lo := 0; lo < len(evs); lo += size {
				a.IngestBatch(evs[lo:min(lo+size, len(evs))])
			}
			a.Close()
			if got := serializeReports(t, a.Reports()); !bytes.Equal(got, baseReps) {
				t.Fatalf("%s: serialized reports differ from per-event Ingest", name)
			}
			for i, r := range a.Reports() {
				if !reflect.DeepEqual(*r, *base.Reports()[i]) {
					t.Fatalf("%s: report %d differs:\nIngest:      %+v\nIngestBatch: %+v", name, i, *base.Reports()[i], *r)
				}
			}
			if !bytes.Equal(serializeTraces(t, store), baseTraces) {
				t.Fatalf("%s: explain traces differ from per-event Ingest", name)
			}
			if a.Stats != base.Stats {
				t.Fatalf("%s: stats differ:\nIngest:      %+v\nIngestBatch: %+v", name, base.Stats, a.Stats)
			}
		}
	}
}

// TestUsableAfterClose: Close stops the detect pool, but the analyzer
// keeps working — later events still pair, feed the latency summaries,
// and count in Stats.
func TestUsableAfterClose(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16, DetectWorkers: 2})
	s := &stream{a: a}
	s.rest(get("/x"), 200, 1, "op")
	a.Close()
	s.rest(get("/y"), 200, 2, "op")
	a.Flush()
	if a.Stats.RESTPairs != 2 {
		t.Fatalf("post-Close ingest broken: RESTPairs=%d", a.Stats.RESTPairs)
	}
	if sums := a.LatencySummaries(); len(sums) != 2 {
		t.Fatalf("summaries after Close = %+v, want /x and /y", sums)
	}
}
