package core

import (
	"reflect"
	"testing"
	"time"

	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

// driveFaulty pushes a deterministic multi-fault stream through an
// analyzer and closes it: 30 rounds of a failing op-a run interleaved
// with a failing op-c request, with background filler so every snapshot
// fills mid-stream.
func driveFaulty(cfg Config) *Analyzer {
	return driveFaultyExplain(cfg, nil)
}

// driveFaultyExplain is driveFaulty with an evidence-trace store
// installed when non-nil (explain mode).
func driveFaultyExplain(cfg Config, store *tracestore.Store) *Analyzer {
	a := newAnalyzer(cfg)
	a.SetExplain(store)
	faultyScript(&stream{a: a})
	a.Close()
	return a
}

// faultyScript plays the shared multi-fault stream into a stream
// helper — also recorded as a plain event slice by ingest_test.go.
func faultyScript(s *stream) {
	for i := 0; i < 30; i++ {
		id := uint64(i * 10)
		s.rest(get("/list"), 200, id+1, "op-a")
		s.rest(post("/a1"), 200, id+1, "op-a")
		s.rpcCall(rpc("build"), false, id+1, "op-a")
		s.rest(post("/a2"), 500, id+1, "op-a") // fault
		s.filler(3)
		s.rest(post("/c1"), 409, id+2, "op-c") // second fault
		s.filler(10)
	}
	s.filler(40)
}

// TestParallelMatchesInlineReports is the determinism contract of the
// concurrent pipeline: the same faulty stream through inline detection
// (DetectWorkers: 0) and a worker pool must produce identical reports —
// candidates, β, θ — in identical (fault-arrival) order. Run under
// -race this also exercises the receiver/worker/collector sharing.
func TestParallelMatchesInlineReports(t *testing.T) {
	inline := driveFaulty(Config{Alpha: 32})
	// A tiny backlog forces the receiver through the blocking
	// backpressure path as well.
	parallel := driveFaulty(Config{Alpha: 32, DetectWorkers: 4, DetectBacklog: 2})

	ri, rp := inline.Reports(), parallel.Reports()
	if len(ri) == 0 {
		t.Fatal("no reports produced")
	}
	if len(ri) != len(rp) {
		t.Fatalf("report counts differ: inline=%d parallel=%d", len(ri), len(rp))
	}
	for i := range ri {
		if !reflect.DeepEqual(*ri[i], *rp[i]) {
			t.Fatalf("report %d differs:\ninline:   %+v\nparallel: %+v", i, *ri[i], *rp[i])
		}
	}
	if inline.Stats != parallel.Stats {
		t.Fatalf("stats differ:\ninline:   %+v\nparallel: %+v", inline.Stats, parallel.Stats)
	}
}

// TestParallelReportCallbackOrder asserts the OnReport callback also
// observes fault-arrival order under a worker pool.
func TestParallelReportCallbackOrder(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32, DetectWorkers: 4})
	var seen []time.Time
	a.OnReport(func(r *Report) { seen = append(seen, r.Fault.Time) })
	s := &stream{a: a}
	for i := 0; i < 20; i++ {
		s.rest(post("/a2"), 500, uint64(i+1), "op-a")
		s.filler(8)
	}
	s.filler(20)
	a.Close()
	if len(seen) != len(a.Reports()) || len(seen) == 0 {
		t.Fatalf("callback fired %d times, reports %d", len(seen), len(a.Reports()))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Before(seen[i-1]) {
			t.Fatalf("reports out of fault order at %d: %v after %v", i, seen[i], seen[i-1])
		}
	}
}

// TestDetectShed wedges the collector behind a blocking RCA hook so the
// bounded pipeline fills, and asserts the receiver sheds instead of
// stalling, with every armed snapshot accounted for as either a report
// or a shed.
func TestDetectShed(t *testing.T) {
	block := make(chan struct{})
	a := newAnalyzer(Config{Alpha: 16, DetectWorkers: 1, DetectBacklog: 1, DetectShed: true})
	a.SetRCA(func(r *Report) []RootCause {
		<-block
		return nil
	})
	s := &stream{a: a}
	for i := 0; i < 500 && a.Stats.SnapshotsShed == 0; i++ {
		s.rest(post("/a2"), 500, uint64(i+1), "op-a")
		s.filler(10)
	}
	if a.Stats.SnapshotsShed == 0 {
		t.Fatal("pipeline never shed despite a blocked collector")
	}
	close(block)
	a.Close()
	if a.Stats.Reports == 0 {
		t.Fatal("everything shed; expected the drained jobs to report")
	}
	if got := a.Stats.Reports + a.Stats.SnapshotsShed; got != a.Stats.Snapshots {
		t.Fatalf("reports(%d) + shed(%d) = %d, want snapshots(%d)",
			a.Stats.Reports, a.Stats.SnapshotsShed, got, a.Stats.Snapshots)
	}
}

// TestPairEvictionSizeCap floods the analyzer with requests whose
// responses never arrive and asserts the pairing maps stay bounded.
func TestPairEvictionSizeCap(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16, MaxPairs: 64, PairTTL: -1})
	for i := 1; i <= 300; i++ {
		a.Ingest(trace.Event{Time: at(i * 10), Type: trace.RESTRequest, API: get("/x"), ConnID: uint64(i)})
	}
	if len(a.pending) > 64 {
		t.Fatalf("pending grew to %d despite MaxPairs=64", len(a.pending))
	}
	for i := 1; i <= 300; i++ {
		a.Ingest(trace.Event{Time: at(3000 + i*10), Type: trace.RPCCall, API: rpc("build"), MsgID: "m" + itoa(i)})
	}
	if len(a.calls) > 64 {
		t.Fatalf("calls grew to %d despite MaxPairs=64", len(a.calls))
	}
	if a.Stats.PairsEvicted == 0 {
		t.Fatal("no evictions counted")
	}
}

// TestPairEvictionTTL ages out request-side state past PairTTL while
// keeping fresh requests pairable.
func TestPairEvictionTTL(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16, PairTTL: time.Second, MaxPairs: -1})
	const n = 5000 // > pairSweepEvery so the amortized sweep triggers
	for i := 1; i <= n; i++ {
		a.Ingest(trace.Event{Time: at(i * 10), Type: trace.RESTRequest, API: get("/x"), ConnID: uint64(i)})
	}
	if a.Stats.PairsEvicted == 0 {
		t.Fatal("TTL sweep never evicted")
	}
	if len(a.pending) >= n {
		t.Fatalf("pending holds all %d requests", len(a.pending))
	}
	// The most recent request still pairs with its response.
	a.Ingest(trace.Event{Time: at(n*10 + 5), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: uint64(n)})
	if a.Stats.RESTPairs != 1 {
		t.Fatalf("recent request did not pair: RESTPairs=%d", a.Stats.RESTPairs)
	}
	// A response for an evicted request is simply unmatched.
	a.Ingest(trace.Event{Time: at(n*10 + 6), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: 1})
	if a.Stats.RESTPairs != 1 {
		t.Fatalf("evicted request paired anyway: RESTPairs=%d", a.Stats.RESTPairs)
	}
}
