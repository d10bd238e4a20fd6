package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gretel/internal/core"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// workload is one input set the benchmark runs (README.md says why each
// exists).
type workload struct {
	name string
	// faultEvery > 0 fails one started instance in faultEvery: with 2,
	// about one operational fault per 170 events.
	faultEvery int
	wal        bool // live passes capture every event to a WAL
	recovery   bool // passes replay a WAL written at setup; no tap, no transport
}

var workloads = []workload{
	{name: "steady-wal", wal: true},
	{name: "fault-dense", faultEvery: 2},
	{name: "wal-recovery", recovery: true},
}

// setupReps is how many times a run sets up; setup_s is their median
// and every repeat must rebuild byte-identical inputs.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fixture is one setup's product.
type fixture struct {
	in  *inputs
	rg  *rig       // live workloads
	rec *recording // wal-recovery
	tl  *timeline
	dir string
}

func (f *fixture) close() {
	if f.rg != nil {
		f.rg.close()
	}
	f.in.release()
	os.RemoveAll(f.dir)
}

func setup(w *workload, seed int64, nPkts int, dir string, traced bool) (*fixture, error) {
	os.RemoveAll(dir)
	f := &fixture{dir: dir}
	var onEvent func(trace.Event) error
	if w.recovery {
		rec, err := newRecording(filepath.Join(dir, "wal"))
		if err != nil {
			return nil, err
		}
		f.rec, onEvent = rec, rec.add
	}
	in, err := buildInputs(seed, nPkts, w.faultEvery, onEvent)
	if f.rec != nil {
		if ferr := f.rec.finish(); err == nil {
			err = ferr
		}
	}
	if err == nil && !w.recovery {
		f.rg, err = newRig(dir, w.wal)
	}
	if err != nil {
		if in != nil {
			in.release()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	f.in = in
	f.tl = newTimeline(len(in.evPkt), len(in.recs), traced)
	return f, nil
}

func (f *fixture) pass(paced bool, tr *tracer) (*passResult, error) {
	if f.rec != nil {
		return recoveryPass(f.in, f.rec, f.tl, paced, tr)
	}
	return runPass(f.in, f.rg, f.tl, paced, tr)
}

func run(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	// The two paced passes replay the recording in seconds/2; the
	// saturation passes take most of the rest.
	nPkts := lineRate * seconds / 4
	root, err := filepath.Abs(filepath.Join(".bench_build", "wirebench"))
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "wirebench: %s: check failed: %s\n", w.name, fmt.Sprintf(format, args...))
	}

	// Set up setupReps times; keep the first fixture, check that the
	// others rebuilt identical inputs, and tear them down.
	var fx *fixture
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		f, err := setup(w, seed, nPkts, filepath.Join(root, fmt.Sprintf("setup%d", rep)), traced)
		if err != nil {
			if fx != nil {
				fx.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if fx == nil {
			fx = f
			continue
		}
		if f.in.digest != fx.in.digest || (f.rec != nil && f.rec.written != fx.rec.written) {
			fail("setup %d rebuilt different inputs from seed %d", rep, seed)
		}
		f.close()
	}
	defer fx.close()
	in := fx.in

	// Untraced: two rounds, each a saturation pass (two DriveWAL replays
	// for wal-recovery, whose replay is short) and a paced pass, so slow
	// drift of a shared host hits both kinds alike. Traced: one round of
	// the saturation pass traced, again untraced, and the paced pass
	// traced; the throughput difference is the tracing overhead.
	var tr *tracer
	rounds, satReps := 2, 1
	if w.recovery {
		satReps = 2
	}
	if traced {
		tr = &tracer{}
		rounds, satReps = 1, 1
	}
	runtime.GC()
	heapBase := liveHeap()
	var heapPeaks []float64
	timedPass := func(paced bool, tr *tracer) (*passResult, error) {
		hs := startHeapSampler()
		p, err := fx.pass(paced, tr)
		heapPeaks = append(heapPeaks, float64(int64(hs.finish())-int64(heapBase))/1e6)
		return p, err
	}
	rt0 := readRuntime()
	det0 := detectBusy()
	var wire0 int64
	var wal0 walCounters
	if fx.rg != nil {
		wire0 = fx.rg.wire.Load()
		wal0 = readWAL(fx.rg)
	}
	var sats, paceds []*passResult
	var satEPS, lag50, rep50 []float64
	var lag, repLat []int64 // the last paced pass's
	var bare *passResult
	var bareEPS float64
	for r := 0; r < rounds; r++ {
		for k := 0; k < satReps; k++ {
			p, err := timedPass(false, tr)
			if err != nil {
				return nil, fmt.Errorf("saturation pass: %w", err)
			}
			sats = append(sats, p)
			satEPS = append(satEPS, rates(fx.tl.ingestAt)...)
		}
		if traced {
			if bare, err = fx.pass(false, nil); err != nil {
				return nil, fmt.Errorf("untraced saturation pass: %w", err)
			}
			bareEPS = median(rates(fx.tl.ingestAt))
		}
		p, err := timedPass(true, tr)
		if err != nil {
			return nil, fmt.Errorf("paced pass: %w", err)
		}
		paceds = append(paceds, p)
		lag, repLat = latencies(in, fx.tl)
		if len(repLat) != len(p.reports) {
			fail("%d of %d reports timed in the paced pass", len(repLat), len(p.reports))
		}
		lag50 = append(lag50, parts(lag, pct(0.50))...)
		rep50 = append(rep50, parts(repLat, pct(0.50))...)
	}
	rt1 := readRuntime()
	sat, paced := sats[0], paceds[0]

	// Correctness: the loss ledger, the WAL capture count, and one
	// report digest across passes and across runs of this seed.
	digest := reportDigest(sat.reports)
	for _, p := range append(append(sats, paceds...), bare) {
		if p == nil {
			continue
		}
		res.Attempted += p.tapped
		res.Failed += int(p.missing)
		if p.tapped != p.ingested+int(p.missing) || p.shed > p.missing || p.dups != 0 {
			fail("ledger: tapped %d != ingested %d + missing %d (shed %d, dups %d)", p.tapped, p.ingested, p.missing, p.shed, p.dups)
		}
		if p.missing != 0 {
			fail("%d events lost in transport", p.missing)
		}
		if p.tapped != len(in.evPkt) {
			fail("monitor emitted %d events, the reference tap %d", p.tapped, len(in.evPkt))
		}
		if w.wal && p.walRecs != uint64(p.ingested) {
			fail("wal captured %d of %d events", p.walRecs, p.ingested)
		}
		if d := reportDigest(p.reports); d != digest {
			fail("report digest %016x differs from the first pass's %016x", d, digest)
		}
	}
	if err := checkDigest(root, w.faultEvery, seed, seconds, digest); err != nil {
		fail("%v", err)
	}
	if len(sat.reports) == 0 {
		fail("no reports")
	}

	hits, theta := accuracy(in, sat.reports)
	fmt.Fprintf(os.Stderr, "wirebench: %s: %d packets, %d events, %d states, %d faults injected, %d reports (%d hit the true operation; digest %016x)\n",
		w.name, len(in.recs), sat.tapped, len(in.states), in.injected, len(sat.reports), hits, digest)
	m := res.Metrics
	if !traced {
		cpuPasses := paceds
		if w.recovery {
			cpuPasses = sats // the whole replay an operator waits for
		}
		var cpu time.Duration
		events := 0
		for _, p := range cpuPasses {
			cpu += p.cpu
			events += p.ingested
		}
		m["setup_s"] = metric{median(setupS), "s"}
		m["throughput_eps"] = metric{median(satEPS), "events/s"}
		m["cpu_us_per_event"] = metric{cpu.Seconds() * 1e6 / float64(events), "us"}
		m["heap_peak_mb"] = metric{median(heapPeaks), "MB"}
		m["report_latency_p50_ms"] = metric{median(rep50), "ms"}
		m["theta_mean"] = metric{theta, "ratio"}
		return res, nil
	}

	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	m["trace.overhead_pct"] = metric{100 * (bareEPS/median(satEPS) - 1), "%"}
	m["e2e.lag_p50_ms"] = metric{median(lag50), "ms"}
	m["e2e.lag_p99_ms"] = metric{ms(quantile(lag, 0.99)), "ms"}
	m["e2e.report_latency_p99_ms"] = metric{ms(quantile(repLat, 0.99)), "ms"}
	m["agent.parse_ns_per_pkt"] = metric{per(float64(tr.parseNS), tr.packets), "ns"}
	m["agent.events_per_pkt"] = metric{per(float64(tr.events), tr.packets), "events/pkt"}
	m["agent.parse_errors"] = metric{float64(tr.parseErrors), "count"}
	// Layers a workload bypasses read 0: their counters never move.
	var wireBytes int64
	var wal1 walCounters
	if fx.rg != nil {
		wireBytes = fx.rg.wire.Load() - wire0
		wal1 = readWAL(fx.rg)
	}
	m["transport.send_ns_per_event"] = metric{per(float64(tr.sendNS), tr.events), "ns"}
	// The untraced pass in the middle wrote to the same connection.
	m["transport.wire_bytes_per_event"] = metric{per(float64(wireBytes), tr.events+bare.tapped), "B"}
	m["transport.delivery_p50_ms"] = metric{ms(quantile(tr.deliveryNS, 0.50)), "ms"}
	m["transport.delivery_p99_ms"] = metric{ms(quantile(tr.deliveryNS, 0.99)), "ms"}
	m["transport.shed"] = metric{float64(sat.shed + paced.shed), "count"}
	m["transport.missing"] = metric{float64(sat.missing + paced.missing), "count"}
	m["transport.dups"] = metric{float64(sat.dups + paced.dups), "count"}
	m["lost_ratio"] = metric{per(float64(sat.missing+paced.missing), sat.tapped+paced.tapped), "ratio"}
	m["core.ingest_ns_per_event"] = metric{per(float64(tr.ingestNS), tr.events), "ns"}
	// Detect busy time and WAL syncs cover the three passes; report them
	// per pass.
	busy := detectBusy() - det0
	m["core.detect_busy_ms"] = metric{busy.Seconds() * 1e3 / 3, "ms"}
	m["core.detect_ns_per_report"] = metric{per(float64(busy), 3*len(sat.reports)), "ns"}
	m["core.reports"] = metric{float64(len(sat.reports)), "count"}
	m["core.snapshots"] = metric{float64(tr.snapshots / 2), "count"}
	cands, beta := 0, 0
	for _, r := range sat.reports {
		cands += len(r.Candidates)
		beta += r.Beta
	}
	m["core.candidates_mean"] = metric{per(float64(cands), len(sat.reports)), "count"}
	m["core.beta_mean"] = metric{per(float64(beta), len(sat.reports)), "events"}
	m["core.hit_rate"] = metric{per(float64(hits), len(sat.reports)), "ratio"}
	m["rca.ns_per_report"] = metric{per(float64(tr.rcaNS.Load()), int(tr.rcaCalls.Load())), "ns"}
	m["wal.append_ns_per_event"] = metric{per(float64(tr.walNS), tr.walEvents), "ns"}
	m["wal.bytes_per_event"] = metric{per(float64(wal1.bytes-wal0.bytes), int(wal1.appended-wal0.appended)), "B"}
	m["wal.syncs"] = metric{float64(wal1.synced-wal0.synced) / 3, "count"}
	m["wal.read_ns_per_event"] = metric{per(float64(tr.walReadNS), tr.walReadEvents), "ns"}
	m["runtime.allocs_per_event"] = metric{per(float64(rt1.allocs-rt0.allocs), tr.events+bare.ingested), "allocs"}
	m["runtime.gc_cycles"] = metric{float64(rt1.gcs - rt0.gcs), "count"}
	m["runtime.gc_pause_p99_ms"] = metric{pauseP99(rt0, rt1) * 1e3, "ms"}
	m["generator.late_p99_ms"] = metric{ms(quantile(tr.lateNS, 0.99)), "ms"}
	m["generator.late_max_ms"] = metric{ms(maxOf(tr.lateNS)), "ms"}
	return res, nil
}

// accuracy scores reports against the benchmark's ground-truth table:
// hits counts reports whose candidate set holds the operation that
// really produced the fault message; theta is the mean θ.
func accuracy(in *inputs, reps []*core.Report) (hits int, theta float64) {
	for _, r := range reps {
		truth := in.truth(r.Fault.Seq)
		for _, c := range r.Candidates {
			if c == truth {
				hits++
				break
			}
		}
		theta += r.Precision
	}
	if len(reps) > 0 {
		theta /= float64(len(reps))
	}
	return hits, theta
}

// detectBusy sums the detect workers' span histograms
// (core.detect.worker<N>).
func detectBusy() time.Duration {
	var d time.Duration
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		d += telemetry.GetHistogram(fmt.Sprintf("core.detect.worker%d", i)).Sum()
	}
	return d
}

type walCounters struct {
	appended, synced uint64
	bytes            int64
}

func readWAL(rg *rig) walCounters {
	if rg.log == nil {
		return walCounters{}
	}
	s := rg.log.Stats()
	return walCounters{s.Appended, s.Synced, s.Bytes}
}

// checkDigest compares the report digest with the one an earlier run of
// the same binary recorded for this event stream (fault density, seed
// and size), recording it on first sight. steady-wal and wal-recovery
// replay the same stream, so each also checks that WAL recovery
// reproduces the live pipeline's reports.
func checkDigest(root string, faultEvery int, seed int64, seconds int, digest uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%x-f%d-s%d-n%d", h.Sum(nil)[:8], faultEvery, seed, seconds))
	want := fmt.Sprintf("%016x", digest)
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != want {
			return fmt.Errorf("report digest %s differs from %s recorded by an earlier run of this seed", want, got)
		}
		return nil
	}
	return os.WriteFile(path, []byte(want+"\n"), 0o644)
}
