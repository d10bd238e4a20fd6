package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// tracer accumulates per-layer costs in a traced run. The plain fields
// are each written by one goroutine of a pass (generator, drive loop or
// replay loop) and read after it.
type tracer struct {
	parseNS  int64 // HandlePacket minus its sink
	sendNS   int64 // Sender.Send
	ingestNS int64 // Ingest/IngestBatch minus WAL append
	walNS    int64 // WAL AppendBatch under Ingest
	rcaNS    atomic.Int64
	rcaCalls atomic.Int64
	// walReadNS is wal.Reader.Next in the recovery replay loop.
	walReadNS     int64
	walReadEvents int

	packets, events, snapshots int
	parseErrors                uint64
	walEvents                  int

	deliveryNS []int64 // paced: Send returns → dequeued from Receiver.Events
	lateNS     []int64 // paced: generator lateness per packet
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak live heap — the bytes the last GC marked
// reachable — polled from runtime/metrics (no stop-the-world). Live heap,
// unlike heap-object bytes between collections, does not include the GC
// pacer's headroom.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// runtimeCounters snapshots the allocation and GC counters the traced
// run reports.
type runtimeCounters struct {
	allocs, gcs uint64
	pauses      *metrics.Float64Histogram
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64(), pauses: s[2].Value.Float64Histogram()}
}

// pauseP99 is the 99th percentile GC pause between two snapshots, in
// seconds (the bucket's upper bound; 0 without pauses).
func pauseP99(before, after runtimeCounters) float64 {
	b, a := before.pauses, after.pauses
	var total uint64
	counts := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		if seen += c; seen >= rank {
			if hi := a.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.Buckets[i]
		}
	}
	return 0
}

// quantile returns the q-quantile of xs (nearest rank), sorting xs.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Timings of a pass are summarized per third — three consecutive
// equal-count slices of its events or reports — and a run reports the
// median over the thirds of all its passes. A host hiccup of a second or
// two on a shared machine then moves one third, not the result.
const nParts = 3

// bounds returns the [lo, hi) index range of part k of n items.
func bounds(n, k int) (int, int) { return n * k / nParts, n * (k + 1) / nParts }

// parts applies stat to each third of xs (a scratch copy per third).
func parts(xs []int64, stat func([]int64) float64) []float64 {
	var per []float64
	for k := 0; k < nParts; k++ {
		if lo, hi := bounds(len(xs), k); hi > lo {
			per = append(per, stat(append([]int64(nil), xs[lo:hi]...)))
		}
	}
	return per
}

// rates is events per second in each third of a pass, from per-event
// completion times (ns since the pass started).
func rates(doneAt []int64) []float64 {
	var per []float64
	for k := 0; k < nParts; k++ {
		lo, hi := bounds(len(doneAt), k)
		if hi <= lo {
			continue
		}
		var start int64
		if lo > 0 {
			start = doneAt[lo-1]
		}
		if d := doneAt[hi-1] - start; d > 0 {
			per = append(per, float64(hi-lo)/(float64(d)/1e9))
		}
	}
	return per
}

// latencies converts a paced pass's timeline into per-event lag and
// per-report latency, both measured from the due time of the packet the
// event was parsed from.
func latencies(in *inputs, tl *timeline) (lag, report []int64) {
	lag = make([]int64, len(tl.ingestAt))
	for e, at := range tl.ingestAt {
		lag[e] = at - int64(in.evPkt[e])*interval
	}
	report = make([]int64, len(tl.reportAt))
	for k, at := range tl.reportAt {
		report[k] = at - int64(in.evPkt[tl.reportSeq[k]-1])*interval
	}
	return lag, report
}

// pct returns a stat computing the q-quantile in milliseconds.
func pct(q float64) func([]int64) float64 {
	return func(xs []int64) float64 { return ms(quantile(xs, q)) }
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
