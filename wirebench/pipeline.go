package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/rca"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

const (
	// lineRate is the paced pass's open-loop packet rate: the paper's
	// ~50 Kpps replay ceiling (Fig 8c).
	lineRate = 50000
	interval = int64(time.Second) / lineRate // ns between due times
	// window bounds tapped-but-not-ingested events in the saturation
	// pass, well inside the sender's spill ring so the closed loop can
	// never shed.
	window = 1024
	// senderRing matches gretel-agent's default -spool.
	senderRing = 4096
	// drainTimeout bounds how long a pass waits for in-flight frames
	// after the generator stops before declaring them lost.
	drainTimeout = 30 * time.Second
)

// rig is the connected transport a run's passes share: one receiver and
// one sender over one loopback TCP connection, and the WAL when the
// workload captures. Building it is part of setup.
type rig struct {
	recv *agent.Receiver
	snd  *agent.Sender
	wire atomic.Int64 // bytes the sender wrote to the socket
	log  *wal.Log     // nil unless the workload captures
}

// countingConn counts bytes written through the sender's connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func newRig(dir string, withWAL bool) (*rig, error) {
	r := &rig{}
	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0", DownAfter: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	r.recv = recv
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr: recv.Addr(), Agent: "agent", Ring: senderRing,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &r.wire}, nil
		},
	})
	if err != nil {
		recv.Close()
		return nil, err
	}
	r.snd = snd
	if err := snd.WaitConnected(10 * time.Second); err != nil {
		r.close()
		return nil, err
	}
	if withWAL {
		// Fsync is set explicitly: the zero Options value is FsyncNone,
		// although gretel's -wal-fsync default is interval.
		r.log, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncInterval})
		if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) close() {
	r.snd.Close()
	r.recv.Close()
	if r.log != nil {
		if err := r.log.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wirebench: closing wal: %v\n", err)
		}
	}
}

// newAnalyzer configures the analyzer like cmd/gretel's defaults:
// Prate 150 and t 1 (α = 768), performance detection on, one detect
// worker per CPU, and RCA over a store fed by the agents' state updates.
func newAnalyzer(in *inputs, store *rca.Store, tr *tracer) *core.Analyzer {
	a := core.New(in.lib, core.Config{
		Prate: 150, T: 1, PerfDetection: true, DetectWorkers: runtime.GOMAXPROCS(0),
	})
	hook := rca.NewEngine(in.lib, store, rca.Config{}).Hook()
	if tr != nil {
		inner := hook
		hook = func(rep *core.Report) []core.RootCause {
			t := nanotime()
			rc := inner(rep)
			tr.rcaNS.Add(nanotime() - t)
			tr.rcaCalls.Add(1)
			return rc
		}
	}
	a.SetRCA(hook)
	return a
}

// timeline holds one pass's raw timestamps (ns since the pass started),
// preallocated before the heap baseline so the harness allocates nothing
// of note while the pipeline's heap is sampled. Passes reuse it.
type timeline struct {
	ingestAt  []int64  // per event: its Ingest returned
	sendAt    []int64  // traced, per event: its Sender.Send returned
	deqAt     []int64  // traced, per event: it left Receiver.Events
	late      []int64  // paced, per packet: generator lateness
	reportAt  []int64  // per report: OnReport ran
	reportSeq []uint64 // per report: the fault event's Seq
}

func newTimeline(events, packets int, traced bool) *timeline {
	t := &timeline{
		ingestAt:  make([]int64, 0, events),
		late:      make([]int64, 0, packets),
		reportAt:  make([]int64, 0, events/32),
		reportSeq: make([]uint64, 0, events/32),
	}
	if traced {
		t.sendAt = make([]int64, events)
		t.deqAt = make([]int64, 0, events)
	}
	return t
}

func (t *timeline) reset() {
	t.ingestAt, t.late = t.ingestAt[:0], t.late[:0]
	t.reportAt, t.reportSeq = t.reportAt[:0], t.reportSeq[:0]
	if t.deqAt != nil {
		t.deqAt = t.deqAt[:0]
	}
}

// onReport records a report's arrival; it runs on the analyzer's
// collector goroutine, and the timeline is read only after Close.
func (t *timeline) onReport(t0 int64) func(*core.Report) {
	return func(rep *core.Report) {
		t.reportAt = append(t.reportAt, nanotime()-t0)
		t.reportSeq = append(t.reportSeq, rep.Fault.Seq)
	}
}

// passResult is one pass's accounting; its timings are in the timeline.
type passResult struct {
	tapped   int // events the monitor emitted (or records written)
	ingested int
	states   int
	missing  uint64 // frames the receiver saw go missing (includes shed)
	shed     uint64
	dups     uint64
	walRecs  uint64        // records the capture appended this pass
	wall     time.Duration // first packet to analyzer closed
	cpu      time.Duration // process user+sys over the pass
	reports  []*core.Report
}

// runPass replays every recorded packet through monitor → sender →
// receiver → a fresh analyzer (and the rig's WAL, if any). The paced
// pass sends on the 50 Kpps schedule; the saturation pass keeps at most
// window events in flight.
func runPass(in *inputs, rg *rig, tl *timeline, paced bool, tr *tracer) (*passResult, error) {
	tl.reset()
	res := &passResult{}
	store := rca.NewStore()
	a := newAnalyzer(in, store, tr)
	var capt *timedCapture
	if rg.log != nil {
		if tr != nil {
			capt = &timedCapture{log: rg.log}
			a.SetCapture(capt)
		} else {
			a.SetCapture(rg.log)
		}
	}
	walBefore := walAppended(rg.log)
	stBefore := rg.recv.AgentStats()["agent"]
	shedBefore := rg.snd.Stats().Shed
	nev := len(in.evPkt)

	var tapped, ingested atomic.Int64
	var waiting atomic.Bool
	wake := make(chan struct{}, 1)
	t0 := nanotime()
	a.OnReport(tl.onReport(t0))
	sink := func(ev trace.Event) {
		if tr == nil {
			rg.snd.Send(ev)
		} else {
			t := nanotime()
			rg.snd.Send(ev)
			d := nanotime()
			tr.sendNS += d - t
			if e := int(tapped.Load()); e < nev {
				tl.sendAt[e] = d - t0
			}
		}
		tapped.Add(1)
	}
	mon := agent.NewMonitor("agent", sink, nil)

	// Drive loop: the analyzer side, shaped like replay.DriveTransport
	// but timing each Ingest.
	type target struct{ events, states int }
	targetC := make(chan target, 1)
	driveErr := make(chan error, 1)
	go func() {
		events, states, health := rg.recv.Events(), rg.recv.States(), rg.recv.Health()
		var tgt *target
		var tick <-chan time.Time
		var deadline time.Time
		for {
			if tgt != nil && res.ingested == tgt.events && res.states == tgt.states {
				driveErr <- nil
				return
			}
			select {
			case ev := <-events:
				if tr == nil {
					a.Ingest(ev)
					tl.ingestAt = append(tl.ingestAt, nanotime()-t0)
				} else {
					tl.deqAt = append(tl.deqAt, nanotime()-t0)
					var capBefore int64
					if capt != nil {
						capBefore = capt.ns
					}
					t := nanotime()
					a.Ingest(ev)
					done := nanotime()
					d := done - t
					if capt != nil {
						tr.walNS += capt.ns - capBefore
						d -= capt.ns - capBefore
					}
					tr.ingestNS += d
					tl.ingestAt = append(tl.ingestAt, done-t0)
				}
				res.ingested++
				k := ingested.Add(1)
				if waiting.Load() && tapped.Load()-k <= window/2 {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			case u := <-states:
				store.Apply(u)
				res.states++
			case h := <-health:
				switch h.Kind {
				case agent.HealthGap, agent.HealthDown:
					a.NodeGap(h.Agent, h.Missing, h.At)
				case agent.HealthUp:
					a.NodeRecovered(h.Agent)
				}
			case t := <-targetC:
				tgt = &t
				deadline = time.Now().Add(drainTimeout)
				tk := time.NewTicker(10 * time.Millisecond)
				defer tk.Stop()
				tick = tk.C
			case <-tick:
				// Frames that never arrive are accounted by the receiver
				// (sequence gaps, heartbeat high-water marks).
				lost := int(rg.recv.AgentStats()["agent"].Missing - stBefore.Missing)
				if lost > 0 && res.ingested+res.states+lost >= tgt.events+tgt.states {
					driveErr <- nil
					return
				}
				if time.Now().After(deadline) {
					driveErr <- fmt.Errorf("pass stalled: %d/%d events and %d/%d states after %v",
						res.ingested, tgt.events, res.states, tgt.states, drainTimeout)
					return
				}
			}
		}
	}()

	// Generator: this goroutine feeds the tap.
	cpu0 := cpuTime()
	st := 0
	var genErr error
	for i := range in.recs {
		for st < len(in.states) && in.states[st].before <= i {
			rg.snd.SendState(in.states[st].u)
			st++
		}
		if paced {
			// Overdue packets go out back to back; only a packet that is
			// not yet due waits.
			due := int64(i) * interval
			now := nanotime() - t0
			if now < due {
				time.Sleep(time.Duration(due - now))
				now = nanotime() - t0
			}
			tl.late = append(tl.late, now-due)
		} else if tapped.Load()-ingested.Load() >= window {
			waiting.Store(true)
			for genErr == nil && tapped.Load()-ingested.Load() > window/2 {
				select {
				case <-wake:
				case <-time.After(drainTimeout):
					genErr = fmt.Errorf("saturation pass stalled with %d events in flight", tapped.Load()-ingested.Load())
				}
			}
			waiting.Store(false)
			if genErr != nil {
				break
			}
		}
		if tr == nil {
			mon.HandlePacket(in.packet(i))
		} else {
			t := nanotime()
			s := tr.sendNS
			mon.HandlePacket(in.packet(i))
			tr.parseNS += nanotime() - t - (tr.sendNS - s)
		}
	}
	for ; st < len(in.states); st++ {
		rg.snd.SendState(in.states[st].u)
	}
	res.tapped = int(tapped.Load())
	targetC <- target{events: res.tapped, states: len(in.states)}
	err := <-driveErr
	a.Close()
	res.wall = time.Duration(nanotime() - t0)
	res.cpu = cpuTime() - cpu0
	if genErr != nil {
		return nil, genErr
	}
	if err != nil {
		return nil, err
	}

	stAfter := rg.recv.AgentStats()["agent"]
	res.missing = stAfter.Missing - stBefore.Missing
	res.dups = stAfter.Dups - stBefore.Dups
	res.shed = rg.snd.Stats().Shed - shedBefore
	res.reports = a.Reports()
	res.walRecs = walAppended(rg.log) - walBefore
	if tr != nil {
		tr.parseErrors += mon.ParseErrors
		tr.packets += len(in.recs)
		tr.events += res.tapped
		tr.snapshots += int(a.Stats.Snapshots)
		if capt != nil {
			tr.walEvents += res.ingested
		}
		if paced && len(tl.deqAt) == res.tapped && res.tapped <= nev {
			for e := range tl.deqAt {
				tr.deliveryNS = append(tr.deliveryNS, tl.deqAt[e]-tl.sendAt[e])
			}
		}
		if paced {
			tr.lateNS = append(tr.lateNS, tl.late...)
		}
	}
	return res, nil
}

func walAppended(l *wal.Log) uint64 {
	if l == nil {
		return 0
	}
	return l.Stats().Appended
}

// timedCapture is the analyzer's WAL capture with the time spent in
// AppendBatch accumulated, so the traced run can split Ingest into
// analyzer work and WAL append. Only the ingest goroutine touches it.
type timedCapture struct {
	log *wal.Log
	ns  int64
}

func (c *timedCapture) AppendBatch(evs []trace.Event) (uint64, error) {
	t := nanotime()
	seq, err := c.log.AppendBatch(evs)
	c.ns += nanotime() - t
	return seq, err
}

func (c *timedCapture) MarkProcessed(seq uint64) { c.log.MarkProcessed(seq) }

// reportDigest hashes the report stream: fault position, kind, sorted
// candidates and θ. Detection depends only on event order, so every pass
// over the same inputs must produce the same digest.
func reportDigest(reps []*core.Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range reps {
		u64(r.Fault.Seq)
		u64(uint64(r.Kind))
		c := append([]string(nil), r.Candidates...)
		sort.Strings(c)
		u64(uint64(len(c)))
		for _, s := range c {
			u64(uint64(len(s)))
			h.Write([]byte(s))
		}
		u64(math.Float64bits(r.Precision))
	}
	return h.Sum64()
}

var clockBase = time.Now()

// nanotime is monotonic nanoseconds since process start, comparable
// across goroutines.
func nanotime() int64 { return int64(time.Since(clockBase)) }
