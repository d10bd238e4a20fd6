package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"syscall"
	"time"
	"unsafe"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

// Deployment shape: the catalog workload gretel-agent drives, with
// Tempest pacing, at 400 concurrent tests.
const (
	concurrentTests = 400
	statePeriod     = 5 * time.Second // agent.CollectState cadence, simulated time
)

// stateAt is one recorded distributed-state update and the number of
// packets replayed before it is sent.
type stateAt struct {
	before int
	u      agent.StateUpdate
}

// pktRec is one recorded packet without pointers: its payload lives in
// the byte arena and its endpoints in a small interned table.
type pktRec struct {
	at       int64 // simulated time, Unix ns (UTC)
	conn     uint64
	off, n   uint32 // payload bytes in the arena
	src, dst uint32 // endpoints table indexes
}

type endpoint struct{ node, addr string }

// inputs is everything a run replays: the recorded packets and state
// updates, the fingerprint library, and the benchmark-side reference
// tap. The program under test only ever sees the packets and states.
//
// The packet records and payload arena live in memory mapped outside the
// Go heap: a real agent never holds a whole recording, and hundreds of MB
// of harness data on the heap would change how often the collector runs
// for the pipeline being measured.
type inputs struct {
	recs   []pktRec // off-heap
	arena  []byte   // off-heap
	maps   [][]byte // mappings backing recs and arena
	eps    []endpoint
	states []stateAt
	lib    *fingerprint.Library

	// The reference tap: what a ground-truth-free monitor emits for the
	// recording, replayed once at setup with no transport. evPkt maps
	// event index to the packet it was parsed from; evTruth to the index
	// in ops of the operation Deployment.Lookup/LookupMsg say produced
	// it. Event order is deterministic, so event e of any pass is the
	// analyzer's Seq e+1.
	evPkt    []int32
	evTruth  []uint32
	ops      []string
	injected int    // operational faults the injector fired
	digest   uint64 // FNV-64a over the recording and the reference events
}

// packet rebuilds recorded packet i as the tap delivered it.
func (in *inputs) packet(i int) cluster.Packet {
	r := &in.recs[i]
	src, dst := in.eps[r.src], in.eps[r.dst]
	end := r.off + r.n
	return cluster.Packet{
		Time:    time.Unix(0, r.at).UTC(),
		SrcNode: src.node, DstNode: dst.node,
		SrcAddr: src.addr, DstAddr: dst.addr,
		ConnID:  r.conn,
		Payload: in.arena[r.off:end:end],
	}
}

// truth is the operation that produced the analyzer's event seq.
func (in *inputs) truth(seq uint64) string {
	if seq == 0 || seq > uint64(len(in.evTruth)) {
		return ""
	}
	return in.ops[in.evTruth[seq-1]]
}

// release unmaps the off-heap recording. Only call it once nothing
// replays the inputs any more.
func (in *inputs) release() {
	for _, m := range in.maps {
		syscall.Munmap(m)
	}
	in.maps, in.recs, in.arena = nil, nil, nil
}

// offHeap copies b into a fresh anonymous mapping.
func (in *inputs) offHeap(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, nil
	}
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", len(b), err)
	}
	copy(m, b)
	in.maps = append(in.maps, m)
	return m, nil
}

// injector fails one mid-operation state-changing REST step in a seeded
// one-in-every share of started instances. Decisions are keyed by
// instance id and operation, so the cost per step is constant however
// many faults a run carries (faults.Plan scans every rule per step).
type injector struct {
	seed   uint64
	every  uint64
	stepOf map[*openstack.Operation]int
	fired  int
}

func (j *injector) Outcome(inst *openstack.Instance, idx int, _ openstack.Step, _, _ *cluster.Node) openstack.Outcome {
	if mix(j.seed^inst.ID)%j.every != 0 {
		return openstack.Outcome{}
	}
	at, ok := j.stepOf[inst.Op]
	if !ok {
		at = faultStep(inst.Op)
		j.stepOf[inst.Op] = at
	}
	if idx != at {
		return openstack.Outcome{}
	}
	j.fired++
	return openstack.Outcome{Status: 500, ErrText: "Internal Server Error: injected fault"}
}

// faultStep picks the step gretel-agent fails: three fifths of the way
// through the operation's state-changing REST steps (-1 if none).
func faultStep(op *openstack.Operation) int {
	var idxs []int
	for i, s := range op.Steps {
		if !s.Noise && s.API.Kind == trace.REST && s.API.StateChanging() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[len(idxs)*3/5]
}

// mix is the splitmix64 finalizer, used as a seeded hash so the choice
// of faulty instances does not depend on scheduling order.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildInputs runs the simulated deployment from seed until it has
// emitted nPkts tapped packets and records them, with a state update
// every statePeriod of simulated time. faultEvery > 0 fails one started
// instance in faultEvery. Every event the reference tap emits is also
// passed to onEvent, if set.
func buildInputs(seed int64, nPkts int, faultEvery int, onEvent func(trace.Event) error) (*inputs, error) {
	cat := tempest.NewCatalog(seed)
	lib := fingerprint.NewLibrary()
	for _, test := range cat.Tests {
		lib.AddAPIs(test.Op.Name, test.Op.Category.String(), test.Op.APIs())
	}
	d := openstack.NewDeployment(openstack.Config{
		Seed:            seed,
		HeartbeatPeriod: 10 * time.Second,
		ThinkMin:        50 * time.Millisecond,
		ThinkMax:        150 * time.Millisecond,
	})
	var inj *injector
	if faultEvery > 0 {
		inj = &injector{seed: uint64(seed), every: uint64(faultEvery), stepOf: map[*openstack.Operation]int{}}
		d.Injector = inj
	}
	in := &inputs{lib: lib}
	recs := make([]pktRec, 0, nPkts)
	arena := make([]byte, 0, nPkts*128)
	epIdx := map[endpoint]uint32{}
	intern := func(node, addr string) uint32 {
		k := endpoint{node, addr}
		i, ok := epIdx[k]
		if !ok {
			i = uint32(len(in.eps))
			in.eps = append(in.eps, k)
			epIdx[k] = i
		}
		return i
	}
	d.Fabric.Tap(func(p cluster.Packet) {
		if len(recs) == nPkts {
			return
		}
		recs = append(recs, pktRec{
			at: p.Time.UnixNano(), conn: p.ConnID,
			off: uint32(len(arena)), n: uint32(len(p.Payload)),
			src: intern(p.SrcNode, p.SrcAddr), dst: intern(p.DstNode, p.DstAddr),
		})
		arena = append(arena, p.Payload...)
	})
	d.Sim.Every(statePeriod, func() bool { return len(recs) == nPkts }, func() {
		in.states = append(in.states, stateAt{before: len(recs), u: agent.CollectState(d.Fabric, d.Sim.Now())})
	})
	tempest.SustainPool(d, cat, concurrentTests, rand.New(rand.NewSource(seed^0xa9e47)))
	for len(recs) < nPkts {
		d.Sim.RunUntil(d.Sim.Now().Add(100 * time.Millisecond))
	}
	if inj != nil {
		in.injected = inj.fired
	}

	var err error
	if in.arena, err = in.offHeap(arena); err != nil {
		return nil, err
	}
	recBytes := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*int(unsafe.Sizeof(pktRec{})))
	m, err := in.offHeap(recBytes)
	if err != nil {
		in.release()
		return nil, err
	}
	in.recs = unsafe.Slice((*pktRec)(unsafe.Pointer(unsafe.SliceData(m))), len(recs))

	// Reference tap with ground truth from the deployment's tables.
	h := fnv.New64a()
	h.Write(recBytes)
	h.Write(in.arena)
	opIdx := map[string]uint32{}
	cur := 0
	mon := agent.NewMonitor("reference", func(ev trace.Event) {
		_, op := d.Lookup(ev.ConnID)
		if ev.MsgID != "" {
			if id, name := d.LookupMsg(ev.MsgID); id != 0 {
				op = name
			}
		}
		k, ok := opIdx[op]
		if !ok {
			k = uint32(len(in.ops))
			in.ops = append(in.ops, op)
			opIdx[op] = k
		}
		in.evPkt = append(in.evPkt, int32(cur))
		in.evTruth = append(in.evTruth, k)
		h.Write([]byte(ev.API.String()))
		if onEvent != nil && err == nil {
			err = onEvent(ev)
		}
	}, nil)
	for cur = range in.recs {
		mon.HandlePacket(in.packet(cur))
	}
	if err != nil {
		in.release()
		return nil, err
	}
	for _, e := range in.eps {
		h.Write([]byte(e.node + "|" + e.addr + "|"))
	}
	in.digest = h.Sum64()
	return in, nil
}
