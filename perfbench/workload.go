package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/temporal"
)

// ell is ℓ, the one-way delay bound admission assumes for the pair.
const ell = 5 * time.Millisecond

// nearZeroCosts stands in for measured per-operation costs: the cost
// model then charges (almost) nothing and the real per-update work is
// what the clock executors spend.
var nearZeroCosts = core.CostModel{ClientOp: time.Nanosecond, UpdateSend: time.Nanosecond}

// workload is one input mix the benchmark runs. Every field not set here
// takes rtpbd's default: admission control on (RM utilization bound),
// normal scheduling, SlackFactor 0.5, FrameBatch 16, SendQueueLimit 64,
// a heartbeat detector on each replica with takeover off.
type workload struct {
	name string
	// specs draws the offered object set from the workload seed.
	specs func(rng *rand.Rand) []core.ObjectSpec
	// costs is the primary's CPU cost model; the zero value is
	// core.DefaultCosts, as rtpbd runs.
	costs core.CostModel
	// durable runs a write-ahead log on both replicas, as rtpbd -data.
	durable bool
	// loss is the seeded drop probability of primary→backup datagrams.
	loss float64
	// readRate is the open-loop ctl READ rate on the backup (per second),
	// spread over readConns pipelined TCP connections; zero for none.
	readRate  float64
	readConns int
}

var workloads = []workload{
	{
		name: "admission-full",
		specs: func(rng *rand.Rand) []core.ObjectSpec {
			periods := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
			out := make([]core.ObjectSpec, 128)
			for i := range out {
				p := periods[rng.Intn(len(periods))]
				dp := p + 10*time.Millisecond
				out[i] = spec(i, 16+rng.Intn(1024-16+1), p, dp, dp+150*time.Millisecond)
			}
			return out
		},
	},
	{
		name:    "flood-durable",
		specs:   uniformSpecs(512),
		costs:   nearZeroCosts,
		durable: true,
		loss:    0.01,
	},
	{
		name:      "read-mix",
		specs:     uniformSpecs(256),
		costs:     nearZeroCosts,
		readRate:  8000,
		readConns: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// uniformSpecs offers n objects of 64 B written every 40 ms with δ_P
// 50 ms and δ_B 200 ms.
func uniformSpecs(n int) func(*rand.Rand) []core.ObjectSpec {
	return func(*rand.Rand) []core.ObjectSpec {
		out := make([]core.ObjectSpec, n)
		for i := range out {
			out[i] = spec(i, 64, 40*time.Millisecond, 50*time.Millisecond, 200*time.Millisecond)
		}
		return out
	}
}

func spec(i, size int, period, deltaP, deltaB time.Duration) core.ObjectSpec {
	return core.ObjectSpec{
		Name:         fmt.Sprintf("o%d", i),
		Size:         size,
		UpdatePeriod: period,
		Constraint:   temporal.ExternalConstraint{DeltaP: deltaP, DeltaB: deltaB},
	}
}

// payloadHeader is the part of every written value that names the write:
// object index and write index, big-endian.
const payloadHeader = 8

// payload is the value of write idx to object obj: the header, then
// filler bytes that are a pure function of (seed, obj, idx), so any image
// can be checked against the write it claims to be without storing it.
func payload(seed int64, obj, idx uint32, size int) []byte {
	b := make([]byte, max(size, payloadHeader))
	binary.BigEndian.PutUint32(b, obj)
	binary.BigEndian.PutUint32(b[4:], idx)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(obj)<<32 ^ uint64(idx)
	for i := payloadHeader; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// decodePayload names the write an image claims to be.
func decodePayload(b []byte) (obj, idx uint32, ok bool) {
	if len(b) < payloadHeader {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:]), true
}
