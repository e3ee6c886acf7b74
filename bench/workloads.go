package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/serve"
)

// algorithms are the six schedules the daemon serves: the paper's five
// and the shearsort baseline. Every side below is even, because the
// row-major schedules need an even column count.
var algorithms = []string{"rm-rf", "rm-cf", "snake-a", "snake-b", "snake-c", "shearsort"}

// clients is the number of closed-loop client connections: one per CPU of
// the reference host.
const clients = 2

// warmSeed seeds warm-up jobs; timed specs draw seeds with the top bit
// set, so the two never share a cache key.
const warmSeed = 7

// workload is one traffic mix: rounds of cold jobs, one per algorithm,
// side and trial count. Later changes refer to workloads by name.
type workload struct {
	name    string
	zeroOne bool // half-0/half-1 inputs instead of permutations
	sides   []int
	trials  []int
}

var workloads = []*workload{
	{name: "perm-cold", sides: []int{16, 32, 48}, trials: []int{64, 128}},
	{name: "zeroone-cold", zeroOne: true, sides: []int{32, 48, 64}, trials: []int{128, 256, 512}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// job is one POST /v1/sort request with what the benchmark expects back.
type job struct {
	body []byte
	spec mcbatch.Spec
	key  mcbatch.Key
}

// newJob encodes req and derives the spec and content address the daemon
// must answer with.
func newJob(req serve.JobRequest) *job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	spec, err := req.ToSpec(serve.Limits{})
	if err != nil {
		panic(fmt.Sprintf("generated an invalid request %s: %v", body, err))
	}
	key, err := spec.Hash()
	if err != nil {
		panic(err)
	}
	return &job{body: body, spec: spec, key: key}
}

// sampled reports whether a cold payload with this key is in the seeded
// 1-in-8 sample checked against an offline recomputation. Keys are
// uniform hashes of the seeded specs, so the sample is too.
func sampled(key mcbatch.Key) bool { return key[0]%8 == 0 }

// warmup is one single-trial job per algorithm and side, which setup sends
// so that schedule compilation and other lazy set-up finish before timing.
func (w *workload) warmup() []*job {
	var out []*job
	for _, side := range w.sides {
		for _, alg := range algorithms {
			out = append(out, newJob(serve.JobRequest{Algorithm: alg, Side: side, Trials: 1, Seed: warmSeed, ZeroOne: w.zeroOne}))
		}
	}
	return out
}

// round returns round r of a run with this seed: one job per algorithm,
// side and trial count, each with a fresh seed, in shuffled order. It
// draws from stream r+1 of the seed, so the same seed always yields the
// same requests. Every round carries the same work and differs from the
// others only in seeds and order, so per-round rates compare across
// rounds and seeds.
func (w *workload) round(seed uint64, r int) []*job {
	src := rng.NewStream(seed, uint64(r)+1)
	var jobs []*job
	for _, side := range w.sides {
		for _, t := range w.trials {
			for _, alg := range algorithms {
				jobs = append(jobs, newJob(serve.JobRequest{
					// The top bit keeps the seed off 0, which the daemon reads
					// as its default seed, and off warmSeed.
					Algorithm: alg, Side: side, Trials: t, Seed: src.Uint64() | 1<<63, ZeroOne: w.zeroOne,
				}))
			}
		}
	}
	for i := len(jobs) - 1; i > 0; i-- {
		k := rng.Intn(src, i+1)
		jobs[i], jobs[k] = jobs[k], jobs[i]
	}
	return jobs
}
