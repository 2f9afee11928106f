package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/serve"
)

// The pipelines the workloads send. coldSpec mixes function passes with
// the unit-layout passes LOOP16 and BRALIGN, so the memo keys whole
// units; warmSpec is all ParallelSafe function passes, so the memo keys
// each function by its own content and unchanged functions hit across
// units.
const (
	coldSpec = "REDZEXT:REDTEST:REDMOV:ADDADD:LOOP16:BRALIGN"
	warmSpec = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED"
)

// corpusScale sizes the generated units: at 0.3 a unit is about 13 KB
// and 21 functions.
const corpusScale = 0.3

// The traffic model of the pool workloads. zipfS is the skew of the
// repository's own model, maoload -zipf 1.2, as ci.sh and the README's
// fleet quickstart run it. The pool sizes are choices, not taken from a
// traffic trace; what they must satisfy is that each fits the cache it
// is sent to. warmPool's ~1,350 functions take 2% of the memo, so no
// pool entry is evicted. hotPool fits one shard's result cache (maod's
// default is 512 entries) even if the ring gives that shard the whole
// pool, so every timed hot-fleet request hits; gen_test.go pins that
// against a real server. README.md gives the share of requests the top
// pool units draw.
const (
	warmPool    = 64
	hotPool     = 128
	warmupUnits = 8
	zipfS       = 1.2
)

// memoCapacity is maod's default memo size in function entries.
// cold-fresh sends fresh units holding this many functions before
// timing, so the timed phase meets the memo a long-running daemon has:
// full, and evicting on every fresh unit.
const memoCapacity = 65536

// workload is one traffic mix the benchmark can run.
type workload struct {
	name   string
	spec   string
	verify bool // requests carry options.verify
	fleet  bool // maorouter in front of two maod shards
	// rate is the nominal throughput, in units/s, of the machine the
	// benchmark was sized on. A run sends rate × seconds requests, so
	// two runs of the same length always do the same work.
	rate float64
	// salt separates the random streams of workloads that share a seed.
	salt uint64
}

var workloads = []workload{
	{name: "cold-fresh", spec: coldSpec, rate: 300, salt: 1},
	{name: "warm-rebuild", spec: warmSpec, rate: 300, salt: 2},
	{name: "hot-fleet", spec: coldSpec, fleet: true, rate: 900, salt: 3},
	{name: "verify-fresh", spec: coldSpec, verify: true, rate: 110, salt: 4},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unit is one generated request.
type unit struct {
	base   int    // index into bases()
	name   string // request unit name
	source string
	edited bool // carries a behaviour-preserving single-function edit
	funcs  int  // function count (warm-rebuild only; the memo counts per function)
	body   []byte
}

// inputs is everything one run sends, generated from the seed before
// any timing starts.
type inputs struct {
	// warmup is sent during set-up: a few throwaway fresh units, or the
	// whole pool for the pool workloads.
	warmup []*unit
	// timed holds one unit per timed request; pool workloads repeat
	// pool entries.
	timed []*unit
	// fill is sent after set-up and before timing, untimed (cold-fresh
	// only): fresh units that bring the memo to memoCapacity.
	fill []*unit
	// sample is the fixed oracle sample sent after timing: one unit per
	// SPEC-like workload, the same for every seed.
	sample []*unit
}

// bases returns the SPEC-like corpus every unit derives from.
func bases() []corpus.Workload {
	return append(corpus.Spec2000Int(corpusScale), corpus.Spec2006Subset(corpusScale)...)
}

// gen draws seeded units.
type gen struct {
	bases []corpus.Workload
	rng   *rand.Rand
	order []int // current round of base indices
}

func newGen(w workload, seed uint64) *gen {
	return &gen{bases: bases(), rng: rand.New(rand.NewPCG(seed, w.salt))}
}

// nextBase cycles through the bases in a freshly shuffled order every
// round, so every run carries each SPEC-like shape in the same
// proportion and only the units' contents depend on the seed.
func (g *gen) nextBase() int {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(len(g.bases))
	}
	b := g.order[0]
	g.order = g.order[1:]
	return b
}

// variant renders base b with a random corpus seed: the same hot-spot
// geometry with different cold code, a unit no server has seen.
func (g *gen) variant(b int, name string) *unit {
	cw := g.bases[b]
	cw.Seed = g.rng.Uint64()
	return &unit{base: b, name: name, source: corpus.Generate(cw)}
}

// original renders base b with its corpus seed: seed-independent.
func (g *gen) original(b int, name string) *unit {
	return &unit{base: b, name: name, source: corpus.Generate(g.bases[b])}
}

// pool returns n units: every base with its corpus seed first (so the
// oracle sample is part of the pool), then seeded variants.
func (g *gen) pool(n int, prefix string) []*unit {
	out := make([]*unit, 0, n)
	for b := range g.bases {
		out = append(out, g.original(b, fmt.Sprintf("%s-%d.s", prefix, len(out))))
	}
	for len(out) < n {
		out = append(out, g.variant(g.nextBase(), fmt.Sprintf("%s-%d.s", prefix, len(out))))
	}
	return out
}

// generate builds the inputs of n timed requests of workload w.
func generate(w workload, seed uint64, n int) (*inputs, error) {
	g := newGen(w, seed)
	in := &inputs{}
	switch w.name {
	case "cold-fresh", "verify-fresh":
		// The warm-up and fill units come from a fixed stream, so they
		// are the same work whatever the seed.
		fixed := &gen{bases: g.bases, rng: rand.New(rand.NewPCG(0, ^w.salt))}
		for i := 0; i < warmupUnits; i++ {
			in.warmup = append(in.warmup, fixed.variant(fixed.nextBase(), fmt.Sprintf("warmup-%d.s", i)))
		}
		for funcs := 0; w.name == "cold-fresh" && funcs < memoCapacity; {
			u := fixed.variant(fixed.nextBase(), fmt.Sprintf("fill-%d.s", len(in.fill)))
			funcs += strings.Count(u.source, ",@function")
			in.fill = append(in.fill, u)
		}
		for i := 0; i < n; i++ {
			in.timed = append(in.timed, g.variant(g.nextBase(), fmt.Sprintf("fresh-%d.s", i)))
		}
		for b := range g.bases {
			in.sample = append(in.sample, g.original(b, fmt.Sprintf("sample-%d.s", b)))
		}
	case "warm-rebuild":
		in.warmup = g.pool(warmPool, "pool")
		for _, u := range in.warmup {
			pu, err := asm.ParseString(u.name, u.source)
			if err != nil {
				return nil, fmt.Errorf("pool unit %s: %w", u.name, err)
			}
			u.funcs = len(pu.Functions())
		}
		zipf := rand.NewZipf(g.rng, zipfS, 1, warmPool-1)
		for i := 0; i < n; i++ {
			p := in.warmup[zipf.Uint64()]
			u := &unit{base: p.base, name: fmt.Sprintf("rebuild-%d.s", i), source: p.source, funcs: p.funcs}
			// Every other request edits one function; the edit is unique
			// to the request, so its function can never hit the memo.
			if i%2 == 1 {
				src, err := editUnit(u.source, g.rng.IntN(u.funcs), i+1)
				if err != nil {
					return nil, err
				}
				u.source, u.edited = src, true
			}
			in.timed = append(in.timed, u)
		}
		for b := range g.bases {
			p := in.warmup[b]
			in.sample = append(in.sample, &unit{base: b, name: fmt.Sprintf("sample-%d.s", b), source: p.source, funcs: p.funcs})
		}
	case "hot-fleet":
		in.warmup = g.pool(hotPool, "hot")
		zipf := rand.NewZipf(g.rng, zipfS, 1, hotPool-1)
		for i := 0; i < n; i++ {
			in.timed = append(in.timed, in.warmup[zipf.Uint64()])
		}
		in.sample = in.warmup[:len(g.bases)]
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	for _, set := range [][]*unit{in.warmup, in.fill, in.timed, in.sample} {
		for _, u := range set {
			if u.body != nil {
				continue
			}
			body, err := json.Marshal(serve.OptimizeRequest{
				Name: u.name, Source: u.source, Spec: w.spec,
				Options: serve.OptimizeOptions{Verify: w.verify},
			})
			if err != nil {
				return nil, err
			}
			u.body = body
		}
	}
	return in, nil
}

// editUnit inserts a pair of address computations that cancel out
// (r11 += k; r11 -= k) at the entry of the fn-th function. Registers,
// flags and memory end exactly as before, so the function's behaviour
// is unchanged, while its text, and hence its memo key, is unique to k.
func editUnit(src string, fn, k int) (string, error) {
	lines := strings.SplitAfter(src, "\n")
	seen := 0
	for i, l := range lines {
		name, ok := strings.CutPrefix(strings.TrimSpace(l), ".type ")
		if !ok || !strings.HasSuffix(name, ",@function") {
			continue
		}
		if seen != fn {
			seen++
			continue
		}
		label := strings.TrimSuffix(name, ",@function") + ":"
		for j := i + 1; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) == label {
				edit := fmt.Sprintf("\tleaq %d(%%r11), %%r11\n\tleaq -%d(%%r11), %%r11\n", k, k)
				return strings.Join(lines[:j+1], "") + edit + strings.Join(lines[j+1:], ""), nil
			}
		}
		return "", fmt.Errorf("function %s has no label", label)
	}
	return "", fmt.Errorf("unit has no function %d", fn)
}
