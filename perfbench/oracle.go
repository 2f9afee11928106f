package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"mao/internal/asm"
	"mao/internal/bench"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/serve"
	"mao/internal/uarch"
	"mao/internal/uarch/exec"
	"mao/internal/uarch/sim"
)

// reference optimizes src in process the plain way: one sequential
// pipeline with no memo, no result cache and no relaxation cache.
func reference(name, src, spec string) (string, error) {
	u, err := asm.ParseString(name, src)
	if err != nil {
		return "", err
	}
	mgr, err := pass.NewManager(spec)
	if err != nil {
		return "", err
	}
	mgr.Workers = 1
	if _, err := mgr.Run(u); err != nil {
		return "", err
	}
	if err := u.Analyze(); err != nil {
		return "", err
	}
	return u.String(), nil
}

// execution is one run of a unit's entry point on the functional
// executor, timed on the simulated Core-2.
type execution struct {
	state     *exec.State
	stores    map[uint64]int // non-stack address stored to -> widest access
	cycles    int64
	textBytes int64
}

func execute(name, src, entry string) (*execution, error) {
	u, err := asm.ParseString(name, src)
	if err != nil {
		return nil, err
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		return nil, err
	}
	s := sim.New(uarch.Core2())
	x := &execution{stores: map[uint64]int{}}
	res, err := exec.Run(&exec.Config{
		Unit: u, Layout: layout, Entry: entry,
		MaxInsts: bench.MaxInsts,
		OnEvent: func(ev exec.Event) {
			s.Feed(ev)
			if ev.HasStore && !isStackAddr(ev.StoreAddr) {
				x.stores[ev.StoreAddr] = max(x.stores[ev.StoreAddr], ev.AccessLen)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	x.state = res.State
	x.cycles = int64(s.Finish().Cycles)
	x.textBytes = layout.SectionEnd[".text"]
	return x, nil
}

// The stack holds return addresses and dead spill slots by
// construction, so it is left out of the comparison.
func isStackAddr(a uint64) bool { return a >= exec.StackTop-0x100000 && a <= exec.StackTop }

// equivalentValue compares one value across two layouts: equal bits,
// or a code pointer in both (code addresses move when code changes).
func equivalentValue(a, b uint64) bool {
	isText := func(v uint64) bool { return v >= exec.TextBase && v < exec.DataBase }
	return a == b || (isText(a) && isText(b))
}

// sameState reports where two runs' final architectural states
// differ: registers and every non-stack location either run stored
// to. Flags are left out, since passes may change dead flags.
func sameState(a, b *execution) error {
	for i := range a.state.GPR {
		if !equivalentValue(a.state.GPR[i], b.state.GPR[i]) {
			return fmt.Errorf("GPR %d: %#x vs %#x", i, a.state.GPR[i], b.state.GPR[i])
		}
		if a.state.XMM[i] != b.state.XMM[i] {
			return fmt.Errorf("XMM %d: %#x vs %#x", i, a.state.XMM[i], b.state.XMM[i])
		}
	}
	for _, stores := range []map[uint64]int{a.stores, b.stores} {
		for addr, n := range stores {
			n = min(max(n, a.stores[addr], b.stores[addr]), 8)
			if va, vb := a.state.ReadMem(addr, n), b.state.ReadMem(addr, n); !equivalentValue(va, vb) {
				return fmt.Errorf("memory %#x: %#x vs %#x", addr, va, vb)
			}
		}
	}
	return nil
}

// oracleResult is the verdict over the fixed sample.
type oracleResult struct {
	attempted, failed int
	err               error   // first failure
	speedupPct        float64 // geomean simulated Core-2 cycle reduction
	textBytes         int64   // .text of the returned sample
}

// checkSample sends every sample unit through url and checks each
// answer three ways: it is a 200 optimize response, its assembly
// equals the in-process reference byte for byte, and it ends in the
// same architectural state as the input under the executor. The
// passing answers give the code-quality metrics.
func checkSample(client *http.Client, url string, w workload, sample []*unit) oracleResult {
	type verdict struct {
		err     error
		in, out *execution
	}
	verdicts := make([]verdict, len(sample))
	answers := make([]string, len(sample))
	var res oracleResult
	var buf bytes.Buffer
	for i, u := range sample {
		res.attempted++
		if _, err := post(client, url, u.body, &buf); err != nil {
			verdicts[i].err = err
			continue
		}
		var resp serve.OptimizeResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			verdicts[i].err = fmt.Errorf("unparseable response: %w", err)
			continue
		}
		if w.verify && (len(resp.Verify) == 0 || len(resp.Diags) != 0) {
			verdicts[i].err = fmt.Errorf("verify=1 answer carries %d verdicts and %d diagnostics", len(resp.Verify), len(resp.Diags))
			continue
		}
		answers[i] = resp.Assembly
	}
	// The reference runs and executions are independent per unit; two
	// goroutines halve the wall time on the 2-core machine.
	var wg sync.WaitGroup
	idx := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				u := sample[i]
				entry := bases()[u.base].EntryName()
				v := &verdicts[i]
				want, err := reference(u.name, u.source, w.spec)
				if err != nil {
					v.err = fmt.Errorf("reference: %w", err)
					continue
				}
				if answers[i] != want {
					v.err = fmt.Errorf("assembly differs from the in-process reference")
					continue
				}
				if v.in, err = execute(u.name, u.source, entry); err != nil {
					v.err = fmt.Errorf("executing input: %w", err)
					continue
				}
				if v.out, err = execute(u.name, answers[i], entry); err != nil {
					v.err = fmt.Errorf("executing answer: %w", err)
					continue
				}
				if err := sameState(v.in, v.out); err != nil {
					v.err = fmt.Errorf("answer ends in a different state than the input: %w", err)
				}
			}
		}()
	}
	for i := range sample {
		if verdicts[i].err == nil {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
	var deltas []float64
	for i, v := range verdicts {
		if v.err != nil {
			res.failed++
			if res.err == nil {
				res.err = fmt.Errorf("sample %s: %w", sample[i].name, v.err)
			}
			continue
		}
		deltas = append(deltas, float64(v.in.cycles-v.out.cycles)/float64(v.in.cycles)*100)
		res.textBytes += v.out.textBytes
	}
	res.speedupPct = bench.Geomean(deltas)
	return res
}
