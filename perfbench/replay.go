package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"mao/internal/asm"
	"mao/internal/cachekey"
	"mao/internal/check"
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/pass"
	"mao/internal/relax"
	"mao/internal/serve"
	"mao/internal/trace"
	"mao/internal/verify"
)

// The traced replay re-runs a prefix of a workload's timed requests in
// process, calling each layer's public entry points in the order a
// maod worker does and recording one span per call. Nothing inside the
// program is instrumented: every span starts and ends in this file.

// span is one timed call of the replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the replay's start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a unit root
	Unit   int    `json:"unit"`   // request index the span belongs to
}

// tracer records spans; a tracer that is off records nothing, so the
// same replay code measures the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	unit  int
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Unit: t.unit})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// allocs reads the process's cumulative heap allocation count.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayer holds the state one maod worker would: the memo, the
// relaxation cache and a relaxation state.
type replayer struct {
	memo    *memo.Memo // nil when requests bypass the memo
	local   bool       // memo keys per function (warmSpec)
	cache   *relax.Cache
	state   *relax.State
	results map[string]*serve.OptimizeResponse // hot-fleet: the result cache
	t       *tracer

	// Counted during traced replays only.
	parseAllocs, pipelineAllocs []float64
	parsedBytes                 int
	nonproved                   int
}

func newReplayer(w workload, traced bool) *replayer {
	r := &replayer{cache: relax.NewCache(), state: relax.NewState(), t: &tracer{on: traced}}
	if !w.verify {
		r.memo = memo.New(0, pass.CatalogVersion(), check.Version, verify.Version)
		r.local = w.spec == warmSpec
	}
	return r
}

// timedHook runs the translation validator around every pass
// invocation, one verify.certify span per call.
type timedHook struct {
	cert   *verify.Certifier
	t      *tracer
	parent int
}

func (h *timedHook) BeforePass(u *ir.Unit, name string, index int) error {
	sp := h.t.begin("verify.certify", h.parent)
	defer h.t.end(sp)
	return h.cert.BeforePass(u, name, index)
}

func (h *timedHook) AfterPass(u *ir.Unit, name string, index int) error {
	sp := h.t.begin("verify.certify", h.parent)
	defer h.t.end(sp)
	return h.cert.AfterPass(u, name, index)
}

// decodeRequest reads a request body the way maod does: strict JSON.
func decodeRequest(body []byte) (*serve.OptimizeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// encodeResponse renders a response the way maod does.
func encodeResponse(resp *serve.OptimizeResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(resp)
	return buf.Bytes(), err
}

// one replays request id.
func (r *replayer) one(id int, body []byte) error {
	t := r.t
	t.unit = id
	root := t.begin("unit", -1)
	defer t.end(root)

	sp := t.begin("serve.decode", root)
	req, err := decodeRequest(body)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("cachekey.key", root)
	key := cachekey.Key(cachekey.Request{Name: req.Name, Source: req.Source, Spec: req.Spec, Verify: req.Options.Verify})
	t.end(sp)

	if r.results != nil {
		resp, ok := r.results[key]
		if !ok {
			return fmt.Errorf("%s: not in the result cache", req.Name)
		}
		cached := *resp
		cached.Cached, cached.BatchSize = true, 0
		sp = t.begin("serve.encode", root)
		_, err := encodeResponse(&cached)
		t.end(sp)
		return err
	}

	resp, err := r.optimize(req, root)
	if err != nil {
		return err
	}
	sp = t.begin("serve.encode", root)
	_, err = encodeResponse(resp)
	t.end(sp)
	return err
}

// optimize is a maod worker's job: parse, memo, passes, emit.
func (r *replayer) optimize(req *serve.OptimizeRequest, root int) (*serve.OptimizeResponse, error) {
	t := r.t
	sp := t.begin("asm.parse", root)
	a0 := allocs()
	u, err := asm.ParseString(req.Name, req.Source)
	if t.on {
		r.parseAllocs = append(r.parseAllocs, float64(allocs()-a0))
		r.parsedBytes += len(req.Source)
	}
	t.end(sp)
	if err != nil {
		return nil, err
	}

	var plan *memo.Plan
	var hit *memo.Hit
	if r.memo != nil {
		sp = t.begin("memo.plan", root)
		plan = r.memo.NewPlan(u, req.Spec, r.local)
		t.end(sp)
		sp = t.begin("memo.lookup", root)
		hit, _ = r.memo.Lookup(plan)
		t.end(sp)
	}
	stats := pass.NewStats()
	var cert *verify.Certifier
	if hit != nil {
		sp = t.begin("memo.splice", root)
		n, err := hit.Splice(u)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		stats.Add("MEMO", "functions", plan.Functions())
		stats.Add("MEMO", "spliced", n)
	} else {
		mgr, err := pass.NewManager(req.Spec)
		if err != nil {
			return nil, err
		}
		mgr.Workers = 1
		mgr.Cache = r.cache
		mgr.RelaxState = r.state
		sp = t.begin("pass.pipeline", root)
		if req.Options.Verify {
			cert = &verify.Certifier{}
			mgr.Hook = &timedHook{cert: cert, t: t, parent: sp}
		}
		var col *trace.Collector
		if t.on {
			col = trace.NewCollector()
			mgr.Tracer = col
		}
		a0 := allocs()
		stats, err = mgr.Run(u)
		if t.on {
			r.pipelineAllocs = append(r.pipelineAllocs, float64(allocs()-a0))
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
		// The manager's own invocation spans give each pass's time.
		for _, s := range col.Spans() {
			if s.Kind != trace.KindInvocation {
				continue
			}
			start := int64(col.Epoch().Sub(t.epoch) + s.Start)
			t.spans = append(t.spans, span{Name: "pass." + s.Ref.Pass, Start: start, End: start + int64(s.Dur), Parent: sp, Unit: t.unit})
		}
		if plan != nil {
			sp = t.begin("memo.fill", root)
			r.memo.Fill(plan, u)
			t.end(sp)
		}
	}
	sp = t.begin("ir.analyze", root)
	err = u.Analyze()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("ir.emit", root)
	text := u.String()
	t.end(sp)

	resp := &serve.OptimizeResponse{Assembly: text, Stats: stats.Map(), BatchSize: 1}
	if cert != nil {
		for _, inv := range cert.Invocations {
			v := serve.VerifyVerdict{Pass: inv.Pass, Index: inv.Index, Statuses: map[string]int{},
				DurMS: ms(inv.Dur)}
			for st, n := range inv.Result.Counts() {
				v.Statuses[string(st)] = n
				if st != verify.StatusProved && t.on {
					r.nonproved += n
				}
			}
			resp.Verify = append(resp.Verify, v)
		}
	}
	return resp, nil
}

// prefill brings a replayer to the state set-up leaves a server in.
func (r *replayer) prefill(w workload, in *inputs) error {
	if w.name != "warm-rebuild" {
		return nil
	}
	on := r.t.on
	r.t.on = false
	defer func() { r.t.on = on }()
	for i, u := range in.warmup {
		if err := r.one(i, u.body); err != nil {
			return err
		}
	}
	return nil
}

// replayCount is how many timed requests each workload replays. The
// fresh workloads replay whole rounds of the 19 bases, so the replay
// carries every SPEC-like shape in the timed traffic's proportion.
var replayCount = map[string]int{"cold-fresh": 76, "warm-rebuild": 128, "hot-fleet": 512, "verify-fresh": 38}

// layerNames are the spans whose per-unit self times count as measured
// work when serve.unattributed_ms is derived.
var layerNames = []string{
	"serve.decode", "cachekey.key", "asm.parse", "memo.plan", "memo.lookup", "memo.splice",
	"pass.pipeline", "verify.certify", "memo.fill", "ir.analyze", "ir.emit", "serve.encode",
}

// replayReport is what the traced replay measured.
type replayReport struct {
	units       int
	layerMS     map[string]float64 // median per-unit self time of each span name, over units that ran it
	totalMS     map[string]float64 // summed self time of each span name over the replay
	parseMBps   float64
	parseAllocs float64
	passAllocs  float64
	nonproved   int
	overheadMS  float64 // per unit, traced minus untraced
}

// replay replays the first replayCount timed requests: once untraced to
// warm the process up, then untraced and traced alternately twice. The
// last traced replay gives the layer figures and the span file; the
// alternating pairs give the tracing overhead.
func replay(w workload, in *inputs, spansPath string) (*replayReport, error) {
	n := min(replayCount[w.name], len(in.timed))
	var results map[string]*serve.OptimizeResponse
	if w.name == "hot-fleet" {
		// The result cache holds the pool, exactly as set-up left the
		// shards; filling it is not part of the replay.
		results = map[string]*serve.OptimizeResponse{}
		r := newReplayer(w, false)
		for _, u := range in.warmup {
			req, err := decodeRequest(u.body)
			if err != nil {
				return nil, err
			}
			resp, err := r.optimize(req, -1)
			if err != nil {
				return nil, err
			}
			results[cachekey.Key(cachekey.Request{Name: req.Name, Source: req.Source, Spec: req.Spec})] = resp
		}
	}
	var untracedWall, tracedWall time.Duration
	var traced *replayer
	for k, on := range []bool{false, false, true, false, true} {
		r := newReplayer(w, on)
		r.results = results
		if err := r.prefill(w, in); err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
		runtime.GC()
		r.t.epoch = time.Now()
		for i := 0; i < n; i++ {
			if err := r.one(i, in.timed[i].body); err != nil {
				return nil, fmt.Errorf("replay of %s: %w", in.timed[i].name, err)
			}
		}
		switch {
		case on:
			tracedWall += time.Since(r.t.epoch)
			traced = r
		case k > 0: // pass 0 only warms the process up
			untracedWall += time.Since(r.t.epoch)
		}
	}
	if err := writeSpans(spansPath, traced.t.spans); err != nil {
		return nil, err
	}
	rep := &replayReport{
		units:       n,
		layerMS:     map[string]float64{},
		totalMS:     map[string]float64{},
		parseAllocs: median(traced.parseAllocs),
		passAllocs:  median(traced.pipelineAllocs),
		nonproved:   traced.nonproved,
		overheadMS:  ms(tracedWall-untracedWall) / 2 / float64(n),
	}
	// Per unit and span name: total self time. The only nested layer
	// spans are the verifier's inside the pipeline, so the pipeline's
	// self time is its duration minus theirs.
	perUnit := map[string]map[int]float64{}
	spans := traced.t.spans
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		if s.Name == "verify.certify" {
			perUnit["pass.pipeline"][s.Unit] -= d
		}
		if perUnit[s.Name] == nil {
			perUnit[s.Name] = map[int]float64{}
		}
		perUnit[s.Name][s.Unit] += d
	}
	for name, byUnit := range perUnit {
		vals := make([]float64, 0, len(byUnit))
		for _, v := range byUnit {
			vals = append(vals, v)
			rep.totalMS[name] += v
		}
		rep.layerMS[name] = median(vals)
	}
	if parseMS := rep.totalMS["asm.parse"]; parseMS > 0 {
		rep.parseMBps = float64(traced.parsedBytes) / 1e6 / (parseMS / 1e3)
	}
	return rep, nil
}

// attributedMS is the mean per-unit time the replay attributes to
// layers. It is compared against cpu_ms_per_unit, a mean, so it sums
// layer means: a median would drop the heavy tail of a layer such as
// the verifier, whose cost is concentrated in a few units.
func (rep *replayReport) attributedMS() float64 {
	var sum float64
	for _, name := range layerNames {
		sum += rep.totalMS[name]
	}
	return sum / float64(rep.units)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
