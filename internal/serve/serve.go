// Package serve implements MAOD, the optimization-as-a-service form of
// MAO: a long-lived, stdlib-only HTTP daemon that accepts
// assembly-optimization requests and answers with optimized assembly,
// per-pass statistics and (on request) static-checker diagnostics.
//
// The paper positions MAO as a reusable optimization layer other
// toolchains call into; phase-ordering and profile-guided workloads
// re-optimize the same units over and over with varying pipelines.
// This package gives those callers a server with the properties such
// traffic needs:
//
//   - A bounded worker pool with admission control: at most QueueDepth
//     requests wait for a worker; beyond that the service answers 429
//     with a Retry-After hint instead of collapsing under load.
//   - Per-request deadlines, plumbed as context.Context all the way
//     into pass.Manager — a request canceled or timed out while queued
//     never occupies a worker, and one mid-pipeline aborts between
//     passes/functions.
//   - Batching: requests with the same pass spec arriving within a
//     short window are grouped, so one dispatch serves the whole group
//     and the shared encoding cache stays hot across the batch. Each
//     job still parses the spec into its own pass.Manager. Output is
//     per-request and identical to unbatched execution.
//   - A content-addressed result cache keyed on (source hash, spec,
//     options) with LRU eviction: re-optimizing an unchanged unit with
//     an unchanged pipeline is a cache hit and touches no worker.
//   - An observability plane: /metrics in Prometheus text format
//     (request counts, latency histogram, queue depth, batch sizes,
//     result-cache and RELAXCACHE hit rates, aggregated pass
//     counters), /healthz, /readyz, and structured JSON access logs.
//   - Graceful drain: Close stops admission, finishes every admitted
//     request, and only then returns — zero dropped requests on
//     SIGTERM (cmd/maod wires the signal to Close).
//
// The functional contract is exact: for any source and pass spec, the
// assembly returned by POST /v1/optimize is byte-identical to what
// cmd/mao emits for the same spec (the differential tests pin this,
// including under concurrent load).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/coalesce"
	"mao/internal/memo"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/scope"
	"mao/internal/trace"
	"mao/internal/verify"
)

// Config parameterizes a Server. The zero value selects production
// defaults (see withDefaults).
type Config struct {
	// Workers is the number of pipeline worker goroutines (0 =
	// GOMAXPROCS). Each worker executes one batch at a time.
	Workers int
	// QueueDepth caps the number of admitted-but-unstarted requests;
	// beyond it POST /v1/optimize answers 429 + Retry-After (0 = 64).
	QueueDepth int
	// BatchWindow is how long the first request of a spec waits for
	// same-spec companions before its batch dispatches (0 = 2ms).
	BatchWindow time.Duration
	// BatchMax caps a batch's size; a full batch dispatches
	// immediately (0 = 16).
	BatchMax int
	// ResultCacheEntries caps the content-addressed result cache
	// (0 = 512, negative disables the cache).
	ResultCacheEntries int
	// MemoEntries caps the shared function-granular pipeline memo:
	// a unit whose functions were all optimized before (under the same
	// spec, by any request) skips the pipeline and splices the memoized
	// spans, byte-identical to a cold run (0 = the memo default 65536,
	// negative disables memoization).
	MemoEntries int
	// DisableCoalesce turns off in-flight miss coalescing (concurrent
	// identical misses sharing one pipeline run). On by default: the
	// optimizer is deterministic, so sharing a run is always sound.
	DisableCoalesce bool
	// RelaxNodeEntries / RelaxContentEntries bound the shared
	// relaxation/encoding cache tiers (0 = relax defaults).
	RelaxNodeEntries    int
	RelaxContentEntries int
	// PipelineWorkers is the per-pipeline worker count handed to
	// pass.Manager (mao -j). The default 1 runs each pipeline
	// sequentially: under server load, parallelism across requests
	// beats parallelism within one (0 = 1).
	PipelineWorkers int
	// DefaultDeadline bounds a request that names no deadline_ms
	// (0 = 30s); MaxDeadline caps what a request may ask for
	// (0 = 2m). The deadline covers queueing and execution.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxSourceBytes caps the request body (0 = 16 MiB).
	MaxSourceBytes int64
	// MaxArchiveUnits caps the number of units one archive request may
	// carry (0 = 256).
	MaxArchiveUnits int
	// QuotaRate enables per-client token-bucket quotas: each client
	// (X-Mao-Client header, fallback remote address) accrues QuotaRate
	// tokens per second up to QuotaBurst, and each request consumes
	// one. A client out of tokens is answered 429 + Retry-After
	// BEFORE global admission — it consumes no queue slot, so one hot
	// tenant cannot starve the rest (0 = quotas disabled).
	QuotaRate float64
	// QuotaBurst is the per-client bucket capacity (0 = 16).
	QuotaBurst int
	// AccessLog, when non-nil, receives one JSON line per completed
	// HTTP request.
	AccessLog io.Writer
	// FlightRecords sizes the flight recorder's ring of recently
	// completed requests, served on the debug listener as
	// /debug/scope/{recent,slowest,errors} (0 = 512, negative
	// disables the recorder).
	FlightRecords int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 512
	}
	if c.PipelineWorkers <= 0 {
		c.PipelineWorkers = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 16 << 20
	}
	if c.MaxArchiveUnits <= 0 {
		c.MaxArchiveUnits = 256
	}
	if c.FlightRecords == 0 {
		c.FlightRecords = 512
	}
	return c
}

// job is one admitted optimization request on its way through the
// queue → batcher → worker pipeline.
type job struct {
	req *OptimizeRequest
	key string // content address; "" when the result cache is off
	ctx context.Context
	// flight receives the result; the worker publishes exactly once.
	flight *coalesce.Flight[jobResult]

	// col is the request's span collector, created at admission so its
	// epoch anchors the queue-wait span; admitted is the admission
	// instant as a collector offset.
	col      *trace.Collector
	admitted time.Duration
}

// jobResult is what a worker posts back to the waiting handler.
type jobResult struct {
	resp   *OptimizeResponse
	status int // HTTP status (200, or the error class)
	err    error
	// spans is the request's full span stream (queue → batch →
	// pipeline → ...); the handler projects it into the ?trace=
	// payload and the flight record's pass-latency vector.
	spans []trace.Span
	// queueNS is the admission-to-pickup wait.
	queueNS int64
}

// Server is the MAOD service: construct with New, expose via Handler,
// stop with Close (graceful drain).
type Server struct {
	cfg        Config
	relaxCache *relax.Cache
	results    *resultCache
	memo       *memo.Memo // nil when Config.MemoEntries < 0
	flights    coalesce.Group[jobResult]
	met        *metrics
	quota      *quotas         // nil when Config.QuotaRate == 0
	flight     *scope.Recorder // nil when Config.FlightRecords < 0

	queue   chan *job
	batches chan *batch
	grouper *batcher

	queued   atomic.Int64 // admitted, not yet picked up by a worker
	inflight atomic.Int64 // being executed by a worker

	admitMu   sync.RWMutex
	accepting bool

	draining     atomic.Bool
	dispatchDone chan struct{}
	workerWG     sync.WaitGroup
	closeOnce    sync.Once
	started      time.Time
}

// New builds a Server and starts its dispatcher and worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		relaxCache:   relax.NewCacheLimits(cfg.RelaxNodeEntries, cfg.RelaxContentEntries),
		results:      newResultCache(cfg.ResultCacheEntries),
		met:          newMetrics(),
		quota:        newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		flight:       scope.NewRecorder(cfg.FlightRecords),
		queue:        make(chan *job, cfg.QueueDepth),
		batches:      make(chan *batch, cfg.QueueDepth),
		accepting:    true,
		dispatchDone: make(chan struct{}),
		started:      time.Now(),
	}
	if cfg.MemoEntries >= 0 {
		// Salted exactly like mao.NewMemo: entries never outlive the
		// pass catalog or validator semantics they were filled under.
		s.memo = memo.New(cfg.MemoEntries, pass.CatalogVersion(), check.Version, verify.Version)
	}
	s.grouper = newBatcher(cfg.BatchWindow, cfg.BatchMax, s.batches)
	go s.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether Close has begun (readyz answers 503 then).
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the number of admitted requests not yet picked up
// by a worker.
func (s *Server) QueueDepth() int64 { return s.queued.Load() }

// Close drains the server: admission stops (new optimize requests get
// 503, readyz flips), every batch still waiting out its window is
// flushed, every already-admitted request is executed to completion,
// and the worker pool exits. It is safe to call more than once.
// When fronted by an http.Server, call Close first and Shutdown
// second: Close unblocks the waiting handlers (no admitted job sits
// out its batch timer), and Shutdown then only waits for response
// writes — cmd/maod does exactly that.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.admitMu.Lock()
		s.accepting = false
		s.admitMu.Unlock()
		close(s.queue)
		<-s.dispatchDone
		s.workerWG.Wait()
	})
}

// admit performs admission control. It returns (true, 0) and enqueues
// on success; (false, retryAfter>0) when the queue is full (429); and
// (false, 0) when the server is draining (503).
func (s *Server) admit(j *job) (ok bool, retryAfter int) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if !s.accepting {
		return false, 0
	}
	for {
		n := s.queued.Load()
		if n >= int64(s.cfg.QueueDepth) {
			s.met.queueRejects.Add(1)
			return false, 1
		}
		if s.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	// queued ≥ channel occupancy always (the dispatcher drains the
	// channel before a worker decrements), so this send cannot block.
	s.queue <- j
	return true, 0
}

// dispatch moves admitted jobs into per-spec batches. It owns the
// batches channel: when the queue closes (drain), it flushes every
// pending batch and then closes batches so the workers exit.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for j := range s.queue {
		s.grouper.add(j)
	}
	s.grouper.closeFlush()
	close(s.batches)
}

// worker executes batches until the batches channel closes. Each
// worker owns one relaxation state for its lifetime — a relax.State is
// single-goroutine, and per-worker ownership lets back-to-back jobs
// over similar units reuse fragment partitions without locking.
func (s *Server) worker() {
	defer s.workerWG.Done()
	st := relax.NewState()
	for bt := range s.batches {
		s.runBatch(bt, st)
	}
}

// runBatch executes every job of one same-spec batch, in order, on
// this worker; the shared relaxation cache carries encodings across
// the batch. The spec was validated at admission, and runJob parses it
// again per job: pass.NewManager creates fresh pass instances per
// unit, because passes like SIMADDR accumulate per-run instance state
// and sharing instances across units would cross-contaminate results.
func (s *Server) runBatch(bt *batch, st *relax.State) {
	n := int64(len(bt.jobs))
	s.queued.Add(-n)
	s.inflight.Add(n)
	defer s.inflight.Add(-n)
	s.met.batchesTotal.Add(1)
	s.met.batchJobsTotal.Add(n)
	for _, j := range bt.jobs {
		s.runJob(j, len(bt.jobs), st)
	}
}

// runJob executes one request end to end and posts the result. The
// execution path mirrors cmd/mao exactly — parse, pass.Manager with
// the shared cache, Analyze, emit — so responses are byte-identical
// to the CLI.
func (s *Server) runJob(j *job, batchSize int, st *relax.State) {
	if err := j.ctx.Err(); err != nil {
		j.flight.Publish(jobResult{status: statusForCtx(err), err: err})
		return
	}
	// Every request's pipeline is traced: the collector carries the
	// request's trace ID (X-Request-ID) into the spans, and the
	// invocation spans feed the per-pass latency histograms on /metrics.
	// The handler created the collector at admission, so its epoch
	// anchors the queue-wait span; a missing one (direct runJob callers
	// in tests) is created here with zero queue time.
	col := j.col
	if col == nil {
		col = trace.NewCollector()
		col.TraceID = requestIDFrom(j.ctx)
	}
	// The daemon-side span tree roots at the queue span: admitted →
	// picked up, then the batch span covers this request's execution
	// slot, and the pipeline root (added by pass.Manager) is re-parented
	// under it after the run.
	wait := col.Now() - j.admitted
	s.met.queueWait.Observe(wait.Seconds())
	queueIdx := col.Add(trace.Span{Kind: trace.KindQueue, Start: j.admitted, Dur: wait, Parent: -1})
	batchIdx := col.Add(trace.Span{
		Kind: trace.KindBatch, Start: col.Now(), Parent: queueIdx,
		Stats: map[string]int{"jobs": batchSize},
	})
	finish := func(res jobResult) {
		col.Update(batchIdx, func(sp *trace.Span) { sp.Dur = col.Now() - sp.Start })
		res.spans = col.Spans()
		res.queueNS = int64(wait)
		s.met.observePassSpans(res.spans)
		j.flight.Publish(res)
	}
	u, err := asm.ParseString(j.req.unitName(), j.req.Source)
	if err != nil {
		finish(jobResult{status: 422, err: err})
		return
	}
	mgr, err := pass.NewManager(j.req.Spec)
	if err != nil {
		// Unreachable for admitted jobs (the handler validated the
		// spec), but kept as defense in depth.
		finish(jobResult{status: 400, err: err})
		return
	}
	mgr.Workers = s.cfg.PipelineWorkers
	mgr.Cache = s.relaxCache
	mgr.RelaxState = st
	mgr.Tracer = col
	// The shared pipeline memo makes repeat content O(splice). Verified
	// runs install a Hook (the manager disables memoization under one —
	// the certifier must observe every invocation); traced runs bypass
	// so ?trace= always describes a full execution (its span tree is
	// pinned byte-identical across worker counts by the differential
	// suite, and a memo hit has no invocation spans to offer).
	if s.memo != nil && !j.req.Options.Verify && j.req.Options.Trace == "" {
		mgr.Memo = s.memo
	}
	var vcert *verify.Certifier
	if j.req.Options.Verify {
		vcert = &verify.Certifier{Tracer: col, SpanParent: batchIdx + 1}
		mgr.Hook = vcert
	}
	stats, err := mgr.RunContext(j.ctx, u)
	// pass.Manager added its pipeline root right after the batch span
	// with Parent -1; stitch it under the batch span.
	col.Update(batchIdx+1, func(sp *trace.Span) {
		if sp.Kind == trace.KindPipeline {
			sp.Parent = batchIdx
		}
	})
	if err != nil {
		finish(jobResult{status: statusForRun(err), err: err})
		return
	}
	if err := u.Analyze(); err != nil {
		finish(jobResult{status: 422, err: err})
		return
	}
	resp := &OptimizeResponse{
		Assembly:  u.String(),
		Stats:     stats.Map(),
		BatchSize: batchSize,
	}
	if j.req.Options.Explain {
		resp.Lineage = trace.Lineage(u)
	}
	if j.req.Options.Check {
		resp.Diags = check.CheckUnit(u)
		if resp.Diags == nil {
			resp.Diags = []check.Diag{}
		}
	}
	if vcert != nil {
		resp.Verify = verifyVerdicts(vcert)
		for _, v := range vcert.Violations {
			d := v.Diag
			if d.Origin == "" {
				d.Origin = fmt.Sprintf("%s[%d]", v.Pass, v.Index)
			}
			resp.Diags = append(resp.Diags, d)
			s.met.verifyRefutations.Add(1)
		}
		check.Sort(resp.Diags)
	}
	s.met.mergePassStats(stats)
	s.results.put(j.key, resp)
	finish(jobResult{resp: resp, status: 200})
}

// verifyVerdicts projects the certifier's per-invocation results onto
// the response schema.
func verifyVerdicts(vcert *verify.Certifier) []VerifyVerdict {
	out := make([]VerifyVerdict, 0, len(vcert.Invocations))
	for _, inv := range vcert.Invocations {
		v := VerifyVerdict{
			Pass:     inv.Pass,
			Index:    inv.Index,
			Statuses: make(map[string]int),
			DurMS:    float64(inv.Dur) / float64(time.Millisecond),
		}
		for st, n := range inv.Result.Counts() {
			v.Statuses[string(st)] = n
		}
		for _, fr := range inv.Result.Refuted() {
			v.Refuted = append(v.Refuted, fr.Func)
		}
		out = append(out, v)
	}
	return out
}

// statusForCtx maps a context error to the HTTP status the handler
// reports: 504 for an expired deadline, 503 for a canceled request.
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return 504
	}
	return 503
}

// statusForRun classifies a pipeline error: context errors keep their
// timeout/cancel status, everything else is an unprocessable unit.
func statusForRun(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return statusForCtx(err)
	}
	return 422
}
