// Package coalesce shares one in-flight run among every concurrent
// caller that asks for the same key — the miss coalescing of maod
// (identical misses share one pipeline run) and of maorouter
// (identical optimize requests share one shard forward).
//
// A Flight is one run. The caller that creates it — the leader — must
// drive the run and Publish exactly once, on every path (success,
// refusal, drain), so no waiter can hang on a run that died silently.
// Everyone else waits on Done. The run is detached from any single
// waiter: each participant still waiting is counted, one waiter
// leaving never aborts the run for the others, and only the LAST one
// to Leave before the publish cancels it — nobody is left to consume
// the result. A left or published flight is unmapped, so later
// arrivals start fresh instead of adopting a finished or doomed run.
//
// Requests that must not share a run (a fresh run was asked for, or
// the answer is unique to the request) take a Solo flight: the same
// protocol with the caller as leader and only waiter, registered
// nowhere, so leaving cancels the run just as the client's own context
// would.
package coalesce

import (
	"context"
	"sync"
)

// Group indexes in-flight runs by key. The zero value is ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*Flight[T]
}

// Flight is one shared run. Its result is valid once Done is closed.
type Flight[T any] struct {
	g    *Group[T]
	key  string
	done chan struct{}
	res  T

	// Guarded by g.mu.
	refs      int
	published bool
	cancel    context.CancelFunc
}

// Join returns the in-flight run for key, creating one when absent.
// The second result reports leadership.
func (g *Group[T]) Join(key string) (*Flight[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.refs++
		return f, false
	}
	if g.m == nil {
		g.m = make(map[string]*Flight[T])
	}
	f := &Flight[T]{g: g, key: key, done: make(chan struct{}), refs: 1}
	g.m[key] = f
	return f, true
}

// Solo returns a run nobody else can join; its caller leads it.
func (g *Group[T]) Solo() *Flight[T] {
	return &Flight[T]{g: g, done: make(chan struct{}), refs: 1}
}

// SetCancel installs the run's cancel func. Leader only, before the
// run starts — so by the time any follower can observe a flight worth
// canceling, the func is in place.
func (f *Flight[T]) SetCancel(cancel context.CancelFunc) {
	f.g.mu.Lock()
	f.cancel = cancel
	f.g.mu.Unlock()
}

// Publish posts the result, wakes every waiter and retires the flight.
// Exactly one Publish per flight.
func (f *Flight[T]) Publish(res T) {
	g := f.g
	g.mu.Lock()
	f.res = res
	f.published = true
	g.unmapLocked(f)
	cancel := f.cancel
	g.mu.Unlock()
	close(f.done)
	if cancel != nil {
		cancel() // release the detached run context's deadline timer
	}
}

// Leave drops one waiter before the publish (its own request died).
// The last waiter out cancels the run and unmaps the flight. A
// canceled run still publishes, to no one.
func (f *Flight[T]) Leave() {
	g := f.g
	g.mu.Lock()
	f.refs--
	var cancel context.CancelFunc
	if f.refs == 0 && !f.published {
		g.unmapLocked(f)
		cancel = f.cancel
	}
	g.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done is closed once the result is published.
func (f *Flight[T]) Done() <-chan struct{} { return f.done }

// Result returns the published result; call it only after Done is
// closed.
func (f *Flight[T]) Result() T { return f.res }

// unmapLocked removes f from the index if it is still the entry for
// its key (solo flights never are).
func (g *Group[T]) unmapLocked(f *Flight[T]) {
	if g.m[f.key] == f {
		delete(g.m, f.key)
	}
}
