package coalesce

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestJoinSharesOneFlight(t *testing.T) {
	var g Group[int]
	f, leader := g.Join("k")
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	f2, leader2 := g.Join("k")
	if leader2 || f2 != f {
		t.Fatal("second Join did not share the first flight")
	}
	if _, other := g.Join("other"); !other {
		t.Error("a different key joined an unrelated flight")
	}
	f.Publish(7)
	<-f2.Done()
	if got := f2.Result(); got != 7 {
		t.Errorf("follower result = %d, want 7", got)
	}
	// A published flight is retired: the next arrival leads afresh.
	if f3, leader := g.Join("k"); !leader || f3 == f {
		t.Error("Join after Publish adopted the retired flight")
	}
}

func TestSoloIsNeverJoined(t *testing.T) {
	var g Group[int]
	s := g.Solo()
	if f, leader := g.Join(""); !leader || f == s {
		t.Error("a solo flight was joinable")
	}
	s.Publish(1)
	<-s.Done()
}

// TestLastLeaverCancels: one waiter leaving keeps the run alive; the
// last one out cancels it and unmaps the flight.
func TestLastLeaverCancels(t *testing.T) {
	var g Group[int]
	ctx, cancel := context.WithCancel(context.Background())
	f, _ := g.Join("k")
	f.SetCancel(cancel)
	g.Join("k")
	f.Leave()
	if ctx.Err() != nil {
		t.Fatal("run canceled while a waiter remained")
	}
	f.Leave()
	if ctx.Err() == nil {
		t.Fatal("last waiter leaving did not cancel the run")
	}
	if _, leader := g.Join("k"); !leader {
		t.Error("a later arrival adopted the abandoned flight")
	}
	f.Publish(0) // the canceled run still publishes, to no one
}

// TestSoloLeaveCancels: a solo flight's only waiter leaving cancels
// its run, as the client's own context would.
func TestSoloLeaveCancels(t *testing.T) {
	var g Group[int]
	ctx, cancel := context.WithCancel(context.Background())
	s := g.Solo()
	s.SetCancel(cancel)
	s.Leave()
	if ctx.Err() == nil {
		t.Error("solo Leave did not cancel the run")
	}
}

// TestConcurrentJoinLeavePublish: many goroutines race Join, Leave and
// Publish over a few keys (run under -race); every waiter that stays
// receives its leader's result.
func TestConcurrentJoinLeavePublish(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprint(i % 4)
			f, leader := g.Join(key)
			if leader {
				f.SetCancel(func() {})
				go f.Publish(key)
			}
			if !leader && i%3 == 0 {
				f.Leave()
				return
			}
			<-f.Done()
			if got := f.Result(); got != key {
				t.Errorf("waiter on %q got %q", key, got)
			}
		}(i)
	}
	wg.Wait()
}
