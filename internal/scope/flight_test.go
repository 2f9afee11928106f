package scope

import (
	"fmt"
	"sync"
	"testing"
)

func fill(rec *FlightRecord, durNS int64, status int, errStr string) {
	rec.TimeUnixNS = 1
	rec.TraceID = "t"
	rec.Client = "c"
	rec.Path = "/v1/optimize"
	rec.Cache = "miss"
	rec.Status = status
	rec.Err = errStr
	rec.DurNS = durNS
	rec.Passes = append(rec.Passes, PassNS{Pass: "REDTEST[0]", DurNS: durNS / 2})
}

func TestRecorderRecentNewestFirst(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 10; i++ {
		rec, h := r.Acquire()
		fill(rec, int64(i+1), 200, "")
		r.Commit(rec, h)
	}
	recent := r.Recent()
	if len(recent) != 10 {
		t.Fatalf("len = %d", len(recent))
	}
	for i, rec := range recent {
		if rec.Seq != uint64(9-i) {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, rec.Seq, 9-i)
		}
	}
	// Overflow the ring: only the newest 16 survive.
	for i := 10; i < 40; i++ {
		rec, h := r.Acquire()
		fill(rec, int64(i+1), 200, "")
		r.Commit(rec, h)
	}
	recent = r.Recent()
	if len(recent) != 16 {
		t.Fatalf("post-wrap len = %d", len(recent))
	}
	if recent[0].Seq != 39 || recent[15].Seq != 24 {
		t.Fatalf("post-wrap range: %d..%d", recent[0].Seq, recent[15].Seq)
	}
	if len(recent[0].Passes) != 1 || recent[0].Passes[0].Pass != "REDTEST[0]" {
		t.Fatalf("passes lost: %+v", recent[0].Passes)
	}
}

func TestRecorderSlowestReservoir(t *testing.T) {
	r := NewRecorder(16)
	// 100 requests with distinct durations; the reservoir must retain
	// the top slowCap.
	for i := 1; i <= 100; i++ {
		rec, h := r.Acquire()
		fill(rec, int64(i), 200, "")
		r.Commit(rec, h)
	}
	slow := r.Slowest()
	if len(slow) != slowCap {
		t.Fatalf("len = %d, want %d", len(slow), slowCap)
	}
	for i, rec := range slow {
		want := int64(100 - i)
		if rec.DurNS != want {
			t.Fatalf("slowest[%d].DurNS = %d, want %d", i, rec.DurNS, want)
		}
	}
}

func TestRecorderErrors(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 5; i++ {
		rec, h := r.Acquire()
		fill(rec, 10, 200, "")
		r.Commit(rec, h)
	}
	for i := 0; i < 3; i++ {
		rec, h := r.Acquire()
		fill(rec, 10, 500, fmt.Sprintf("boom %d", i))
		r.Commit(rec, h)
	}
	errs, seen := r.Errors()
	if seen != 3 || len(errs) != 3 {
		t.Fatalf("seen=%d len=%d", seen, len(errs))
	}
	if errs[0].Err != "boom 2" || errs[2].Err != "boom 0" {
		t.Fatalf("order: %q .. %q", errs[0].Err, errs[2].Err)
	}
	// Status >= 400 without an Err string also counts.
	rec, h := r.Acquire()
	fill(rec, 10, 404, "")
	r.Commit(rec, h)
	_, seen = r.Errors()
	if seen != 4 {
		t.Fatalf("seen = %d", seen)
	}
	// Overflow the error ring; the count keeps the truth.
	for i := 0; i < errCap+10; i++ {
		rec, h := r.Acquire()
		fill(rec, 10, 500, "x")
		r.Commit(rec, h)
	}
	errs, seen = r.Errors()
	if len(errs) != errCap || seen != uint64(4+errCap+10) {
		t.Fatalf("post-wrap len=%d seen=%d", len(errs), seen)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	rec, h := r.Acquire()
	if rec != nil {
		t.Fatal("nil recorder returned a record")
	}
	r.Commit(rec, h)
	if r.Recent() != nil || r.Slowest() != nil {
		t.Fatal("nil recorder returned records")
	}
	if errs, seen := r.Errors(); errs != nil || seen != 0 {
		t.Fatal("nil recorder returned errors")
	}
}

// TestRecorderHotPathZeroAlloc pins the acceptance criterion: once the
// ring is warm, Acquire + fill + Commit performs zero heap
// allocations.
func TestRecorderHotPathZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	// Warm-up: write every slot once (slot Passes slices get capacity)
	// and saturate the slowest reservoir so maybeSlow stays on its
	// atomic fast path.
	for i := 0; i < 256; i++ {
		rec, h := r.Acquire()
		fill(rec, 1_000_000_000, 200, "")
		r.Commit(rec, h)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rec, h := r.Acquire()
		fill(rec, 5, 200, "") // faster than the reservoir floor
		r.Commit(rec, h)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %v allocs/op", allocs)
	}
}

// TestRecorderRecentSkipsUnwrittenSlot: a sequence number handed out
// to a writer that has not claimed its slot yet must not surface as an
// all-zero record 0.
func TestRecorderRecentSkipsUnwrittenSlot(t *testing.T) {
	r := NewRecorder(16)
	r.next.Add(1) // a writer took sequence 0 but has not claimed its slot
	if recs := r.Recent(); len(recs) != 0 {
		t.Errorf("Recent returned %d records before any write: %+v", len(recs), recs)
	}
}

// TestRecorderConcurrent exercises writers racing readers; run under
// -race this validates the claim protocol.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(32)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, h := r.Acquire()
				fill(rec, int64(i%1000+1), 200+(i%2)*300, "")
				r.Commit(rec, h)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				for _, rec := range r.Recent() {
					if rec.DurNS < 1 || rec.DurNS > 1000 {
						t.Errorf("torn read: %+v", rec)
						return
					}
					if len(rec.Passes) != 1 {
						t.Errorf("torn passes: %+v", rec)
						return
					}
				}
				r.Slowest()
				r.Errors()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
