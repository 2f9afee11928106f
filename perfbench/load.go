package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the closed loop's connection count: one per core of the
// 2-core machine the benchmark was sized on. Callers are build steps
// that wait for their answer, so each connection sends its next
// request only when the previous one returned.
const conns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// loadResult is the outcome of one closed-loop phase.
type loadResult struct {
	lat    []time.Duration // per request, in request order; failures included
	wall   time.Duration
	failed int
	err    error // first failure
}

// loader sends requests to one fleet and remembers a checksum of the
// answer to every unit it sent, across calls.
type loader struct {
	client *http.Client
	url    string
	mu     sync.Mutex
	seen   map[*unit]uint32
}

func newLoader(client *http.Client, url string) *loader {
	return &loader{client: client, url: url, seen: map[*unit]uint32{}}
}

// closedLoop sends every unit's pre-encoded body over conns
// connections. A non-200 answer, a body that is not an optimize
// response, or an answer that differs from an earlier answer to the
// same unit counts as failed.
func (l *loader) closedLoop(units []*unit) loadResult {
	res := loadResult{lat: make([]time.Duration, len(units))}
	var (
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	fail := func(err error) {
		if failed.Add(1) == 1 {
			l.mu.Lock()
			res.err = err
			l.mu.Unlock()
		}
	}
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(units) {
					return
				}
				u := units[i]
				t0 := time.Now()
				_, err := post(l.client, l.url, u.body, &buf)
				res.lat[i] = time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("%s: %w", u.name, err))
					continue
				}
				sum := crc32.ChecksumIEEE(buf.Bytes())
				l.mu.Lock()
				prev, ok := l.seen[u]
				if !ok {
					l.seen[u] = sum
				}
				l.mu.Unlock()
				if ok && prev != sum {
					fail(fmt.Errorf("%s: answer differs from an earlier answer to the same request", u.name))
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.failed = int(failed.Load())
	return res
}

// post sends one optimize request and leaves the answer in buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (http.Header, error) {
	resp, err := client.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(`{"assembly":`)) {
		return nil, fmt.Errorf("not an optimize response: %.200s", buf.Bytes())
	}
	return resp.Header, nil
}

// quantile returns the q-quantile of sorted by the nearest-rank rule,
// and how many samples lie strictly above it.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float samples (mean of the middle two for even counts);
// 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
