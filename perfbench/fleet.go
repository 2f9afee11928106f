package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mao/internal/scope"
)

// proc is one server process of the fleet under test.
type proc struct {
	cmd     *exec.Cmd
	url     string        // http://host:port
	drained chan struct{} // closed once stderr hits EOF (the process exited)
}

// startProc launches bin with args and waits for its "listening on"
// log line. The child is killed if the benchmark itself dies.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Server logs (access logs included) are read and dropped, so a
		// full pipe never stalls the server.
		defer close(p.drained)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadString('\n')
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrc <- strings.Fields(addr)[0]
				break
			}
			if err != nil {
				close(addrc)
				return
			}
		}
		io.Copy(io.Discard, r)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
		}
		p.url = "http://" + addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s", filepath.Base(bin))
	}
	return p, nil
}

// stop drains the process with SIGTERM (SIGKILL after 15s) and waits
// for it to exit.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	p.cmd.Wait() // exit status is irrelevant once the run's numbers are taken
}

// procStat reads the process's CPU time (user+system) and its peak
// resident set (VmHWM) from /proc.
func (p *proc) procStat() (cpu time.Duration, hwmKiB int64, err error) {
	pid := p.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, l := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			hwmKiB, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return cpu, hwmKiB, err
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	shards []*proc
	router *proc // nil without a router
}

// startFleet starts n maod shards with production defaults, and a
// maorouter in front of them when routed is set.
func startFleet(binDir string, n int, routed bool) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		p, err := startProc(filepath.Join(binDir, "maod"), "-addr", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, p)
		urls = append(urls, p.url)
	}
	if routed {
		p, err := startProc(filepath.Join(binDir, "maorouter"), "-addr", "127.0.0.1:0", "-shards", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.router = p
	}
	for _, p := range f.procs() {
		if err := waitReady(p.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// procs lists every process, router last.
func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.shards
	}
	return append(append([]*proc(nil), f.shards...), f.router)
}

// target is the URL the load generator talks to.
func (f *fleet) target() string {
	if f.router != nil {
		return f.router.url
	}
	return f.shards[0].url
}

// stop stops every process; stopping a stopped fleet is a no-op.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
	f.shards, f.router = nil, nil
}

// usage reports the fleet's CPU time, summed over its processes, and
// its peak resident set, summing VmHWM.
func (f *fleet) usage() (cpu time.Duration, hwmMiB float64, err error) {
	for _, p := range f.procs() {
		c, h, err := p.procStat()
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		hwmMiB += float64(h) / 1024
	}
	return cpu, hwmMiB, nil
}

func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s", url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func scrape(url string) (scope.Metrics, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	m, err := scope.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return m, nil
}

// fleetScrape is one scrape of every process of the fleet.
type fleetScrape struct {
	shards []scope.Metrics
	router scope.Metrics // nil without a router
}

func (f *fleet) scrape() (*fleetScrape, error) {
	out := &fleetScrape{}
	for _, p := range f.shards {
		s, err := scrape(p.url)
		if err != nil {
			return nil, err
		}
		out.shards = append(out.shards, s)
	}
	if f.router != nil {
		s, err := scrape(f.router.url)
		if err != nil {
			return nil, err
		}
		out.router = s
	}
	return out, nil
}

// counters reads series from the scrapes taken before and after the
// timed phase. A series missing from a page it is read from is an
// error, reported by err: read as 0, a renamed series would pass the
// zero-hit self-checks and print as a plausible per-layer figure.
type counters struct {
	before, after *fleetScrape
	missing       map[string]bool
}

func newCounters(before, after *fleetScrape) *counters {
	return &counters{before: before, after: after, missing: map[string]bool{}}
}

func (c *counters) value(m scope.Metrics, series string) float64 {
	v, ok := m.Value(series)
	if !ok {
		c.missing[series] = true
	}
	return v
}

// level sums a series over the shards, as the second scrape has it.
func (c *counters) level(series string) float64 {
	var v float64
	for _, sh := range c.after.shards {
		v += c.value(sh, series)
	}
	return v
}

// delta is the change of a series, summed over the shards, between
// the two scrapes.
func (c *counters) delta(series string) float64 {
	v := c.level(series)
	for _, sh := range c.before.shards {
		v -= c.value(sh, series)
	}
	return v
}

// routerDelta is the change of a router series between the two
// scrapes; 0 when the fleet has no router.
func (c *counters) routerDelta(series string) float64 {
	if c.after.router == nil {
		return 0
	}
	return c.value(c.after.router, series) - c.value(c.before.router, series)
}

// err names every series that was read but missing.
func (c *counters) err() error {
	if len(c.missing) == 0 {
		return nil
	}
	return fmt.Errorf("missing from /metrics: %s", strings.Join(slices.Sorted(maps.Keys(c.missing)), ", "))
}
