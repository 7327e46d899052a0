package main

// Process-level measurements: CPU time from getrusage, allocator and
// GC figures from runtime/metrics, and the service's own counters and
// histograms scraped from its /metrics endpoint.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the runtime's allocator and
// GC counters.
type procSnap struct {
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU spent in GC (runtime estimate)
	totalCPU   float64 // seconds of CPU available to the Go runtime (estimate)
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapProc() procSnap {
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSnap{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is one stretch of a measured phase: its wall time, the CPU
// the process spent in it, and the ops it completed.
type window struct {
	wall, cpu time.Duration
	ops       int
}

// windowClock cuts a phase into windows.
type windowClock struct {
	t   time.Time
	cpu time.Duration
	ops int
}

func newWindowClock(start time.Time) *windowClock {
	return &windowClock{t: start, cpu: cpuTime()}
}

// close ends the current window at ops completed ops and opens the next.
func (c *windowClock) close(ops int) window {
	now, cpu := time.Now(), cpuTime()
	w := window{wall: now.Sub(c.t), cpu: cpu - c.cpu, ops: ops - c.ops}
	c.t, c.cpu, c.ops = now, cpu, ops
	return w
}

// medianRate is the median over windows of ops per second: a burst of
// outside load that stalls a few windows does not move it.
func medianRate(ws []window) float64 {
	r := make([]float64, len(ws))
	for i, w := range ws {
		r[i] = float64(w.ops) / w.wall.Seconds()
	}
	return median(r)
}

// medianCPUPerOp is the median over windows of CPU µs per op.
func medianCPUPerOp(ws []window) float64 {
	r := make([]float64, len(ws))
	for i, w := range ws {
		r[i] = float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.ops)
	}
	return median(r)
}

// procDelta is the change between two snapshots.
type procDelta struct {
	allocObjs, allocBytes uint64
	gcCycles              uint64
	gcShare               float64
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{
		allocObjs:  b.allocObjs - a.allocObjs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// liveHeapMB forces a GC and returns the heap it found live, in MB.
// It collects twice: the first collection only moves sync.Pool caches
// to their victim lists, the second drops them, so pooled scratch does
// not count as live.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// promSnap maps each exposed series ("name{labels}") to its value.
type promSnap map[string]float64

// scrape reads the server's /metrics exposition.
func scrape(c *http.Client, base string) (promSnap, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm parses the Prometheus text format: comment lines are
// skipped, every other line is "series value".
func parseProm(r io.Reader) (promSnap, error) {
	out := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns b[series] - a[series]; a series missing from either
// side reads as zero (counters with no observations yet).
func (b promSnap) delta(a promSnap, series string) float64 {
	return b[series] - a[series]
}
