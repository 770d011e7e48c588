package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM), so the peak
// read at the end is the program's own, not the input generator's.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runtimeSample holds the cumulative counters the per-layer metrics
// difference: bytes allocated and GC CPU time (which the runtime updates
// as each cycle ends), with the wall time they were read at.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	wall       time.Time
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), wall: now()}
}

// allocKB is the KiB allocated since s.
func (s runtimeSample) allocKB() float64 {
	return float64(readRuntime().allocBytes-s.allocBytes) / 1024
}
