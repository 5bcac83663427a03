package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a reading of the process's cumulative counters; metrics
// are differences of two samples taken at phase boundaries.
type procSample struct {
	at          time.Time
	userCPU     time.Duration
	sysCPU      time.Duration
	maxRSSKiB   int64
	readCalls   int64 // /proc/self/io syscr
	writeCalls  int64 // /proc/self/io syscw
	allocs      uint64
	allocBytes  uint64
	gcCPUSec    float64
	mutexWaitS  float64
	withRuntime bool
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

// sampleProc reads CPU time and peak RSS; withRuntime adds the syscall
// counters of /proc/self/io and the allocation, GC and mutex-wait totals
// of runtime/metrics, which only traced runs pay for.
func sampleProc(withRuntime bool) procSample {
	s := procSample{at: time.Now(), withRuntime: withRuntime}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.userCPU = time.Duration(ru.Utime.Nano())
		s.sysCPU = time.Duration(ru.Stime.Nano())
		s.maxRSSKiB = ru.Maxrss
	}
	if !withRuntime {
		return s
	}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, val, _ := strings.Cut(sc.Text(), ": ")
			n, _ := strconv.ParseInt(val, 10, 64)
			switch key {
			case "syscr":
				s.readCalls = n
			case "syscw":
				s.writeCalls = n
			}
		}
		f.Close()
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.allocBytes = samples[1].Value.Uint64()
	s.gcCPUSec = samples[2].Value.Float64()
	s.mutexWaitS = samples[3].Value.Float64()
	return s
}

func (s procSample) cpu() time.Duration { return s.userCPU + s.sysCPU }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 { return float64(sampleProc(false).maxRSSKiB) / 1024 }

// cpuModel is the host's CPU model name for the report header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
