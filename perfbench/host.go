package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host a result was measured on, so a result
// from another machine or runtime is never read as a change of the code.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procTimes is the host-wide CPU time from /proc/stat, in clock ticks.
type procTimes struct{ total, steal uint64 }

// readProcTimes reads the aggregate cpu line of /proc/stat; ok is false
// where that file is missing or unreadable.
func readProcTimes() (pt procTimes, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return pt, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return pt, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]; guest
	// time is already counted in user, so only the first eight are summed.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return pt, false
		}
		pt.total += v
		if i == 8 {
			pt.steal = v
		}
	}
	return pt, true
}

// stealFrac is the share of host CPU time the hypervisor stole between a and
// b (0 when nothing elapsed).
func stealFrac(a, b procTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters are the Go runtime's cumulative allocation and GC counts.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU                        float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	u := func(i int) uint64 {
		if runtimeSamples[i].Value.Kind() == metrics.KindUint64 {
			return runtimeSamples[i].Value.Uint64()
		}
		return 0
	}
	c := runtimeCounters{allocs: u(0), allocBytes: u(1), gcCycles: u(2)}
	if runtimeSamples[3].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = runtimeSamples[3].Value.Float64()
	}
	return c
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none. xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
