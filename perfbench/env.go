package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// runtimeStats is a snapshot of the Go runtime counters the benchmark
// differences over a timed window.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	cpuGC      float64 // CPU seconds spent in the garbage collector
	cpuUsed    float64 // CPU seconds available minus idle
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.cpuGC - b.cpuGC, a.cpuUsed - b.cpuUsed}
}

func (a runtimeStats) plus(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.cpuGC + b.cpuGC, a.cpuUsed + b.cpuUsed}
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		cpuGC:      s[2].Value.Float64(),
		cpuUsed:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB
// (10^6 bytes), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// hostCPU reads the machine-wide CPU tick counters of /proc/stat: the
// ticks stolen by the hypervisor and the total. Both are 0 where /proc is
// unavailable.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// envStamp identifies where and on what a results file was measured.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"host"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// HostStealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run; a high share explains a slow,
	// noisy run on a shared host.
	HostStealFrac float64 `json:"host_steal_frac"`
}

func stamp(workload string, seed int64, seconds int, trace bool) envStamp {
	host, _ := os.Hostname() // best effort: an unknown host stays ""
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Host:       host,
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// commit returns the VCS revision the binary was built from, as the go
// tool stamps it when building inside a git work tree, or "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
