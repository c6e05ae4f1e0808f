package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of one process's resource counters. Deltas between
// two snapshots give per-operation CPU, allocation and GC figures.
type usage struct {
	CPUNs      int64   `json:"cpu_ns"` // user + system
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	GCCPU      float64 `json:"gc_cpu_s"`
	TotalCPU   float64 `json:"total_cpu_s"`
	HWMKiB     int64   `json:"hwm_kib"`
	Mapped     int     `json:"mapped"` // mappings of description-cache files
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// selfUsage snapshots the calling process.
func selfUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		CPUNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		AllocBytes: s[0].Value.Uint64(),
		Allocs:     s[1].Value.Uint64(),
		GCCPU:      s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
		HWMKiB:     statusKiB("VmHWM"),
		Mapped:     mappedCacheFiles(),
	}
}

// statusKiB reads one kB-valued field of /proc/self/status.
func statusKiB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// mappedCacheFiles counts the process's mappings of description-cache
// entries (*.mdar).
func mappedCacheFiles() int {
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if bytes.HasSuffix(sc.Bytes(), []byte(".mdar")) {
			n++
		}
	}
	return n
}

// hostCPU is a snapshot of the host-wide /proc/stat CPU line.
type hostCPU struct{ steal, total int64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of host CPU time the hypervisor stole between
// two snapshots.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// interval measures one timed interval: wall time, the process's resource
// deltas and host steal.
type interval struct {
	start  time.Time
	wall   time.Duration
	u0, u1 usage
	h0, h1 hostCPU
}

// beginInterval starts a timed interval. It first hands freed heap back to
// the OS and restarts the kernel's peak-RSS count, so that peak_rss_mb is the
// high-water mark of the timed interval, not of the reference computation
// before it. Kernels without the reset keep the lifetime peak.
func beginInterval() *interval {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return &interval{start: time.Now(), u0: selfUsage(), h0: readHostCPU()}
}

func (iv *interval) end() {
	iv.wall = time.Since(iv.start)
	iv.u1 = selfUsage()
	iv.h1 = readHostCPU()
}

// reportInterval fills the per-operation CPU, memory, runtime and host
// figures for ops operations measured over an interval, from the usage
// snapshots of the process that did the work.
func (r *run) reportInterval(u0, u1 usage, h0, h1 hostCPU, ops int64) {
	if ops < 1 {
		ops = 1
	}
	r.e2e["cpu_ms_per_op"] = float64(u1.CPUNs-u0.CPUNs) / 1e6 / float64(ops)
	r.e2e["peak_rss_mb"] = float64(u1.HWMKiB) / 1024
	r.layers["runtime.alloc_bytes_per_op"] = float64(u1.AllocBytes-u0.AllocBytes) / float64(ops)
	r.layers["runtime.allocs_per_op"] = float64(u1.Allocs-u0.Allocs) / float64(ops)
	r.layers["runtime.gc_cpu_share"] = 0
	if cpu := u1.TotalCPU - u0.TotalCPU; cpu > 0 {
		r.layers["runtime.gc_cpu_share"] = (u1.GCCPU - u0.GCCPU) / cpu
	}
	r.layers["host.steal_share"] = stealShare(h0, h1)
	fmt.Fprintf(os.Stderr, "perfbench: host steal %.4f of CPU time over the timed interval\n", stealShare(h0, h1))
	r.layers["descache.mapped_entries"] = float64(u1.Mapped)
}
