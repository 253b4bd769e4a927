package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host roofline probes, run only in traced runs. The STREAM arrays
// together hold four times the host's last-level cache, so the triad
// streams from memory rather than from cache.

// hostLLC returns the summed size of the host's last-level caches in
// bytes. Tests replace it to shrink the probes.
var hostLLC = lastLevelCache

// lastLevelCache reads the CPU cache hierarchy from sysfs and sums the
// highest-level data or unified caches, counting each cache instance
// once however many CPUs share it.
func lastLevelCache() (int64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*")
	if err != nil || len(dirs) == 0 {
		return 0, fmt.Errorf("no CPU cache description in sysfs")
	}
	read := func(dir, name string) string {
		b, _ := os.ReadFile(filepath.Join(dir, name))
		return strings.TrimSpace(string(b))
	}
	top := 0
	sizes := map[string]int64{} // by level and the CPUs sharing it
	for _, d := range dirs {
		if read(d, "type") == "Instruction" {
			continue
		}
		level, err := strconv.Atoi(read(d, "level"))
		if err != nil {
			continue
		}
		size, err := parseCacheSize(read(d, "size"))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d, err)
		}
		if level > top {
			top, sizes = level, map[string]int64{}
		}
		if level == top {
			sizes[read(d, "shared_cpu_list")] = size
		}
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	if total == 0 {
		return 0, fmt.Errorf("no data cache found in sysfs")
	}
	return total, nil
}

// parseCacheSize reads sysfs cache sizes such as "48K" or "300M".
func parseCacheSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("cache size %q", s)
	}
	return n * mult, nil
}

// streamTriad measures a[i] = b[i] + s*c[i] over three arrays of
// bytes each, split across GOMAXPROCS goroutines, and returns the best
// of several passes in GB/s, counting 24 bytes per element (two loads
// and one store, the STREAM convention).
func streamTriad(bytes int64) float64 {
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		var wg sync.WaitGroup
		t := time.Now()
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if gbps := 24 * float64(n) / time.Since(t).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	if a[n-1] != 7 {
		panic(fmt.Sprintf("stream triad computed %v, want 7", a[n-1]))
	}
	return best
}

// loadLatency measures dependent-load latency in ns: a single chain of
// loads through a random cyclic permutation of cache lines spanning
// bytes, so every load waits for the one before it.
func loadLatency(bytes int64) float64 {
	const line = 8 // uint64 slots per 64-byte cache line
	lines := int(bytes / 64)
	next := make([]uint64, lines*line)
	perm := make([]int, lines)
	for i := range perm {
		perm[i] = i
	}
	r := newRNG(1, 0)
	// Sattolo's algorithm: a single cycle through every line.
	for i := lines - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		next[perm[i]*line] = uint64(perm[(i+1)%lines] * line)
	}
	loads := min(lines, 4<<20)
	p := uint64(0)
	t := time.Now()
	for i := 0; i < loads; i++ {
		p = next[p]
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(loads)
	if p >= uint64(len(next)) {
		panic("pointer chase left the array")
	}
	return ns
}

// probeHost fills the host metrics and the kernel's roofline fraction:
// the computed packed-table traffic over the measured STREAM bandwidth.
func probeHost(cfg config, o *outcome) error {
	llc, err := hostLLC()
	if err != nil {
		return fmt.Errorf("sizing the STREAM arrays: %w", err)
	}
	array := (4*llc + 2) / 3 // three arrays, four times the caches together
	gbps := streamTriad(array)
	runtime.GC() // free the triad's arrays before the chain is built
	lat := loadLatency(array)
	debug.FreeOSMemory()
	o.metrics["host.stream_gbps"] = gbps
	o.metrics["host.load_latency_ns"] = lat
	if t := o.metrics["rmcrt.table_gbps_computed"]; t > 0 {
		o.metrics["rmcrt.roofline_frac"] = t / gbps
	}
	fmt.Fprintf(cfg.log, "host: last-level caches %.1f MiB in all; STREAM triad %.2f GB/s over 3 x %.1f MiB arrays (%.1f MiB); dependent load %.1f ns over %.1f MiB\n",
		mib(llc), gbps, mib(array), mib(3*array), lat, mib(array))
	return nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
