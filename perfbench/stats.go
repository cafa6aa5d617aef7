package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values.
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

// percentile returns the nearest-rank p-th percentile (0 < p < 100).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns the highest of p99, p95 and p90 that leaves at least
// ten samples beyond it, with its name and the number of samples beyond; name
// is empty when even p90 does not.
func tailPercentile(xs []float64) (float64, string, int) {
	for _, p := range []float64{99, 95, 90} {
		beyond := len(xs) - int(math.Ceil(p/100*float64(len(xs))))
		if beyond >= 10 {
			return percentile(xs, p), "p" + strconv.Itoa(int(p)), beyond
		}
	}
	return 0, "", 0
}

// mean returns the arithmetic mean; 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// highWaterRSSMB reads the process's resident-set high-water mark (VmHWM).
func highWaterRSSMB() float64 {
	return float64(procStatusKB("VmHWM:")) / 1024
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field) {
			parts := strings.Fields(strings.TrimPrefix(line, field))
			if len(parts) > 0 {
				v, _ := strconv.ParseInt(parts[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// stamp records the machine, toolchain, seed and sizing a result came from.
func stamp(o options, spec workloadSpec) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"sizing":     spec.sizing,
	}
}

// rssSampleEvery is the resident-set sampling interval: two or more samples
// even in the shortest operations (about 13 ms), at one small /proc read
// per interval.
const rssSampleEvery = 5 * time.Millisecond

type rssSample struct {
	at    time.Time
	bytes int64
}

// rssSampler records the process's resident set size at a fixed interval
// until stopped.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []rssSample
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	page := int64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			if pages := residentPages(); pages > 0 {
				s.samples = append(s.samples, rssSample{at: time.Now(), bytes: pages * page})
			}
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples in time order.
func (s *rssSampler) stop() []rssSample {
	close(s.stopc)
	<-s.done
	return s.samples
}

// residentPages reads the resident page count from /proc/self/statm.
func residentPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64)
	return n
}
