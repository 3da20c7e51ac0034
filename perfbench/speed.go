package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's clock is not the benchmark's to pin. On the 2-vCPU development
// host the same work ran 1.3-1.6x faster in some stretches of minutes than
// in others, and a run-to-run spread that large measures the host, not the
// program. So every timed phase also times a fixed reference kernel, which
// belongs to the benchmark and never changes with the program, in short
// samples between its ops, and the norm_* metrics scale the raw ones to the
// speed at which the kernel takes refNominal. Wall times scale by the
// kernel's wall time and CPU times by its CPU time: stolen time, up to a
// fifth of a run's wall time on that host, slows the first and not the
// second. The raw metrics are printed beside them.

// refNominal is the reference kernel's time for one unit at the nominal
// host speed, a round figure near its unit time on the development host
// (Intel Xeon, 2 vCPUs under KVM) in that host's fast stretches, 4.3-5.6
// ms. It only sets the scale of the norm_* metrics.
const refNominal = 5 * time.Millisecond

// refScratch is one goroutine's memory for the reference kernel. It lives
// in an anonymous mapping outside the Go heap: 4 MiB of live heap would
// halve how often the daemon's small heap is collected, and so change the
// program the probe runs beside. The kernel allocates nothing.
type refScratch struct {
	mem  []byte  // the mapping that holds arr, keys and hist
	arr  []int32 // 4 MiB: more than a core's L2 cache, well inside L3
	keys []int
	hist []int
	sink int64
}

const (
	refArr   = 1 << 20
	refKeys  = 1 << 14
	refHist  = 1 << 12
	refBytes = 4*refArr + 8*(refKeys+refHist)
)

func newRefScratch() (*refScratch, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's memory: %w", err)
	}
	base := unsafe.Pointer(unsafe.SliceData(mem))
	return &refScratch{
		mem:  mem,
		arr:  unsafe.Slice((*int32)(base), refArr),
		keys: unsafe.Slice((*int)(unsafe.Add(base, 4*refArr)), refKeys),
		hist: unsafe.Slice((*int)(unsafe.Add(base, 4*refArr+8*refKeys)), refHist),
	}, nil
}

// unit runs one unit of the reference kernel: a streaming fill of arr, a
// random gather over it, a sort, and scattered counter updates, the kinds
// of work the solver's hot loops do.
func (s *refScratch) unit() {
	x := uint32(12345)
	next := func() uint32 { x = x*1664525 + 1013904223; return x }
	for i := range s.arr {
		s.arr[i] = int32(next() >> 8)
	}
	var sum int64
	for range s.arr {
		sum += int64(s.arr[next()>>12]) // the top 20 bits index all 1<<20 entries
	}
	for i := range s.keys {
		s.keys[i] = int(next())
	}
	sort.Ints(s.keys)
	clear(s.hist)
	for i, k := range s.keys {
		s.hist[k&(refHist-1)] += i
	}
	s.sink += sum + int64(s.hist[0])
}

// speedProbe samples the host's speed with the reference kernel. It runs
// the kernel on as many goroutines as the workload keeps busy: a vCPU that
// had been idle ran the kernel about twice as slowly as one that had been
// busy, so a probe that woke an idle vCPU would measure a state the
// workload never sees.
type speedProbe struct {
	units   int // kernel units per goroutine in one sample
	scratch []*refScratch
	samples []refSample
	last    time.Time // when the last sample ended
}

// refSample is one unit's mean wall and thread CPU time over a sample's
// goroutines.
type refSample struct{ wall, cpu time.Duration }

func newSpeedProbe(goroutines, units int) (*speedProbe, error) {
	p := &speedProbe{units: units}
	for range goroutines {
		s, err := newRefScratch()
		if err != nil {
			p.free()
			return nil, err
		}
		p.scratch = append(p.scratch, s)
	}
	p.run() // the first units fault the memory in; they are not a sample
	return p, nil
}

// run times p.units kernel units on every goroutine at once and returns
// one unit's mean wall and CPU time. Each goroutine first runs one unit
// untimed: on the development host the first unit after the CPU had idled
// for 0.1 s took about 3.5 times as long as the ones after it. A goroutine
// keeps its thread while it is timed, so the thread's CPU clock is its own.
func (p *speedProbe) run() refSample {
	took := make([]refSample, len(p.scratch))
	var wg sync.WaitGroup
	for g, s := range p.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			s.unit()
			t0, c0 := time.Now(), threadCPU()
			for range p.units {
				s.unit()
			}
			took[g] = refSample{wall: time.Since(t0), cpu: threadCPU() - c0}
		}()
	}
	wg.Wait()
	var sum refSample
	for _, d := range took {
		sum.wall += d.wall
		sum.cpu += d.cpu
	}
	n := time.Duration(len(took) * p.units)
	return refSample{wall: sum.wall / n, cpu: sum.cpu / n}
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time, 0 if it cannot be read.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// free unmaps the probe's memory; the probe must not sample afterwards.
func (p *speedProbe) free() {
	for _, s := range p.scratch {
		_ = syscall.Munmap(s.mem) // a mapping this process made; unmapping it cannot fail
	}
}

// residentMB is the size of the probe's memory, all of it resident from
// newSpeedProbe on, in MiB.
func (p *speedProbe) residentMB() float64 {
	return float64(len(p.scratch)*refBytes) / (1 << 20)
}

// sample adds one sample; a nil probe takes none.
func (p *speedProbe) sample() {
	if p != nil {
		p.samples = append(p.samples, p.run())
		p.last = time.Now()
	}
}

// sampleEvery takes a sample if at least d has passed since the last one.
func (p *speedProbe) sampleEvery(d time.Duration) {
	if time.Since(p.last) >= d {
		p.sample()
	}
}

// take returns the speed over the samples so far and starts a new series.
func (p *speedProbe) take() float64 {
	s := p.speed()
	p.samples = nil
	return s
}

// speed is the host's speed over the samples relative to the nominal one:
// refNominal over the kernel's mean wall time per unit, pooled like the
// phase's own ops. Below 1 the host ran slower than nominal.
func (p *speedProbe) speed() float64 {
	var sum time.Duration
	for _, s := range p.samples {
		sum += s.wall
	}
	return ratio(float64(refNominal)*float64(len(p.samples)), float64(sum))
}

// cpuSpeed is speed by the kernel's CPU time instead of its wall time.
func (p *speedProbe) cpuSpeed() float64 {
	var sum time.Duration
	for _, s := range p.samples {
		sum += s.cpu
	}
	return ratio(float64(refNominal)*float64(len(p.samples)), float64(sum))
}

// report prints the samples' spread and the speeds they give.
func (p *speedProbe) report(rep *report) {
	xs := make([]float64, len(p.samples))
	for i, d := range p.samples {
		xs[i] = ms(d.wall)
	}
	s := sorted(xs)
	if len(s) == 0 {
		return
	}
	rep.printf("host speed: %d samples of %d reference units on %d goroutines, wall ms per unit min %.3f median %.3f max %.3f; speed %.4f, by CPU time %.4f, of nominal (%v per unit)",
		len(s), p.units, len(p.scratch), s[0], median(s), s[len(s)-1], p.speed(), p.cpuSpeed(), refNominal)
}

// setNorm sets setup_s and the norm_* metrics: set-up time, throughput,
// p50 latency and CPU cost at the nominal host speed, from their raw values
// and the host's speed over the timed phase (by wall and by CPU time) and
// over the set-ups.
func setNorm(e *metrics, speed, cpuSpeed, setupS, setupSpeed float64) {
	e.set("setup_s", setupS*setupSpeed, "s")
	e.note("setup_s", fmt.Sprintf("median set-up %.6f s x host speed over the set-ups %.4f", setupS, setupSpeed))
	e.set("norm_throughput_ops_s", ratio(e.vals["throughput_ops_s"].Value, speed), "ops/s")
	e.note("norm_throughput_ops_s", fmt.Sprintf("raw value / host speed %.4f", speed))
	e.set("norm_latency_p50_ms", e.vals["latency_p50_ms"].Value*speed, "ms")
	e.note("norm_latency_p50_ms", fmt.Sprintf("raw value x host speed %.4f", speed))
	e.set("norm_cpu_ms_per_op", e.vals["cpu_ms_per_op"].Value*cpuSpeed, "ms")
	e.note("norm_cpu_ms_per_op", fmt.Sprintf("raw value x host speed by CPU time %.4f", cpuSpeed))
}
