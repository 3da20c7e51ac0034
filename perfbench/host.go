package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of this process and its host: wall
// clock, process CPU time, the host's steal and total CPU ticks, and the Go
// runtime's GC and allocation totals.
type usage struct {
	wall         time.Time
	cpu          time.Duration
	steal, ticks uint64
	gcCycles     uint32
	allocBytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{wall: time.Now(), cpu: processCPU(), gcCycles: ms.NumGC, allocBytes: ms.TotalAlloc}
	u.steal, u.ticks = hostTicks()
	return u
}

// settle collects the heap before a measured phase, as testing.B does, so
// every set-up repetition and timed pass starts from the same heap state
// instead of inheriting part of an earlier phase's GC cycle.
func settle() { runtime.GC() }

// phaseUsage is what a timed phase cost, from two usage readings.
type phaseUsage struct {
	wall, cpu    time.Duration
	steal, ticks uint64
	gcCycles     uint32
	allocBytes   uint64
}

func (u usage) to(end usage) phaseUsage {
	return phaseUsage{
		wall:       end.wall.Sub(u.wall),
		cpu:        end.cpu - u.cpu,
		steal:      end.steal - u.steal,
		ticks:      end.ticks - u.ticks,
		gcCycles:   end.gcCycles - u.gcCycles,
		allocBytes: end.allocBytes - u.allocBytes,
	}
}

// add sums two phases' costs.
func (p phaseUsage) add(q phaseUsage) phaseUsage {
	return phaseUsage{p.wall + q.wall, p.cpu + q.cpu, p.steal + q.steal, p.ticks + q.ticks,
		p.gcCycles + q.gcCycles, p.allocBytes + q.allocBytes}
}

// stealPct is the share of all host CPU ticks the hypervisor stole.
func (p phaseUsage) stealPct() float64 { return 100 * ratio(float64(p.steal), float64(p.ticks)) }

// cpuShare is process CPU time ÷ wall time, in cores.
func (p phaseUsage) cpuShare() float64 { return ratio(p.cpu.Seconds(), p.wall.Seconds()) }

// processCPU returns user+system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setPeakRSS sets peak_rss_mb from peak, the process's peak resident set
// when the timed phase ended, less the speed probe's memory, which is the
// benchmark's, not the program's. The checks after the timed phase are the
// benchmark's work too, so the peak at exit is only noted.
func setPeakRSS(e *metrics, peak float64, probe *speedProbe) {
	e.set("peak_rss_mb", peak-probe.residentMB(), "MB")
	e.note("peak_rss_mb", fmt.Sprintf("ru_maxrss at the end of the timed phase less the speed probe's %.2f MB; %.2f MB at exit",
		probe.residentMB(), peakRSSMB()-probe.residentMB()))
}

// hostTicks returns the steal ticks and the sum of all ticks from the
// aggregate "cpu" line of /proc/stat; zeros when it cannot be read, which
// makes steal_pct read 0.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so stop at steal.
		for i, field := range fields[1:] {
			if i > 7 {
				break
			}
			v, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return 0, 0
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	return 0, 0
}
