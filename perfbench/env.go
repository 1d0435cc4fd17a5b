package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo is the per-run environment block printed beside the metrics, so
// a run from a noisy spell can be told apart from a regression.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	// StealShare is the share of all CPU time the hypervisor stole during
	// the run, from the steal column of /proc/stat.
	StealShare float64 `json:"steal_share"`
	WallS      float64 `json:"wall_s"`
}

type envProbe struct {
	info  envInfo
	start time.Time
	stat0 cpuTimes
}

func startEnv(root string) *envProbe {
	return &envProbe{
		info: envInfo{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     gitCommit(root),
			CPUModel:   cpuModel(),
		},
		start: time.Now(),
		stat0: readCPUTimes(),
	}
}

func (p *envProbe) finish() envInfo {
	p.info.StealShare = stealShare(p.stat0, readCPUTimes())
	p.info.WallS = time.Since(p.start).Seconds()
	return p.info
}

// ticks is one "cpu" line of /proc/stat, in clock ticks: all time, and
// the part of it the hypervisor stole.
type ticks struct{ total, steal uint64 }

// cpuTimes is the aggregate "cpu" line of /proc/stat followed by one line
// per CPU; nil when /proc/stat is unreadable.
type cpuTimes []ticks

func share(a, b ticks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealShare returns the share of all CPU time between a and b that the
// hypervisor stole (0 when no time passed or /proc/stat is unreadable).
func stealShare(a, b cpuTimes) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return share(a[0], b[0])
}

// charge says how steal slows a kind of timed work, and so how much of a
// stretch of wall time the work is charged for.
type charge int

const (
	// chargeWall charges all wall time: short work on otherwise idle
	// CPUs, which a burst of steal either stalls or misses.
	chargeWall charge = iota
	// chargeCapacity charges the CPU capacity left: 1 − the aggregate
	// steal share. For work that keeps the CPUs busy, such as a saturated
	// closed loop, or runs long enough to see the average steal.
	chargeCapacity
	// chargeLockstep charges the time every CPU ran at once: the product
	// of 1 − steal over the CPUs, whose steal is taken as independent. For
	// parallel work that waits at a barrier whenever one vCPU is
	// descheduled.
	chargeLockstep
)

// runnable returns the share of the wall time between a and b that work
// of the given kind is charged for.
func runnable(a, b cpuTimes, c charge) float64 {
	switch {
	case c == chargeWall:
		return 1
	case c == chargeCapacity || len(a) < 2 || len(a) != len(b):
		return 1 - stealShare(a, b)
	}
	r := 1.0
	for i := 1; i < len(a); i++ {
		r *= 1 - share(a[i], b[i])
	}
	return r
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var t cpuTimes
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") {
			break
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already counted in user and nice.
		var c ticks
		for i := 1; i <= 8; i++ {
			v, _ := strconv.ParseUint(fields[i], 10, 64)
			c.total += v
			if i == 8 {
				c.steal = v
			}
		}
		t = append(t, c)
	}
	return t
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

// gitCommit names the checked-out commit, or "unknown" when the checkout is
// not a git work tree. The search stops at root so no enclosing repository
// is consulted.
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB returns the process's VmHWM (peak resident set) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
