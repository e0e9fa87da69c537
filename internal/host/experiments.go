package host

import (
	"fmt"
	"time"

	"fgcs/internal/rng"
)

// This file implements the empirical studies of Section 3.2 as runnable
// experiments: E1 (CPU contention with synthetic duty-cycle programs,
// deriving the thresholds Th1 and Th2) and E2 (combined CPU and memory
// contention with SPEC-like guests and a Musbus-like interactive host
// suite, establishing the CPU/memory separation).

// CurvePoint is one point of a reduction-rate curve.
type CurvePoint struct {
	// IsolatedCPU is the host group's isolated CPU usage L_H (percent).
	IsolatedCPU float64
	// Reduction is the mean reduction rate of host CPU usage (fraction).
	Reduction float64
}

// E1Config parameterizes the CPU-contention study.
type E1Config struct {
	// Machine is the simulated testbed machine.
	Machine Machine
	// GroupSizes are the host group sizes to test (paper: 1..5+).
	GroupSizes []int
	// Targets are the isolated host CPU usage levels to sweep (fractions).
	Targets []float64
	// Trials averages each point over this many seeds.
	Trials int
	// Duration is the simulated run length per trial.
	Duration time.Duration
	// SlowdownBound is the "noticeable slowdown" bound (paper: 5%).
	SlowdownBound float64
	// Seed makes the study reproducible.
	Seed uint64
}

// DefaultE1Config returns the paper's study design.
func DefaultE1Config() E1Config {
	return E1Config{
		Machine:       DefaultMachine(),
		GroupSizes:    []int{1, 2, 3, 4, 5, 6},
		Targets:       []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80, 0.90, 1.0},
		Trials:        5,
		Duration:      15 * time.Minute,
		SlowdownBound: 0.05,
		Seed:          1,
	}
}

// E1Result is the outcome of the CPU-contention study.
type E1Result struct {
	// Curves[nice][size] is the reduction curve for that guest priority
	// and host group size. nice is 0 or 19.
	Curves map[int]map[int][]CurvePoint
	// Th1 is the derived renice threshold (percent of host CPU load).
	Th1 float64
	// Th2 is the derived termination threshold (percent).
	Th2 float64
}

// RunE1 executes the CPU-contention study: for each guest priority, host
// group size and isolated-load target it measures the reduction rate of host
// CPU usage, then derives Th1 and Th2 as the highest load levels at which
// the slowdown bound still holds (at the guest's default and lowest
// priority, respectively), minimized over group sizes as the paper does.
func RunE1(cfg E1Config) (*E1Result, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("host: E1 needs at least one trial")
	}
	res := &E1Result{Curves: map[int]map[int][]CurvePoint{0: {}, 19: {}}}
	root := rng.New(cfg.Seed)
	for _, nice := range []int{0, 19} {
		for _, size := range cfg.GroupSizes {
			var curve []CurvePoint
			for _, target := range cfg.Targets {
				// Split the group target across `size` processes with
				// randomly distributed per-process loads, as the paper
				// does ("isolated CPU usages of each process randomly
				// distributed").
				sumIso, sumRed := 0.0, 0.0
				for trial := 0; trial < cfg.Trials; trial++ {
					tr := root.SplitN(fmt.Sprintf("e1-%d-%d-%g", nice, size, target), trial)
					hosts := randomGroup(tr, size, target)
					iso, red, err := reduction(cfg.Machine, hosts, Guest{Nice: nice, MemMB: 50}, cfg.Duration, tr.Uint64())
					if err != nil {
						return nil, err
					}
					sumIso += iso
					sumRed += red
				}
				curve = append(curve, CurvePoint{
					IsolatedCPU: sumIso / float64(cfg.Trials),
					Reduction:   sumRed / float64(cfg.Trials),
				})
			}
			res.Curves[nice][size] = curve
		}
	}
	res.Th1 = deriveThreshold(res.Curves[0], cfg.SlowdownBound)
	res.Th2 = deriveThreshold(res.Curves[19], cfg.SlowdownBound)
	return res, nil
}

// randomGroup builds a host group of the given size whose total isolated
// usage is close to target (each process's load randomly distributed, the
// total clipped by saturation naturally).
func randomGroup(r *rng.Stream, size int, target float64) []Proc {
	hosts := make([]Proc, size)
	// Random split of the target across processes.
	weights := make([]float64, size)
	sum := 0.0
	for i := range weights {
		weights[i] = r.Uniform(0.5, 1.5)
		sum += weights[i]
	}
	for i := range hosts {
		l := target
		if size > 1 {
			// Per-process share of the group's target, randomly skewed.
			l = target * weights[i] / sum
		}
		if l > 1 {
			l = 1
		}
		if l < 0.02 {
			l = 0.02
		}
		hosts[i] = Proc{Name: fmt.Sprintf("h%d", i), IsolatedCPU: l, MemMB: 30}
	}
	return hosts
}

// deriveThreshold finds, for each group size, the highest isolated load
// whose reduction stays within the bound with no higher load under the
// bound, then returns the minimum across sizes (the paper picks thresholds
// "according to the lowest values of L_H among the different host group
// sizes", typically size 1).
func deriveThreshold(curves map[int][]CurvePoint, bound float64) float64 {
	th := 100.0
	for _, curve := range curves {
		// Highest L before the first bound crossing.
		safe := 0.0
		for _, pt := range curve {
			if pt.Reduction > bound {
				break
			}
			safe = pt.IsolatedCPU
		}
		if safe < th {
			th = safe
		}
	}
	return th
}

// ---------------------------------------------------------------- E2 ----

// SpecGuest describes a SPEC-CPU2000-like guest application: CPU-bound with
// a working set between 29 and 193 MB (the paper's range).
type SpecGuest struct {
	Name  string
	MemMB float64
}

// SpecSuite returns guests with the paper's working-set range.
func SpecSuite() []SpecGuest {
	return []SpecGuest{
		{Name: "gzip-like", MemMB: 29},
		{Name: "vpr-like", MemMB: 50},
		{Name: "mcf-like", MemMB: 95},
		{Name: "parser-like", MemMB: 130},
		{Name: "swim-like", MemMB: 193},
	}
}

// MusbusWorkload is a Musbus-like interactive host workload: editing, Unix
// command-line utilities, and compiler invocations with a given CPU and
// memory footprint.
type MusbusWorkload struct {
	Name  string
	CPU   float64 // isolated CPU usage fraction
	MemMB float64
}

// MusbusSuite returns host workloads spanning the paper's ranges: CPU 8-67%,
// memory 53-213 MB.
func MusbusSuite() []MusbusWorkload {
	return []MusbusWorkload{
		{Name: "edit-small", CPU: 0.08, MemMB: 53},
		{Name: "edit-large", CPU: 0.15, MemMB: 90},
		{Name: "utils", CPU: 0.28, MemMB: 120},
		{Name: "compile-small", CPU: 0.45, MemMB: 160},
		{Name: "compile-large", CPU: 0.67, MemMB: 213},
	}
}

// E2Cell is one (guest, host workload, priority) measurement.
type E2Cell struct {
	Guest     string
	Host      string
	GuestNice int
	// HostIsolatedCPU and Reduction as in E1.
	HostIsolatedCPU float64
	Reduction       float64
	// Thrashing reports whether the combined working sets exceeded
	// physical memory.
	Thrashing bool
}

// E2Config parameterizes the memory-contention study.
type E2Config struct {
	Machine  Machine
	Duration time.Duration
	Seed     uint64
}

// DefaultE2Config mirrors the paper's 384 MB Solaris machine.
func DefaultE2Config() E2Config {
	return E2Config{Machine: DefaultMachine(), Duration: 15 * time.Minute, Seed: 1}
}

// RunE2 crosses the SPEC-like guest suite with the Musbus-like host suite at
// both guest priorities and reports the reduction and thrashing for each
// combination. The paper's two observations should hold: (1) thrashing
// occurs exactly when working sets exceed physical memory, independent of
// priority; (2) absent thrashing, reduction depends only on host CPU load
// with the same thresholds as E1.
func RunE2(cfg E2Config) ([]E2Cell, error) {
	var out []E2Cell
	root := rng.New(cfg.Seed)
	for _, g := range SpecSuite() {
		for _, hw := range MusbusSuite() {
			for _, nice := range []int{0, 19} {
				hosts := []Proc{{Name: hw.Name, IsolatedCPU: hw.CPU, MemMB: hw.MemMB}}
				tr := root.Split(g.Name + hw.Name)
				iso, red, err := reduction(cfg.Machine, hosts, Guest{Nice: nice, MemMB: g.MemMB}, cfg.Duration, tr.Uint64())
				if err != nil {
					return nil, err
				}
				thrash := hw.MemMB+g.MemMB+cfg.Machine.KernelMemMB > cfg.Machine.TotalMemMB
				out = append(out, E2Cell{
					Guest:           g.Name,
					Host:            hw.Name,
					GuestNice:       nice,
					HostIsolatedCPU: iso,
					Reduction:       red,
					Thrashing:       thrash,
				})
			}
		}
	}
	return out, nil
}
