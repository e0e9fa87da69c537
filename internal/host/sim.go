// Package host simulates resource contention between host processes and a
// guest process on a single time-shared machine, reproducing the empirical
// studies of Section 3.2 that establish the two CPU-load thresholds Th1 and
// Th2 and the CPU/memory-contention separation underlying the five-state
// availability model.
//
// The scheduler model is a simplified Linux 2.6 O(1) scheduler with the two
// mechanisms that matter for the paper's observations:
//
//   - a sleep-average reservoir granting interactive (bursty) tasks a dynamic
//     priority bonus, so that light host workloads preempt even a
//     default-priority guest and suffer <5% slowdown, while heavier ones
//     drain the reservoir and start time-sharing with the guest;
//   - a minimum-timeslice grant for the guest (array-switch anti-starvation),
//     so that even a nice-19 guest consumes a small, bounded share of a busy
//     machine — the reason a second threshold Th2 exists at all.
//
// Host programs are work-conserving compute/sleep cycles (the paper's
// synthetic programs adjust sleep time to hit a target isolated CPU usage),
// so guest interference stretches their cycles and lowers their measured CPU
// usage — exactly the "reduction rate of host CPU usage" metric of the
// paper.
package host

import (
	"fmt"
	"time"

	"fgcs/internal/rng"
)

// Machine describes the simulated hardware.
type Machine struct {
	// TotalMemMB is physical memory (the paper's Solaris testbed: 384 MB).
	TotalMemMB float64
	// KernelMemMB is memory unavailable to processes.
	KernelMemMB float64
	// Tick is the scheduling quantum of the simulation.
	Tick time.Duration
}

// DefaultMachine mirrors the paper's memory-contention testbed.
func DefaultMachine() Machine {
	return Machine{TotalMemMB: 384, KernelMemMB: 50, Tick: 10 * time.Millisecond}
}

// Proc specifies a host process: a compute/sleep cycle calibrated to an
// isolated CPU usage target, as in the paper's synthetic programs.
type Proc struct {
	// Name labels the process in results.
	Name string
	// IsolatedCPU is the target CPU usage fraction (0,1] the process
	// achieves when running alone.
	IsolatedCPU float64
	// MemMB is the resident set size.
	MemMB float64
	// Nice is the Unix nice level (0 = default).
	Nice int
	// BurstMS is the mean compute-burst length in milliseconds; zero
	// selects the default interactive burst length.
	BurstMS float64
}

// Guest specifies the guest process: completely CPU-bound, as the paper's
// guest applications are.
type Guest struct {
	// Nice is the guest priority: 0 (default) or 19 (lowest).
	Nice int
	// MemMB is the guest working-set size.
	MemMB float64
}

// Result reports a contention run.
type Result struct {
	// HostCPU is the total CPU usage of all host processes (percent),
	// the L_H signal the resource monitor observes.
	HostCPU float64
	// PerProc is each host process's CPU usage (percent), aligned with
	// the input slice.
	PerProc []float64
	// GuestCPU is the guest's CPU usage (percent); 0 when no guest runs.
	GuestCPU float64
	// Thrashing reports whether the run spent any time thrashing.
	Thrashing bool
}

// Scheduler model constants (calibrated so the emergent thresholds match the
// paper's Linux testbed values Th1 = 20%, Th2 = 60%; see sim_test.go).
const (
	// reservoirTicks is the sleep-average capacity (1 s at a 10 ms tick,
	// as in the 2.6 kernel).
	reservoirTicks = 100
	// bonusLevels is the dynamic-priority swing (±5 nice levels).
	bonusLevels = 5
	// guestFloorProb is the per-contended-tick probability that the
	// guest's minimum timeslice grant preempts the winning host process.
	guestFloorProb = 0.078
	// thrashFactor is the progress multiplier while the machine thrashes.
	thrashFactor = 0.12
	// defaultBurstMS is the mean compute-burst length of an interactive
	// host task.
	defaultBurstMS = 500
)

type procState struct {
	spec      Proc
	computing bool
	workLeft  float64 // remaining ticks of the current burst
	burstWork float64 // total work of the current burst (for sleep sizing)
	sleepLeft float64 // remaining ticks of the current sleep
	reservoir float64 // sleep-average reservoir in ticks
	usedTicks float64 // accumulated CPU progress
}

// effNice returns the dynamic priority: static nice minus the sleep bonus
// (bonus −5..+5; more sleep → lower effective nice → higher priority).
func (p *procState) effNice() float64 {
	bonus := 2*bonusLevels*(p.reservoir/reservoirTicks) - bonusLevels
	return float64(p.spec.Nice) - bonus
}

// Simulate runs host processes (optionally with a guest) for the given
// duration and returns the measured CPU usages.
func Simulate(m Machine, hosts []Proc, guest *Guest, d time.Duration, seed uint64) (Result, error) {
	res, _, err := simulate(m, hosts, guest, nil, d, seed)
	return res, err
}

// simulate is the one tick loop of the package. renice, when non-nil, is the
// gateway's side of guest control: every 6 s — the resource monitor's period
// — it is handed the host load (percent) observed over that window and
// returns the guest's new nice level; with a nil renice the guest keeps its
// priority. The second result is the guest's time-averaged nice level.
//
// The random draws per tick are, in order: a burst length for each host that
// wakes, the winner among the hosts in the best priority slot, and — only
// when a guest contends with a runnable host at or below its priority — the
// arbitration draw. Results are pure functions of the seed on that order.
func simulate(m Machine, hosts []Proc, guest *Guest, renice func(loadPct float64) int, d time.Duration, seed uint64) (Result, float64, error) {
	if m.Tick <= 0 {
		return Result{}, 0, fmt.Errorf("host: non-positive tick")
	}
	if d < m.Tick {
		return Result{}, 0, fmt.Errorf("host: duration shorter than a tick")
	}
	states := make([]*procState, len(hosts))
	var residentMB float64 = m.KernelMemMB
	for i, h := range hosts {
		if h.IsolatedCPU <= 0 || h.IsolatedCPU > 1 {
			return Result{}, 0, fmt.Errorf("host: process %q isolated CPU %v out of (0,1]", h.Name, h.IsolatedCPU)
		}
		if h.Nice < 0 || h.Nice > 19 {
			return Result{}, 0, fmt.Errorf("host: process %q nice %d out of [0,19]", h.Name, h.Nice)
		}
		if h.BurstMS == 0 {
			h.BurstMS = defaultBurstMS
		}
		states[i] = &procState{spec: h, reservoir: reservoirTicks}
		residentMB += h.MemMB
	}
	guestNice := 0
	if guest != nil {
		if guest.Nice < 0 || guest.Nice > 19 {
			return Result{}, 0, fmt.Errorf("host: guest nice %d out of [0,19]", guest.Nice)
		}
		guestNice = guest.Nice
		residentMB += guest.MemMB
	}
	thrashing := residentMB > m.TotalMemMB
	r := rng.New(seed)
	ticks := int(d / m.Tick)
	tickMS := float64(m.Tick) / float64(time.Millisecond)
	obsWindow := int(6 * 1000 / tickMS) // the monitor's 6 s, in ticks
	if obsWindow < 1 {
		obsWindow = 1
	}

	guestTicks := 0.0
	niceSum := 0.0
	hostBusy := 0 // ticks a host ran within the current observation window
	obsAge := 0
	for t := 0; t < ticks; t++ {
		// Advance sleep cycles and collect runnable hosts.
		best := 1e18
		var runnable []*procState
		for _, ps := range states {
			if !ps.computing {
				ps.sleepLeft--
				ps.reservoir += 1
				if ps.reservoir > reservoirTicks {
					ps.reservoir = reservoirTicks
				}
				if ps.sleepLeft <= 0 {
					ps.computing = true
					ps.workLeft = r.Exp(ps.spec.BurstMS) / tickMS
					if ps.workLeft < 1 {
						ps.workLeft = 1
					}
				}
			}
			if ps.computing {
				if ps.burstWork == 0 {
					ps.burstWork = ps.workLeft
				}
				e := ps.effNice()
				if e < best {
					best = e
				}
				runnable = append(runnable, ps)
			}
		}
		// Pick the winner among hosts at the best priority level.
		var winner *procState
		if len(runnable) > 0 {
			var top []*procState
			for _, ps := range runnable {
				if ps.effNice() <= best+0.5 { // same O(1) priority slot
					top = append(top, ps)
				}
			}
			winner = top[r.Intn(len(top))]
		}
		// The guest is CPU-bound: its reservoir is empty, so its effective
		// nice sits at the bottom of its band.
		guestEff := float64(guestNice) + bonusLevels
		guestRuns := false
		switch {
		case guest == nil:
			// no guest
		case winner == nil:
			guestRuns = true // idle CPU: the guest soaks it up
		case guestEff < best-0.5:
			guestRuns = true // guest strictly higher priority
		case guestEff <= best+0.5:
			// Same priority slot: round-robin share.
			guestRuns = r.Intn(len(runnable)+1) == 0
		default:
			// Host wins on priority; the guest still receives its
			// minimum timeslice grant occasionally.
			guestRuns = r.Bool(guestFloorProb)
		}
		progress := 1.0
		if thrashing {
			progress = thrashFactor
		}
		if guestRuns {
			guestTicks += progress
		} else if winner != nil {
			hostBusy++
			winner.usedTicks += progress
			winner.workLeft -= progress
			winner.reservoir -= 1
			if winner.reservoir < 0 {
				winner.reservoir = 0
			}
			if winner.workLeft <= 0 {
				winner.computing = false
				// Sleep long enough to hit the isolated CPU target:
				// S = W * (1/L - 1) with W the burst just finished.
				winner.sleepLeft = winner.burstWork * (1/winner.spec.IsolatedCPU - 1)
				winner.burstWork = 0
				if winner.sleepLeft < 1 {
					winner.sleepLeft = 1
				}
			}
		}
		niceSum += float64(guestNice)
		if obsAge++; obsAge >= obsWindow {
			// The monitor publishes a fresh load reading; the gateway
			// reacts by renicing the guest.
			if renice != nil {
				guestNice = renice(100 * float64(hostBusy) / float64(obsWindow))
			}
			hostBusy, obsAge = 0, 0
		}
	}

	res := Result{PerProc: make([]float64, len(states)), Thrashing: thrashing}
	total := float64(ticks)
	for i, ps := range states {
		res.PerProc[i] = 100 * ps.usedTicks / total
		res.HostCPU += res.PerProc[i]
	}
	res.GuestCPU = 100 * guestTicks / total
	return res, niceSum / total, nil
}

// reduction measures the paper's metric: the reduction rate of host CPU
// usage caused by running a guest alongside the host group.
//
//	reduction = (isolated - contended) / isolated
//
// Both runs use the same seed so the host workload realizations match.
func reduction(m Machine, hosts []Proc, guest Guest, d time.Duration, seed uint64) (isolated, rate float64, err error) {
	iso, err := Simulate(m, hosts, nil, d, seed)
	if err != nil {
		return 0, 0, err
	}
	con, err := Simulate(m, hosts, &guest, d, seed)
	if err != nil {
		return 0, 0, err
	}
	return iso.HostCPU, reductionRate(iso.HostCPU, con.HostCPU), nil
}

// reductionRate is (isolated - contended) / isolated, floored at zero.
func reductionRate(isolated, contended float64) float64 {
	if isolated <= 0 || contended > isolated {
		return 0
	}
	return (isolated - contended) / isolated
}
