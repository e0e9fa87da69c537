package host

import (
	"fmt"
	"time"

	"fgcs/internal/rng"
)

// GuestPolicy is a strategy for controlling the guest process's priority in
// response to the observed host load — the design space of Section 3.2.1.
// The paper compares the two-threshold scheme it adopts against two
// alternatives used by practical FGCS systems and concludes the thresholds
// are neither redundant nor overly conservative.
type GuestPolicy int

const (
	// PolicyTwoThreshold is the paper's scheme: default priority below
	// Th1, lowest priority above it (termination above Th2 is handled by
	// the gateway, not the priority policy).
	PolicyTwoThreshold GuestPolicy = iota
	// PolicyGradual decreases the guest priority stepwise from 0 to 19 as
	// the host load grows between Th1 and Th2 — the "fine-grained values"
	// alternative.
	PolicyGradual
	// PolicyAlwaysLowest pins the guest at nice 19 from the start (the
	// approach of [7] in the paper).
	PolicyAlwaysLowest
)

// String names the policy.
func (p GuestPolicy) String() string {
	switch p {
	case PolicyTwoThreshold:
		return "two-threshold"
	case PolicyGradual:
		return "gradual"
	case PolicyAlwaysLowest:
		return "always-lowest"
	}
	return fmt.Sprintf("GuestPolicy(%d)", int(p))
}

// nice maps the observed host load (percent) to a guest nice level.
func (p GuestPolicy) nice(loadPct, th1, th2 float64) int {
	switch p {
	case PolicyAlwaysLowest:
		return 19
	case PolicyGradual:
		switch {
		case loadPct < th1:
			return 0
		case loadPct >= th2:
			return 19
		default:
			n := int(19 * (loadPct - th1) / (th2 - th1))
			if n < 0 {
				n = 0
			}
			if n > 19 {
				n = 19
			}
			return n
		}
	default: // PolicyTwoThreshold
		if loadPct < th1 {
			return 0
		}
		return 19
	}
}

// PolicyResult reports one policy-controlled contention run.
type PolicyResult struct {
	Policy GuestPolicy
	// HostCPU and GuestCPU as in Result.
	HostCPU, GuestCPU float64
	// Reduction is the host slowdown vs. the isolated run.
	Reduction float64
	// MeanNice is the guest's time-averaged nice level.
	MeanNice float64
}

// SimulatePolicy runs the contention simulation with the guest's priority
// adjusted dynamically by the policy from a 6-second moving observation of
// the host load — the same signal the resource monitor samples.
func SimulatePolicy(m Machine, hosts []Proc, policy GuestPolicy, th1, th2 float64, d time.Duration, seed uint64) (PolicyResult, error) {
	guest := Guest{Nice: policy.nice(0, th1, th2)}
	renice := func(loadPct float64) int { return policy.nice(loadPct, th1, th2) }
	con, meanNice, err := simulate(m, hosts, &guest, renice, d, seed)
	if err != nil {
		return PolicyResult{}, err
	}
	iso, err := Simulate(m, hosts, nil, d, seed)
	if err != nil {
		return PolicyResult{}, err
	}
	return PolicyResult{
		Policy:    policy,
		HostCPU:   con.HostCPU,
		GuestCPU:  con.GuestCPU,
		Reduction: reductionRate(iso.HostCPU, con.HostCPU),
		MeanNice:  meanNice,
	}, nil
}

// E1bRow is one (policy, load level) cell of the alternatives study.
type E1bRow struct {
	Policy      GuestPolicy
	IsolatedCPU float64
	Reduction   float64
	GuestCPU    float64
	MeanNice    float64
}

// RunE1b compares the three guest-priority policies across host load levels,
// reproducing the Section 3.2.1 conclusion: the intermediate priorities of
// the gradual policy behave like the lowest priority (redundant), and
// pinning the lowest priority forfeits guest throughput the two-threshold
// scheme captures under light host load.
func RunE1b(m Machine, targets []float64, trials int, d time.Duration, seed uint64) ([]E1bRow, error) {
	if trials < 1 {
		return nil, fmt.Errorf("host: E1b needs at least one trial")
	}
	root := rng.New(seed)
	var rows []E1bRow
	for _, policy := range []GuestPolicy{PolicyTwoThreshold, PolicyGradual, PolicyAlwaysLowest} {
		for _, target := range targets {
			var sumIso, sumRed, sumGuest, sumNice float64
			for trial := 0; trial < trials; trial++ {
				tr := root.SplitN(fmt.Sprintf("e1b-%d-%g", policy, target), trial)
				hosts := []Proc{{Name: "h", IsolatedCPU: target, MemMB: 40}}
				res, err := SimulatePolicy(m, hosts, policy, 20, 60, d, tr.Uint64())
				if err != nil {
					return nil, err
				}
				sumIso += target * 100
				sumRed += res.Reduction
				sumGuest += res.GuestCPU
				sumNice += res.MeanNice
			}
			rows = append(rows, E1bRow{
				Policy:      policy,
				IsolatedCPU: sumIso / float64(trials),
				Reduction:   sumRed / float64(trials),
				GuestCPU:    sumGuest / float64(trials),
				MeanNice:    sumNice / float64(trials),
			})
		}
	}
	return rows, nil
}
