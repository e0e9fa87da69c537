// Package smp implements the discrete-time semi-Markov process model of
// Section 4: estimation of the state-transition matrix Q and the holding-time
// mass function matrix H from observed sojourn sequences, and the
// sparsity-optimized backward recursion of Equation (3) that yields the
// interval transition probabilities into the failure states and hence the
// temporal reliability TR of Equation (2).
//
// The state space is the five-state availability model of package avail.
// Per Figure 3, only eight (from, to) transition pairs can carry probability
// mass: S1→{S2,S3,S4,S5} and S2→{S1,S3,S4,S5}; S3, S4 and S5 are absorbing.
// The solver therefore tracks only the six interval transition probabilities
// P[1,j](m), P[2,j](m), j ∈ {3,4,5}.
package smp

import (
	"errors"
	"fmt"

	"fgcs/internal/avail"
)

// LegalTransitions enumerates the eight (from, to) pairs permitted by the
// model's sparsity (Figure 3).
var LegalTransitions = [8][2]avail.State{
	{avail.S1, avail.S2}, {avail.S1, avail.S3}, {avail.S1, avail.S4}, {avail.S1, avail.S5},
	{avail.S2, avail.S1}, {avail.S2, avail.S3}, {avail.S2, avail.S4}, {avail.S2, avail.S5},
}

// Legal reports whether a direct transition from → to can carry probability
// mass in the model.
func Legal(from, to avail.State) bool {
	if !from.Recoverable() || from == to {
		return false
	}
	return to >= avail.S1 && to <= avail.S5
}

// Estimator configures kernel estimation from sojourn sequences. It is the
// discrete-time Kaplan–Meier competing-risks estimator: for each holding time
// l the cause-specific hazard h_ij(l) is the fraction of sojourns still under
// observation at l that transition to j exactly then, and the kernel mass is
// q_ij(l) = S_i(l-1)·h_ij(l) with S_i the product-limit survival. A
// right-censored sojourn (still in progress when its window ended) stays in
// the risk sets up to its censoring time and contributes nothing afterwards.
// Dropping censored sojourns or counting them in a flat per-state exposure
// were measured and removed; DESIGN.md §4 records why.
type Estimator struct {
	// Horizon is T/d: the number of discretization intervals in the
	// prediction window. Holding times longer than the horizon are capped
	// (their exact length cannot matter within the window).
	Horizon int
	// Smoothing adds a pseudo-count to every legal transition target at
	// holding-time 1..Horizon spread uniformly. Zero (the default)
	// reproduces the plain empirical statistics the paper computes.
	Smoothing float64
}

// Kernel is the estimated one-step behavior of the semi-Markov process:
// q[i][j][l] = Pr{next state is j and the holding time is exactly l units |
// the process just entered state i}. Q and H of the paper factor out of q as
// Q_i(j) = Σ_l q_ij(l) and H_ij(l) = q_ij(l)/Q_i(j).
type Kernel struct {
	horizon int
	// q[fi][int(to)][l]; fi is 0 for S1, 1 for S2; l runs 1..horizon
	// (index 0 unused). Only legal targets are allocated.
	q [2][avail.NumStates + 1][]float64
}

func fromIndex(s avail.State) int {
	switch s {
	case avail.S1:
		return 0
	case avail.S2:
		return 1
	}
	return -1
}

// qAt returns the raw kernel value q_{from,to}(l).
func (k *Kernel) qAt(fi int, to avail.State, l int) float64 {
	qs := k.q[fi][to]
	if qs == nil || l < 1 || l >= len(qs) {
		return 0
	}
	return qs[l]
}

// ErrNoHorizon is returned when the estimator is configured without a
// positive horizon.
var ErrNoHorizon = errors.New("smp: horizon must be positive")

// Estimate builds a Kernel from sojourn sequences, one sequence per training
// window (the same clock window on each of the most recent N same-type days,
// per Section 4.2). Sequences may be empty. The final sojourn of a sequence
// that does not end in a failure state is treated as right-censored, and a
// sojourn longer than the horizon is censored at the horizon (its eventual
// transition cannot matter within the window).
func (e Estimator) Estimate(seqs [][]avail.Sojourn) (*Kernel, error) {
	if e.Horizon <= 0 {
		return nil, ErrNoHorizon
	}
	if e.Smoothing < 0 {
		return nil, fmt.Errorf("smp: negative smoothing")
	}
	k := &Kernel{horizon: e.Horizon}
	// Event counts accumulate directly in k.q[fi][to][l] (completed
	// sojourns by holding time) and are normalized into kernel mass in
	// place below — the estimator's only allocations are the kernel's own
	// slices, which outlive the call. censored[fi][l] counts right-censored
	// sojourns by observed length; both from-states share one backing
	// array.
	censBuf := make([]float64, 2*(e.Horizon+1))
	censored := [2][]float64{censBuf[: e.Horizon+1 : e.Horizon+1], censBuf[e.Horizon+1:]}
	var nEvents, nCensored [2]float64
	for fi, from := 0, []avail.State{avail.S1, avail.S2}; fi < 2; fi++ {
		for to := avail.S1; to <= avail.S5; to++ {
			if Legal(from[fi], to) {
				k.q[fi][to] = make([]float64, e.Horizon+1)
			}
		}
	}
	for _, seq := range seqs {
		for si, soj := range seq {
			fi := fromIndex(soj.State)
			if fi < 0 {
				// Failure state: absorbing, nothing follows.
				break
			}
			units := soj.Units
			if units < 1 {
				units = 1
			}
			completed := si+1 < len(seq)
			if units > e.Horizon {
				// Over-horizon sojourns are censored at the horizon.
				units = e.Horizon
				completed = false
			}
			if completed {
				to := seq[si+1].State
				if !Legal(soj.State, to) {
					return nil, fmt.Errorf("smp: illegal transition %v -> %v in training sequence", soj.State, to)
				}
				k.q[fi][to][units]++
				nEvents[fi]++
			} else {
				censored[fi][units]++
				nCensored[fi]++
			}
		}
	}
	// Smoothing: spread pseudo-events uniformly over legal targets and
	// holding times.
	if e.Smoothing > 0 {
		per := e.Smoothing / float64(4*e.Horizon)
		for fi := 0; fi < 2; fi++ {
			for to := avail.S1; to <= avail.S5; to++ {
				if k.q[fi][to] == nil {
					continue
				}
				for l := 1; l <= e.Horizon; l++ {
					k.q[fi][to][l] += per
				}
			}
			nEvents[fi] += e.Smoothing
		}
	}
	// Convert the in-place counts into the one-step kernel: product-limit
	// survival times the cause-specific hazard at each holding time.
	for fi := 0; fi < 2; fi++ {
		risk := nEvents[fi] + nCensored[fi]
		surv := 1.0
		l := 1
		for ; l <= e.Horizon && risk > 1e-12 && surv > 0; l++ {
			atL := 0.0
			for to := avail.S1; to <= avail.S5; to++ {
				qs := k.q[fi][to]
				if qs == nil {
					continue
				}
				c := qs[l]
				if c != 0 {
					qs[l] = surv * c / risk
					atL += c
				}
			}
			surv *= 1 - atL/risk
			if surv < 0 {
				surv = 0
			}
			risk -= atL + censored[fi][l]
		}
		// Holding times past the early-exit point keep no mass:
		// clear any raw counts left there.
		for ; l <= e.Horizon; l++ {
			for to := avail.S1; to <= avail.S5; to++ {
				if qs := k.q[fi][to]; qs != nil {
					qs[l] = 0
				}
			}
		}
	}
	return k, nil
}

// Result carries the solved interval transition probabilities for one
// initial state.
type Result struct {
	// Units is the horizon the result was solved for.
	Units int
	// PFail[j] is P_{init,Sj}(Units) for j = 3, 4, 5 (indices 0..2).
	PFail [3]float64
	// TR is the temporal reliability, Equation (2).
	TR float64
	// Ops counts the multiply-accumulate operations the solver performed;
	// the Figure 4 cost experiment verifies its superlinear growth.
	Ops int64
}

// Solve computes the temporal reliability for a job starting in init (S1 or
// S2) over a window of the given number of discretization units, by the dense
// recursion of Equation (3) exactly as the paper states it: every holding time
// 1..m-1 enters the convolution at step m. Its Ops count is what the Figure 4
// cost experiment plots, and it is the reference the serving solver
// (ReliabilitiesWS) is differential-tested against: the two agree bit for bit.
func (k *Kernel) Solve(init avail.State, units int) (Result, error) {
	fi := fromIndex(init)
	if fi < 0 {
		return Result{}, fmt.Errorf("smp: initial state %v is not recoverable", init)
	}
	if units < 0 {
		return Result{}, fmt.Errorf("smp: negative window")
	}
	if units > k.horizon {
		return Result{}, fmt.Errorf("smp: window of %d units exceeds kernel horizon %d", units, k.horizon)
	}
	sol, ops := k.solveDense(units)
	res := Result{Units: units, Ops: ops, TR: sol.tr(fi, units)}
	for ji := 0; ji < 3; ji++ {
		res.PFail[ji] = sol.p[fi][ji][units]
	}
	return res, nil
}

// solution holds the six interval transition probabilities into the failure
// states: p[fi][ji][m], fi 0/1 for S1/S2, ji 0..2 for S3..S5.
type solution struct {
	p [2][3][]float64
}

// tr is Equation (2) at the given horizon for initial state fi.
func (sol *solution) tr(fi, units int) float64 {
	total := 0.0
	for ji := 0; ji < 3; ji++ {
		total += sol.p[fi][ji][units]
	}
	return clamp01(1 - total)
}

// Workspace holds reusable buffers for the Equation (3) recursion, so a
// long-lived caller (the prediction engine's per-query scratch) can solve
// repeatedly without allocating. The zero value is ready to use. Workspaces
// are not safe for concurrent use.
type Workspace struct {
	sol solution
	cum [2][3][]float64
	// The non-zero support of the cross kernels q₁₂ (index 0) and q₂₁
	// (index 1) inside the window: holding times ascending, and their mass.
	crossL [2][]int
	crossQ [2][]float64
}

// grow sizes the workspace buffers for n = units+1 entries, reusing capacity
// and resetting the m=0 column the recursion relies on.
func (ws *Workspace) grow(n int) {
	for fi := 0; fi < 2; fi++ {
		for ji := 0; ji < 3; ji++ {
			ws.sol.p[fi][ji] = growZeroHead(ws.sol.p[fi][ji], n)
			ws.cum[fi][ji] = growZeroHead(ws.cum[fi][ji], n)
		}
	}
}

// growZeroHead returns a slice of length n reusing buf's storage when
// possible, with index 0 zeroed (the only entry the recursion reads before
// writing).
func growZeroHead(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	if n > 0 {
		buf[0] = 0
	}
	return buf
}

// directCum fills cum[fi][ji][m] = Σ_{l=1..m} q_{fi,j}(l), the probability of
// a direct absorption into j within m units, for m = 1..units.
func (k *Kernel) directCum(cum *[2][3][]float64, units int) {
	for fi := 0; fi < 2; fi++ {
		for ji := 0; ji < 3; ji++ {
			to := avail.State(ji + 3)
			run := 0.0
			for m := 1; m <= units; m++ {
				run += k.qAt(fi, to, m)
				cum[fi][ji][m] = run
			}
		}
	}
}

// solve runs the dynamic program of Equation (3) for m = 0..units into ws (a
// fresh workspace when nil). The six sequences P_{1,j}, P_{2,j} are mutually
// recursive through the recoverable cross terms q_{1,2} and q_{2,1}; the
// direct failure terms accumulate as prefix sums. The convolution runs over
// the non-zero support of the cross kernels only — the observed holding
// times, the sparsity Section 4 relies on — in ascending l. A term it skips
// is 0·P with P ∈ [0, 1], exactly +0, so the result equals solveDense's bit
// for bit at a cost proportional to units × distinct holding times.
func (k *Kernel) solve(ws *Workspace, units int) *solution {
	if ws == nil {
		ws = &Workspace{}
	}
	ws.grow(units + 1)
	sol := &ws.sol
	k.directCum(&ws.cum, units)
	for fi, qs := range [2][]float64{k.q[0][avail.S2], k.q[1][avail.S1]} {
		ls, vs := ws.crossL[fi][:0], ws.crossQ[fi][:0]
		// Step m reads l < m ≤ units, so l = units is never used.
		for l := 1; l < len(qs) && l < units; l++ {
			if qs[l] != 0 {
				ls, vs = append(ls, l), append(vs, qs[l])
			}
		}
		ws.crossL[fi], ws.crossQ[fi] = ls, vs
	}
	for m := 1; m <= units; m++ {
		for fi := 0; fi < 2; fi++ {
			// The two reslices let the compiler drop the inner loop's
			// bounds checks (a third off the solve on the bench history).
			ls, vs := ws.crossL[fi], ws.crossQ[fi]
			vs = vs[:len(ls)]
			for ji := 0; ji < 3; ji++ {
				acc := ws.cum[fi][ji][m]
				po := sol.p[1-fi][ji][:m]
				// Convolution with the path through the other
				// recoverable state.
				for i, l := range ls {
					if l >= m {
						break
					}
					acc += vs[i] * po[m-l]
				}
				if acc > 1 {
					acc = 1
				}
				sol.p[fi][ji][m] = acc
			}
		}
	}
	return sol
}

// solveDense is the recursion as the paper writes it: the inner convolution
// visits every l in 1..m-1, which makes the total cost Θ(units²) — the
// superlinear growth measured in Figure 4. It also returns the number of
// multiply-accumulate operations performed.
func (k *Kernel) solveDense(units int) (*solution, int64) {
	ws := &Workspace{}
	ws.grow(units + 1)
	sol, cum := &ws.sol, &ws.cum
	k.directCum(cum, units)
	ops := int64(6 * units)
	// Cross-transition kernels, padded to units+1 so the inner loop needs
	// no bounds logic.
	crossQ := [2][]float64{pad(k.q[0][avail.S2], units+1), pad(k.q[1][avail.S1], units+1)}
	for m := 1; m <= units; m++ {
		for fi := 0; fi < 2; fi++ {
			q := crossQ[fi]
			for ji := 0; ji < 3; ji++ {
				acc := cum[fi][ji][m]
				po := sol.p[1-fi][ji]
				for l := 1; l < m; l++ {
					acc += q[l] * po[m-l]
				}
				ops += int64(m)
				if acc > 1 {
					acc = 1
				}
				sol.p[fi][ji][m] = acc
			}
		}
	}
	return sol, ops
}

// pad returns qs extended with zeros to length n (aliasing qs when long
// enough).
func pad(qs []float64, n int) []float64 {
	if len(qs) >= n {
		return qs
	}
	out := make([]float64, n)
	copy(out, qs)
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ReliabilitiesWS is the serving solve: it runs the recursion once, into ws's
// reusable buffers (nil solves into fresh ones), and returns TR for both
// recoverable initial states — Solve's TR, bit for bit, computed over the
// observed holding times only. Once the workspace has warmed up to the largest
// horizon it sees, the backward recursion allocates nothing.
func (k *Kernel) ReliabilitiesWS(ws *Workspace, units int) (trS1, trS2 float64, err error) {
	if units < 0 || units > k.horizon {
		return 0, 0, fmt.Errorf("smp: window of %d units outside kernel horizon %d", units, k.horizon)
	}
	sol := k.solve(ws, units)
	return sol.tr(0, units), sol.tr(1, units), nil
}
