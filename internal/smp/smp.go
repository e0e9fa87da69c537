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
}

// Kernel is the estimated one-step behavior of the semi-Markov process:
// q_ij(l) = Pr{next state is j and the holding time is exactly l units | the
// process just entered state i}. Q and H of the paper factor out of q as
// Q_i(j) = Σ_l q_ij(l) and H_ij(l) = q_ij(l)/Q_i(j). It is stored sparse, as
// §4 argues: for each of the eight legal pairs, only the holding times at
// which an observed sojourn ended.
type Kernel struct {
	horizon int
	// hold[fi][int(to)] lists the holding times in 1..horizon at which
	// q_{from,to} has mass, ascending, and q[fi][int(to)] the mass at each;
	// fi is 0 for S1, 1 for S2. Illegal targets stay empty.
	hold [2][avail.NumStates + 1][]int32
	q    [2][avail.NumStates + 1][]float64
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

// ErrNoHorizon is returned when the estimator is configured without a
// positive horizon.
var ErrNoHorizon = errors.New("smp: horizon must be positive")

// Estimate is EstimateWS on a fresh workspace.
func (e Estimator) Estimate(seqs [][]avail.Sojourn) (*Kernel, error) {
	return e.EstimateWS(nil, seqs)
}

// EstimateWS builds a Kernel from sojourn sequences, one sequence per training
// window (the same clock window on each of the most recent N same-type days,
// per Section 4.2), counting in ws's reusable buffers (nil counts in fresh
// ones). Sequences may be empty. The final sojourn of a sequence that does not
// end in a failure state is treated as right-censored, and a sojourn longer
// than the horizon is censored at the horizon (its eventual transition cannot
// matter within the window). The kernel's own support is all it allocates; ws
// is left ready for the next call, also after an error.
func (e Estimator) EstimateWS(ws *Workspace, seqs [][]avail.Sojourn) (*Kernel, error) {
	if e.Horizon <= 0 {
		return nil, ErrNoHorizon
	}
	if ws == nil {
		ws = &Workspace{}
	}
	h := e.Horizon
	ws.growCounts(h + 1)
	// Count completed sojourns by (from, to, holding time) and censored ones
	// by (from, observed length); nnz counts the distinct holding times of
	// each pair, which bounds its support.
	var nEvents, nCensored [2]int
	var nnz [2][avail.NumStates + 1]int
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
			if units > h {
				// Over-horizon sojourns are censored at the horizon.
				units = h
				completed = false
			}
			if !completed {
				ws.censored[fi][units]++
				nCensored[fi]++
				continue
			}
			to := seq[si+1].State
			if !Legal(soj.State, to) {
				ws.clearCounts()
				return nil, fmt.Errorf("smp: illegal transition %v -> %v in training sequence", soj.State, to)
			}
			if ws.events[fi][to][units] == 0 {
				nnz[fi][to]++
			}
			ws.events[fi][to][units]++
			nEvents[fi]++
		}
	}
	k := &Kernel{horizon: h}
	total := 0
	for fi := range nnz {
		for _, n := range nnz[fi] {
			total += n
		}
	}
	holdBuf, qBuf := make([]int32, total), make([]float64, total)
	for fi := range nnz {
		for to, n := range nnz[fi] {
			k.hold[fi][to], holdBuf = holdBuf[:0:n], holdBuf[n:]
			k.q[fi][to], qBuf = qBuf[:0:n], qBuf[n:]
		}
	}
	// Turn the counts into the one-step kernel — product-limit survival
	// times the cause-specific hazard at each holding time — re-zeroing them
	// as they are read. risk is the number of sojourns not yet read, so the
	// walk stops early only once it has read them all.
	for fi := 0; fi < 2; fi++ {
		risk := float64(nEvents[fi] + nCensored[fi])
		surv := 1.0
		cens := ws.censored[fi]
		for l := 1; l <= h && risk > 1e-12 && surv > 0; l++ {
			atL := 0
			for to := avail.S1; to <= avail.S5; to++ {
				row := ws.events[fi][to]
				if row == nil || row[l] == 0 {
					continue
				}
				c := int(row[l])
				row[l] = 0
				k.hold[fi][to] = append(k.hold[fi][to], int32(l))
				k.q[fi][to] = append(k.q[fi][to], surv*float64(c)/risk)
				atL += c
			}
			surv *= 1 - float64(atL)/risk
			if surv < 0 {
				surv = 0
			}
			risk -= float64(atL + int(cens[l]))
			cens[l] = 0
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

// Workspace holds reusable buffers for kernel estimation and the Equation (3)
// recursion, so a long-lived caller (the prediction engine's per-query
// scratch) can estimate and solve repeatedly without allocating beyond the
// kernel's own support. The zero value is ready to use. Workspaces are not
// safe for concurrent use.
type Workspace struct {
	sol solution
	// The estimator's counts, all zero between calls: events[fi][int(to)][l]
	// completed sojourns of a legal pair by holding time, censored[fi][l]
	// right-censored ones by observed length.
	events   [2][avail.NumStates + 1][]int32
	censored [2][]int32
}

// grow sizes the workspace buffers for n = units+1 entries, reusing capacity
// and resetting the m=0 column the recursion relies on.
func (ws *Workspace) grow(n int) {
	for fi := 0; fi < 2; fi++ {
		for ji := 0; ji < 3; ji++ {
			ws.sol.p[fi][ji] = growZeroHead(ws.sol.p[fi][ji], n)
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

// growCounts sizes the estimator's count rows to n entries. Rows are zero
// across their whole capacity between calls, so a reslice is all a smaller or
// previously seen size needs; a larger one gets one fresh zeroed array.
func (ws *Workspace) growCounts(n int) {
	if cap(ws.censored[0]) < n {
		buf := make([]int32, 10*n)
		for fi, from := range [2]avail.State{avail.S1, avail.S2} {
			for to := avail.S1; to <= avail.S5; to++ {
				if Legal(from, to) {
					ws.events[fi][to], buf = buf[:n:n], buf[n:]
				}
			}
			ws.censored[fi], buf = buf[:n:n], buf[n:]
		}
		return
	}
	for fi := 0; fi < 2; fi++ {
		for to, row := range ws.events[fi] {
			if row != nil {
				ws.events[fi][to] = row[:n]
			}
		}
		ws.censored[fi] = ws.censored[fi][:n]
	}
}

// clearCounts zeroes every count, for the one exit that does not read them
// back.
func (ws *Workspace) clearCounts() {
	for fi := range ws.events {
		for _, row := range ws.events[fi] {
			clear(row)
		}
		clear(ws.censored[fi])
	}
}

// directSums carries the six probabilities of a direct absorption into
// j ∈ {S3, S4, S5} within m units, Σ_{l=1..m} q_{fi,j}(l), as running sums
// that the recursion advances one step at a time: a cursor walks each pair's
// support, and a holding time without mass would add exactly +0.
type directSums struct {
	k    *Kernel
	sum  [2][3]float64
	next [2][3]int
}

// at returns the (fi, ji) sum at step m. The recursion asks for each pair
// once per step, in ascending m.
func (d *directSums) at(fi, ji, m int) float64 {
	hold := d.k.hold[fi][ji+3]
	if i := d.next[fi][ji]; i < len(hold) && int(hold[i]) == m {
		d.sum[fi][ji] += d.k.q[fi][ji+3][i]
		d.next[fi][ji]++
	}
	return d.sum[fi][ji]
}

// dense returns q_{fi,to}(l) for l = 0..units as an array: the kernel as the
// paper writes it, materialised for the dense solver.
func (k *Kernel) dense(fi int, to avail.State, units int) []float64 {
	out := make([]float64, units+1)
	for i, l := range k.hold[fi][to] {
		if int(l) > units {
			break
		}
		out[l] = k.q[fi][to][i]
	}
	return out
}

// solve runs the dynamic program of Equation (3) for m = 0..units into ws (a
// fresh workspace when nil). The six sequences P_{1,j}, P_{2,j} are mutually
// recursive through the recoverable cross terms q_{1,2} and q_{2,1}; the
// direct failure terms accumulate as running sums. The convolution runs over
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
	direct := directSums{k: k}
	// The cross kernels q₁₂ and q₂₁: step m reads their holding times l < m.
	crossL := [2][]int32{k.hold[0][avail.S2], k.hold[1][avail.S1]}
	crossQ := [2][]float64{k.q[0][avail.S2], k.q[1][avail.S1]}
	for m := 1; m <= units; m++ {
		for fi := 0; fi < 2; fi++ {
			// The reslices let the compiler drop the inner loop's bounds
			// checks (a third off the solve on the bench history).
			ls, vs := crossL[fi], crossQ[fi]
			vs = vs[:len(ls)]
			po := &sol.p[1-fi]
			p0, p1, p2 := po[0][:m], po[1][:m], po[2][:m]
			acc0, acc1, acc2 := direct.at(fi, 0, m), direct.at(fi, 1, m), direct.at(fi, 2, m)
			// Convolution with the path through the other recoverable
			// state: one walk of the support feeds all three targets,
			// each summing its terms in the same ascending-l order.
			for i, l := range ls {
				if int(l) >= m {
					break
				}
				v, j := vs[i], m-int(l)
				acc0 += v * p0[j]
				acc1 += v * p1[j]
				acc2 += v * p2[j]
			}
			for ji, acc := range [3]float64{acc0, acc1, acc2} {
				sol.p[fi][ji][m] = min(acc, 1)
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
	sol := &ws.sol
	direct := directSums{k: k}
	ops := int64(6 * units)
	// Cross-transition kernels as dense units+1 arrays, so the inner loop
	// needs no bounds logic.
	crossQ := [2][]float64{k.dense(0, avail.S2, units), k.dense(1, avail.S1, units)}
	for m := 1; m <= units; m++ {
		for fi := 0; fi < 2; fi++ {
			q := crossQ[fi]
			for ji := 0; ji < 3; ji++ {
				acc := direct.at(fi, ji, m)
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
