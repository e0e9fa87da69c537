package smp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/rng"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

func TestLegalTransitions(t *testing.T) {
	// Exactly the eight pairs of Figure 3.
	count := 0
	for from := avail.S1; from <= avail.S5; from++ {
		for to := avail.S1; to <= avail.S5; to++ {
			legal := Legal(from, to)
			if legal {
				count++
			}
			wantLegal := from.Recoverable() && from != to
			if legal != wantLegal {
				t.Errorf("Legal(%v,%v) = %v", from, to, legal)
			}
		}
	}
	if count != 8 {
		t.Fatalf("legal pair count = %d, want 8", count)
	}
	if len(LegalTransitions) != 8 {
		t.Fatal("LegalTransitions table wrong size")
	}
	for _, p := range LegalTransitions {
		if !Legal(p[0], p[1]) {
			t.Errorf("table pair %v not legal", p)
		}
	}
}

func TestEstimateCounts(t *testing.T) {
	// Two windows:
	//   S1(3) -> S2(2) -> S3        and   S1(4) [censored]
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 3}, {State: avail.S2, Units: 2}, {State: avail.S3, Units: 5}},
		{{State: avail.S1, Units: 4}},
	}
	k, err := Estimator{Horizon: 100}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	// Q1(S2) = 1/2: the S1 risk set is 2, the censored sojourn still being
	// at risk at l=3; Q2(S3) = 1.
	if got := mass(k, avail.S1, avail.S2); got != 0.5 {
		t.Fatalf("Q1(S2) = %v, want 0.5", got)
	}
	if got := mass(k, avail.S2, avail.S3); got != 1 {
		t.Fatalf("Q2(S3) = %v, want 1", got)
	}
	// H is concentrated at the observed holding times: all of Q sits there.
	if got := qAt(k, 0, avail.S2, 3); got != 0.5 {
		t.Fatalf("q1,2(3) = %v, want 0.5", got)
	}
	if got := qAt(k, 1, avail.S3, 2); got != 1 {
		t.Fatalf("q2,3(2) = %v, want 1", got)
	}
	if hold := k.hold[0][avail.S2]; len(hold) != 1 || hold[0] != 3 {
		t.Fatalf("support of q1,2 = %v, want [3] (H(0) is 0, Figure 3)", k.hold[0][avail.S2])
	}
}

// qAt returns the kernel value q_{from,to}(l), zero off the support.
func qAt(k *Kernel, fi int, to avail.State, l int) float64 {
	for i, at := range k.hold[fi][to] {
		if int(at) == l {
			return k.q[fi][to][i]
		}
	}
	return 0
}

// mass is the paper's Q_from(to): the kernel's total mass on one transition,
// read off the raw support so that an entry outside the legal pairs would
// show.
func mass(k *Kernel, from, to avail.State) float64 {
	total := 0.0
	if fi := fromIndex(from); fi >= 0 {
		for _, v := range k.q[fi][to] {
			total += v
		}
	}
	return total
}

// denseQ is a kernel as the paper writes it: q[fi][int(to)][l] for
// l = 0..horizon, nil for an illegal target.
type denseQ [2][avail.NumStates + 1][]float64

// fromDense is the one dense → sparse conversion of the tests: the support is
// every holding time with a non-zero entry.
func fromDense(horizon int, q *denseQ) *Kernel {
	k := &Kernel{horizon: horizon}
	for fi := range q {
		for to, qs := range q[fi] {
			for l := 1; l < len(qs); l++ {
				if qs[l] != 0 {
					k.hold[fi][to] = append(k.hold[fi][to], int32(l))
					k.q[fi][to] = append(k.q[fi][to], qs[l])
				}
			}
		}
	}
	return k
}

// referenceEstimate is the estimator as it stood while the kernel was dense:
// float64 counts accumulated in horizon+1 arrays per legal pair and turned
// into mass in place. EstimateWS must reproduce it bit for bit.
func referenceEstimate(horizon int, seqs [][]avail.Sojourn) (*denseQ, error) {
	q := &denseQ{}
	censored := [2][]float64{make([]float64, horizon+1), make([]float64, horizon+1)}
	var nEvents, nCensored [2]float64
	for fi, from := range [2]avail.State{avail.S1, avail.S2} {
		for to := avail.S1; to <= avail.S5; to++ {
			if Legal(from, to) {
				q[fi][to] = make([]float64, horizon+1)
			}
		}
	}
	for _, seq := range seqs {
		for si, soj := range seq {
			fi := fromIndex(soj.State)
			if fi < 0 {
				break
			}
			units := max(soj.Units, 1)
			completed := si+1 < len(seq)
			if units > horizon {
				units, completed = horizon, false
			}
			if !completed {
				censored[fi][units]++
				nCensored[fi]++
				continue
			}
			to := seq[si+1].State
			if !Legal(soj.State, to) {
				return nil, fmt.Errorf("illegal transition %v -> %v", soj.State, to)
			}
			q[fi][to][units]++
			nEvents[fi]++
		}
	}
	for fi := 0; fi < 2; fi++ {
		risk := nEvents[fi] + nCensored[fi]
		surv := 1.0
		l := 1
		for ; l <= horizon && risk > 1e-12 && surv > 0; l++ {
			atL := 0.0
			for _, qs := range q[fi] {
				if qs != nil && qs[l] != 0 {
					c := qs[l]
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
		for ; l <= horizon; l++ {
			for _, qs := range q[fi] {
				if qs != nil {
					qs[l] = 0
				}
			}
		}
	}
	return q, nil
}

func TestEstimateErrors(t *testing.T) {
	if _, err := (Estimator{Horizon: 0}).Estimate(nil); err != ErrNoHorizon {
		t.Fatalf("err = %v", err)
	}
	// Illegal transition in training data (S1 -> S1 impossible after run
	// compression, so fabricate S3 -> S1).
	bad := [][]avail.Sojourn{{{State: avail.S3, Units: 1}, {State: avail.S1, Units: 1}}}
	k, err := Estimator{Horizon: 10}.Estimate(bad)
	// S3 is absorbing: the estimator must simply stop at it, not error.
	if err != nil || k == nil {
		t.Fatalf("failure-state sequence rejected: %v", err)
	}
	bad2 := [][]avail.Sojourn{{{State: avail.S1, Units: 1}, {State: avail.S1, Units: 2}}}
	if _, err := (Estimator{Horizon: 10}).Estimate(bad2); err == nil {
		t.Fatal("S1->S1 self transition accepted")
	}
}

func TestEstimateOverHorizonSojournIsCensored(t *testing.T) {
	// A sojourn longer than the horizon transitions outside the window:
	// within the window it is pure survival, not an event at the cap.
	seqs := [][]avail.Sojourn{{{State: avail.S1, Units: 500}, {State: avail.S3, Units: 1}}}
	k, err := Estimator{Horizon: 10}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := mass(k, avail.S1, avail.S3); got != 0 {
		t.Fatalf("over-horizon sojourn produced event mass Q = %v", got)
	}
	tr, err := servedTR(k, avail.S1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 1 {
		t.Fatalf("TR = %v, want 1 (no failure observable within the horizon)", tr)
	}
}

func TestHazardEstimatorKaplanMeier(t *testing.T) {
	// 4 windows fail out of S1 at exactly 600 units; 6 windows are
	// censored at 1200 units. The KM estimate of absorbing by 600 is
	// 4/10 = 0.4 (all ten sojourns are at risk at 600), so TR = 0.6 —
	// matching the empirical window survival.
	var seqs [][]avail.Sojourn
	for i := 0; i < 4; i++ {
		seqs = append(seqs, []avail.Sojourn{{State: avail.S1, Units: 600}, {State: avail.S5, Units: 1}})
	}
	for i := 0; i < 6; i++ {
		seqs = append(seqs, []avail.Sojourn{{State: avail.S1, Units: 1200}})
	}
	k, err := Estimator{Horizon: 1200}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := servedTR(k, avail.S1, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr-0.6) > 1e-12 {
		t.Fatalf("TR = %v, want 0.6 (Kaplan-Meier)", tr)
	}
}

func TestHazardTwoStageKaplanMeier(t *testing.T) {
	// S1 sojourns: events at l=2 (2 of 4 at risk), censoring at l=3,
	// event at l=5. KM: q(2) per cause = 1/4 each; S(2) = 1/2; at l=5
	// the risk set is 1, so q(5) = 1/2.
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 2}, {State: avail.S3, Units: 1}},
		{{State: avail.S1, Units: 2}, {State: avail.S4, Units: 1}},
		{{State: avail.S1, Units: 3}},
		{{State: avail.S1, Units: 5}, {State: avail.S5, Units: 1}},
	}
	k, err := Estimator{Horizon: 10}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := qAt(k, 0, avail.S3, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("q13(2) = %v, want 0.25", got)
	}
	if got := qAt(k, 0, avail.S5, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("q15(5) = %v, want 0.5", got)
	}
	tr, _ := servedTR(k, avail.S1, 10)
	if math.Abs(tr-0) > 1e-12 {
		t.Fatalf("TR = %v, want 0 (all surviving mass absorbed by l=5)", tr)
	}
}

func TestSolveSingleStepAnalytic(t *testing.T) {
	// One observation: S1 holds 1 unit then fails to S3, and one censored
	// S1 sojourn → q_{1,3}(1) = 0.5. TR from S1 over any horizon ≥ 1 is
	// 0.5; from S2 (no data) it is 1.
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 1}, {State: avail.S3, Units: 1}},
		{{State: avail.S1, Units: 5}},
	}
	k, err := Estimator{Horizon: 50}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := k.Solve(avail.S1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TR-0.5) > 1e-12 {
		t.Fatalf("TR = %v, want 0.5", r.TR)
	}
	if math.Abs(r.PFail[0]-0.5) > 1e-12 || r.PFail[1] != 0 || r.PFail[2] != 0 {
		t.Fatalf("PFail = %v", r.PFail)
	}
	tr2, err := servedTR(k, avail.S2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != 1 {
		t.Fatalf("TR from S2 with no data = %v, want 1", tr2)
	}
}

func TestSolveTwoStepAnalytic(t *testing.T) {
	// S1 always moves to S2 after exactly 2 units; S2 fails to S4 after
	// exactly 3 units with probability 1. Absorption into S4 happens at
	// unit 5: TR(4) = 1, TR(5) = 0.
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 2}, {State: avail.S2, Units: 3}, {State: avail.S4, Units: 1}},
	}
	k, err := Estimator{Horizon: 50}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		units int
		want  float64
	}{{1, 1}, {4, 1}, {5, 0}, {20, 0}} {
		tr, err := servedTR(k, avail.S1, c.units)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tr-c.want) > 1e-12 {
			t.Fatalf("TR(%d) = %v, want %v", c.units, tr, c.want)
		}
	}
	// From S2 the failure lands at unit 3.
	tr, _ := servedTR(k, avail.S2, 2)
	if tr != 1 {
		t.Fatalf("TR_S2(2) = %v, want 1", tr)
	}
	tr, _ = servedTR(k, avail.S2, 3)
	if tr != 0 {
		t.Fatalf("TR_S2(3) = %v, want 0", tr)
	}
}

func TestSolveMixedBranching(t *testing.T) {
	// From S1: 50% to S2 (hold 1), 50% to S3 (hold 1).
	// From S2: 100% back to S1 (hold 1).
	// Absorption probability by horizon m: 0.5 + 0.25 + ... (failure
	// attempt every 2 units).
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 1}, {State: avail.S3, Units: 1}},
		{{State: avail.S1, Units: 1}, {State: avail.S2, Units: 1}, {State: avail.S1, Units: 1}, {State: avail.S3, Units: 1}},
	}
	// This gives S1 exposure 3: two S1->S3 at hold 1, one S1->S2 at hold 1.
	k, err := Estimator{Horizon: 100}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	p3 := mass(k, avail.S1, avail.S3)
	p2 := mass(k, avail.S1, avail.S2)
	if math.Abs(p3-2.0/3) > 1e-12 || math.Abs(p2-1.0/3) > 1e-12 {
		t.Fatalf("Q = %v %v", p3, p2)
	}
	// Analytic absorption: at odd units 2k+1, P = p3 * Σ_{i<=k} p2^i.
	want := 0.0
	for i := 0; i <= 2; i++ {
		want += p3 * math.Pow(p2, float64(i))
	}
	tr, err := servedTR(k, avail.S1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((1-tr)-want) > 1e-9 {
		t.Fatalf("absorption by 5 = %v, want %v", 1-tr, want)
	}
}

func TestSolveErrors(t *testing.T) {
	k, _ := Estimator{Horizon: 10}.Estimate(nil)
	if _, err := k.Solve(avail.S3, 5); err == nil {
		t.Fatal("failure initial state accepted")
	}
	if _, err := k.Solve(avail.S1, -1); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := k.Solve(avail.S1, 11); err == nil {
		t.Fatal("window beyond horizon accepted")
	}
}

func TestSolveZeroWindow(t *testing.T) {
	k, _ := Estimator{Horizon: 10}.Estimate(nil)
	r, err := k.Solve(avail.S1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.TR != 1 {
		t.Fatalf("TR over empty window = %v, want 1", r.TR)
	}
}

func TestReliabilitiesMatchesSolve(t *testing.T) {
	seqs := [][]avail.Sojourn{
		{{State: avail.S1, Units: 2}, {State: avail.S2, Units: 1}, {State: avail.S5, Units: 1}},
		{{State: avail.S2, Units: 4}, {State: avail.S1, Units: 3}, {State: avail.S4, Units: 1}},
		{{State: avail.S1, Units: 8}},
	}
	k, err := Estimator{Horizon: 30}.Estimate(seqs)
	if err != nil {
		t.Fatal(err)
	}
	tr1, tr2, err := k.ReliabilitiesWS(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := k.Solve(avail.S1, 20)
	r2, _ := k.Solve(avail.S2, 20)
	if tr1 != r1.TR || tr2 != r2.TR {
		t.Fatalf("Reliabilities = %v,%v; Solve = %v,%v", tr1, tr2, r1.TR, r2.TR)
	}
}

// servedTR is the serving solve's TR for one recoverable initial state.
func servedTR(k *Kernel, init avail.State, units int) (float64, error) {
	tr1, tr2, err := k.ReliabilitiesWS(nil, units)
	return [2]float64{tr1, tr2}[fromIndex(init)], err
}

// randomKernel estimates a kernel from randomSeqs.
func randomKernel(r *rng.Stream, horizon int) *Kernel {
	k, err := Estimator{Horizon: horizon}.Estimate(randomSeqs(r, horizon))
	if err != nil {
		panic(err)
	}
	return k
}

// randomSeqs draws 3–22 legal training windows of the given length: holding
// times up to half of it, toggling between the recoverable states or
// absorbing, the last sojourn of an unabsorbed window censored.
func randomSeqs(r *rng.Stream, horizon int) [][]avail.Sojourn {
	var seqs [][]avail.Sojourn
	nseq := 3 + r.Intn(20)
	for i := 0; i < nseq; i++ {
		var seq []avail.Sojourn
		state := avail.S1
		if r.Bool(0.3) {
			state = avail.S2
		}
		remaining := horizon
		for remaining > 0 {
			hold := 1 + r.Intn(horizon/2)
			if hold > remaining {
				hold = remaining
			}
			seq = append(seq, avail.Sojourn{State: state, Units: hold})
			remaining -= hold
			if remaining <= 0 {
				break
			}
			// Choose the next state: toggle between the recoverable
			// states or absorb into a failure state.
			x := r.Float64()
			switch {
			case x < 0.7:
				if state == avail.S1 {
					state = avail.S2
				} else {
					state = avail.S1
				}
			case x < 0.82:
				seq = append(seq, avail.Sojourn{State: avail.S3, Units: 1})
				remaining = 0
			case x < 0.92:
				seq = append(seq, avail.Sojourn{State: avail.S4, Units: 1})
				remaining = 0
			default:
				seq = append(seq, avail.Sojourn{State: avail.S5, Units: 1})
				remaining = 0
			}
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// simulate runs the semi-Markov process forward once and reports whether it
// is absorbed in a failure state within `units`.
func simulate(k *Kernel, r *rng.Stream, init avail.State, units int) bool {
	state := init
	t := 0
	for {
		fi := fromIndex(state)
		// Build the categorical over (to, l) pairs plus survival mass.
		x := r.Float64()
		acc := 0.0
		var to avail.State
		var hold int
		found := false
	outer:
		for s := avail.S1; s <= avail.S5; s++ {
			for i, l := range k.hold[fi][s] {
				acc += k.q[fi][s][i]
				if x < acc {
					to, hold, found = s, int(l), true
					break outer
				}
			}
		}
		if !found {
			return false // survives past the horizon in this state
		}
		t += hold
		if t > units {
			return false // transition happens after the window closes
		}
		if to.Failure() {
			return true
		}
		state = to
	}
}

// TestSolveMatchesMonteCarlo cross-validates the Equation (3) recursion
// against forward simulation of the same kernel.
func TestSolveMatchesMonteCarlo(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 5; trial++ {
		k := randomKernel(r.SplitN("kernel", trial), 40)
		for _, init := range []avail.State{avail.S1, avail.S2} {
			for _, units := range []int{5, 17, 40} {
				want, err := servedTR(k, init, units)
				if err != nil {
					t.Fatal(err)
				}
				const n = 30000
				failed := 0
				sim := r.SplitN("sim", trial*100+units)
				for i := 0; i < n; i++ {
					if simulate(k, sim, init, units) {
						failed++
					}
				}
				got := 1 - float64(failed)/n
				if math.Abs(got-want) > 0.015 {
					t.Fatalf("trial %d init %v units %d: MC TR = %v, solver TR = %v",
						trial, init, units, got, want)
				}
			}
		}
	}
}

// Property: TR is within [0,1] and non-increasing in the window length.
func TestTRMonotoneProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		k := randomKernel(r, 30)
		for _, init := range []avail.State{avail.S1, avail.S2} {
			prev := 1.0
			for units := 0; units <= 30; units++ {
				tr, err := servedTR(k, init, units)
				if err != nil || tr < 0 || tr > 1 {
					return false
				}
				if tr > prev+1e-9 {
					return false
				}
				prev = tr
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Q rows are sub-stochastic and H masses are normalized.
func TestKernelStochasticProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		k := randomKernel(rng.New(seed), 25)
		for _, from := range []avail.State{avail.S1, avail.S2} {
			rowSum := 0.0
			for to := avail.S1; to <= avail.S5; to++ {
				q := mass(k, from, to)
				if q < 0 || q > 1+1e-9 {
					return false
				}
				rowSum += q
				// H(i,j,·) = q/Q is a mass function when no entry is
				// negative and the support is ascending inside
				// 1..horizon (nothing sits at holding time 0).
				fi, prev := fromIndex(from), int32(0)
				for i, l := range k.hold[fi][to] {
					if k.q[fi][to][i] < 0 || l <= prev || int(l) > k.horizon {
						return false
					}
					prev = l
				}
			}
			if rowSum > 1+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// Property (Figure 3): mass never appears outside the eight legal pairs.
func TestSparsityProperty(t *testing.T) {
	k := randomKernel(rng.New(99), 20)
	for from := avail.S1; from <= avail.S5; from++ {
		for to := avail.S1; to <= avail.S5; to++ {
			if !Legal(from, to) && mass(k, from, to) != 0 {
				t.Fatalf("illegal pair (%v,%v) carries mass", from, to)
			}
		}
	}
}

func TestSolveOpsGrowSuperlinearly(t *testing.T) {
	k := randomKernel(rng.New(5), 2000)
	r1, err := k.Solve(avail.S1, 500)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := k.Solve(avail.S1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the window must cost more than 4x the ops (the DP is O(N^2)).
	if r2.Ops <= 4*r1.Ops {
		t.Fatalf("ops growth not superlinear: %d -> %d", r1.Ops, r2.Ops)
	}
}

// requireSolversAgree fails unless the serving solver and the dense reference
// agree bit for bit at the given horizon: all six P_{i,j}(m) columns at every
// m, and the TRs ReliabilitiesWS returns.
func requireSolversAgree(t *testing.T, k *Kernel, ws *Workspace, units int) {
	t.Helper()
	dense, _ := k.solveDense(units)
	sparse := k.solve(ws, units)
	for fi := 0; fi < 2; fi++ {
		for ji := 0; ji < 3; ji++ {
			for m := 0; m <= units; m++ {
				d, s := dense.p[fi][ji][m], sparse.p[fi][ji][m]
				if math.Float64bits(d) != math.Float64bits(s) {
					t.Fatalf("units %d: P[%d][%d](%d): dense %v != sparse %v", units, fi, ji, m, d, s)
				}
			}
		}
	}
	tr1, tr2, err := k.ReliabilitiesWS(ws, units)
	if err != nil {
		t.Fatal(err)
	}
	for fi, init := range []avail.State{avail.S1, avail.S2} {
		ref, err := k.Solve(init, units)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]float64{tr1, tr2}[fi]; math.Float64bits(got) != math.Float64bits(ref.TR) {
			t.Fatalf("units %d init %v: ReliabilitiesWS %v != Solve %v", units, init, got, ref.TR)
		}
	}
}

// TestSparseSolverMatchesDense: the serving solver must be bit-identical to
// the dense Equation (3) recursion, also when one workspace is reused across
// kernels and horizons.
func TestSparseSolverMatchesDense(t *testing.T) {
	ws := &Workspace{}
	for trial := 0; trial < 10; trial++ {
		k := randomKernel(rng.New(uint64(trial)+77), 60)
		for _, units := range []int{60, 0, 1, 7, 33, 60} {
			requireSolversAgree(t, k, ws, units)
			requireSolversAgree(t, k, nil, units)
		}
	}
}

// TestSparseSolverMatchesDenseGolden runs the differential over kernels
// estimated the way the predictor estimates them, from the golden workload of
// internal/predict (seed 7, one-minute sampling) at the window lengths of
// Figure 4.
func TestSparseSolverMatchesDenseGolden(t *testing.T) {
	ds, err := workload.Generate(workload.Params{
		Machines:         2,
		Days:             12,
		Start:            time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC),
		Period:           time.Minute,
		Seed:             7,
		TotalMemMB:       512,
		ActivityScale:    1.0,
		RebootProb:       0.07,
		DailyFailureProb: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := avail.DefaultConfig()
	ex := avail.NewExtractor(cfg, time.Minute)
	ws := &Workspace{}
	for _, m := range ds.Machines {
		for _, length := range []time.Duration{time.Hour, 5 * time.Hour, 10 * time.Hour} {
			ex.Reset(cfg, time.Minute)
			for _, d := range m.DaysOfType(trace.Weekday) {
				ex.AddWindow(d.Window(8*time.Hour, length), false)
			}
			units := int(length / time.Minute)
			k, err := Estimator{Horizon: units}.Estimate(ex.Seqs())
			if err != nil {
				t.Fatal(err)
			}
			if mass(k, avail.S1, avail.S2) == 0 {
				t.Fatalf("%s %v: no cross mass, the convolution is not exercised", m.ID, length)
			}
			requireSolversAgree(t, k, ws, units)
		}
	}
}

// fuzzKernel builds a kernel of the given horizon from raw bytes: byte
// 8*(l-1)+i is the mass, in 1/255ths, of LegalTransitions[i] at holding time
// l (missing bytes are zero), scaled down per from-state when it sums past 1.
func fuzzKernel(horizon int, data []byte) *Kernel {
	q := &denseQ{}
	var total [2]float64
	for i, p := range LegalTransitions {
		fi := fromIndex(p[0])
		qs := make([]float64, horizon+1)
		for l := 1; l <= horizon; l++ {
			if at := 8*(l-1) + i; at < len(data) {
				qs[l] = float64(data[at]) / 255
				total[fi] += qs[l]
			}
		}
		q[fi][p[1]] = qs
	}
	for _, p := range LegalTransitions {
		if fi := fromIndex(p[0]); total[fi] > 1 {
			for l := range q[fi][p[1]] {
				q[fi][p[1]][l] /= total[fi]
			}
		}
	}
	return fromDense(horizon, q)
}

// FuzzSolverMatchesDense: whatever the kernel's support looks like, the
// serving solver equals the dense reference bit for bit.
func FuzzSolverMatchesDense(f *testing.F) {
	const h = 24
	seed := func(mass func(i, l int) byte) []byte {
		data := make([]byte, 8*h)
		for l := 1; l <= h; l++ {
			for i := 0; i < 8; i++ {
				data[8*(l-1)+i] = mass(i, l)
			}
		}
		return data
	}
	cross := func(i int) bool { return i == 0 || i == 4 } // S1→S2, S2→S1
	// An all-zero cross kernel: only direct absorption.
	f.Add(uint8(h), uint8(h), seed(func(i, l int) byte {
		if cross(i) {
			return 0
		}
		return byte(l)
	}))
	// A fully dense one: every holding time of every transition observed.
	f.Add(uint8(h), uint8(h), seed(func(i, l int) byte { return byte(1 + 7*i + l) }))
	// Cross mass only at l = units, which no step of the recursion reads.
	f.Add(uint8(h), uint8(h), seed(func(i, l int) byte {
		if cross(i) == (l == h) {
			return 40
		}
		return 0
	}))
	// A window shorter than the horizon, and the empty window.
	f.Add(uint8(h), uint8(5), seed(func(i, l int) byte { return byte(i * l) }))
	f.Add(uint8(1), uint8(0), []byte{255})
	f.Fuzz(func(t *testing.T, horizon, units uint8, data []byte) {
		if horizon == 0 || units > horizon {
			t.Skip()
		}
		requireSolversAgree(t, fuzzKernel(int(horizon), data), nil, int(units))
	})
}

// requireEstimateMatchesDense fails unless EstimateWS on ws and the dense
// reference agree: the same error or none, and then Float64bits-equal q at
// every (from, to, l) with the support ascending inside 1..horizon. Either way
// a non-nil ws must come back with every count zero.
func requireEstimateMatchesDense(t *testing.T, ws *Workspace, horizon int, seqs [][]avail.Sojourn) {
	t.Helper()
	ref, refErr := referenceEstimate(horizon, seqs)
	k, err := Estimator{Horizon: horizon}.EstimateWS(ws, seqs)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("horizon %d: EstimateWS err %v, reference err %v", horizon, err, refErr)
	}
	for fi := 0; ws != nil && fi < 2; fi++ {
		for _, row := range append(ws.events[fi][:], ws.censored[fi]) {
			for l, c := range row[:cap(row)] {
				if c != 0 {
					t.Fatalf("horizon %d: workspace left count %d at fi %d, l %d", horizon, c, fi, l)
				}
			}
		}
	}
	if err != nil {
		return
	}
	for fi := 0; fi < 2; fi++ {
		for to := avail.S1; to <= avail.S5; to++ {
			prev := int32(0)
			for _, l := range k.hold[fi][to] {
				if l <= prev || int(l) > horizon {
					t.Fatalf("horizon %d: support of (%d,%v) not ascending in 1..%d: %v", horizon, fi, to, horizon, k.hold[fi][to])
				}
				prev = l
			}
			for l := 0; l <= horizon; l++ {
				want := 0.0
				if ref[fi][to] != nil {
					want = ref[fi][to][l]
				}
				if got := qAt(k, fi, to, l); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("horizon %d: q(%d,%v,%d) = %v, dense %v", horizon, fi, to, l, got, want)
				}
			}
		}
	}
}

// TestEstimateMatchesDense: the sparse estimator reproduces the dense one bit
// for bit, with one workspace reused across horizons (60 → 7 → 60, so the
// middle one caps and censors most sojourns), after an illegal transition
// and after a walk that stops early (every S1 sojourn ends by l = 2).
func TestEstimateMatchesDense(t *testing.T) {
	ws := &Workspace{}
	for trial := 0; trial < 10; trial++ {
		seqs := randomSeqs(rng.New(uint64(trial)+300), 60)
		for _, h := range []int{60, 7, 60} {
			requireEstimateMatchesDense(t, ws, h, seqs)
		}
		requireEstimateMatchesDense(t, nil, 60, seqs)
	}
	illegal := [][]avail.Sojourn{
		{{State: avail.S1, Units: 3}, {State: avail.S2, Units: 4}, {State: avail.S3, Units: 1}},
		{{State: avail.S2, Units: 5}, {State: avail.S2, Units: 1}},
	}
	early := [][]avail.Sojourn{
		{{State: avail.S1, Units: 1}, {State: avail.S3, Units: 1}},
		{{State: avail.S1, Units: 2}, {State: avail.S2, Units: 9}},
		{{State: avail.S2, Units: 40}},
	}
	for _, seqs := range [][][]avail.Sojourn{illegal, early, randomSeqs(rng.New(1), 60)} {
		requireEstimateMatchesDense(t, ws, 60, seqs)
	}
}

// fuzzSeqs decodes training windows from raw bytes, two a sojourn: a first
// byte ≡ 0 (mod 6) closes the window, otherwise it names the state (S1..S5)
// and the second byte the holding time (0..255, so some exceed any horizon).
// Nothing keeps the transitions legal.
func fuzzSeqs(data []byte) [][]avail.Sojourn {
	var seqs [][]avail.Sojourn
	var seq []avail.Sojourn
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%6 == 0 {
			seqs, seq = append(seqs, seq), nil
			continue
		}
		seq = append(seq, avail.Sojourn{State: avail.State(data[i] % 6), Units: int(data[i+1])})
	}
	return append(seqs, seq)
}

// FuzzEstimateMatchesDense: whatever the training windows, EstimateWS equals
// the dense reference bit for bit, on one workspace reused at the horizon, a
// shorter one and the horizon again.
func FuzzEstimateMatchesDense(f *testing.F) {
	f.Add(uint8(30), []byte{1, 3, 2, 2, 3, 5, 0, 0, 1, 4})                    // TestEstimateCounts' windows
	f.Add(uint8(10), []byte{1, 200, 3, 1, 0, 0, 2, 7})                        // over-horizon and censored
	f.Add(uint8(20), []byte{1, 2, 2, 3, 1, 4, 0, 0, 2, 1, 2, 1})              // S2 → S2 is illegal
	f.Add(uint8(12), []byte{1, 1, 4, 1, 0, 0, 1, 1, 5, 1, 0, 0, 2, 12, 1, 6}) // early exit from S1
	f.Fuzz(func(t *testing.T, horizon uint8, data []byte) {
		if horizon == 0 {
			t.Skip()
		}
		seqs, ws := fuzzSeqs(data), &Workspace{}
		for _, h := range []int{int(horizon), 1 + int(horizon)/3, int(horizon)} {
			requireEstimateMatchesDense(t, ws, h, seqs)
		}
	})
}

// TestReliabilitiesWSWarmAllocatesNothing: the solve reads the kernel's own
// support and writes only the workspace, so the engine's miss path solves
// without allocating.
func TestReliabilitiesWSWarmAllocatesNothing(t *testing.T) {
	k := randomKernel(rng.New(9), 400)
	ws := &Workspace{}
	if _, _, err := k.ReliabilitiesWS(ws, 400); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := k.ReliabilitiesWS(ws, 400); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ReliabilitiesWS allocates %v times per solve", allocs)
	}
}

// TestEstimateWSWarmAllocatesOnlyTheKernel: counting happens in the
// workspace, so a warm estimate allocates the Kernel and the two backing
// arrays of its support, nothing that grows with the horizon.
func TestEstimateWSWarmAllocatesOnlyTheKernel(t *testing.T) {
	seqs := randomSeqs(rng.New(9), 400)
	ws := &Workspace{}
	if _, err := (Estimator{Horizon: 400}).EstimateWS(ws, seqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (Estimator{Horizon: 400}).EstimateWS(ws, seqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("warmed EstimateWS allocates %v times per estimate, want 3", allocs)
	}
}

func TestSparseSolverErrors(t *testing.T) {
	k, _ := Estimator{Horizon: 10}.Estimate(nil)
	if _, _, err := k.ReliabilitiesWS(nil, 11); err == nil {
		t.Fatal("window beyond horizon accepted")
	}
	if _, _, err := k.ReliabilitiesWS(&Workspace{}, -1); err == nil {
		t.Fatal("negative window accepted")
	}
}
