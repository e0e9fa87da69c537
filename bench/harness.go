package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// fixture is one built instance of a workload: the program under test wired
// up, plus the seeded schedule that drives it.
type fixture interface {
	// prepare readies the fixture for a repetition of n schedule slots,
	// rebuilding or rewinding whatever state would otherwise drift from one
	// repetition to the next. It runs outside the timed region.
	prepare(n int) error
	// run executes the prepared repetition, closed loop, checks every answer,
	// and returns the latency in ns of each measured op (valid until the next
	// prepare). With a tracer it records a span around each call into a
	// layer.
	run(tr *tracer) ([]int64, error)
	// finish ends the repetition and reports what it produced; checks that
	// span the whole repetition are made here, outside the timed region.
	finish() repOutcome
	// ladder times successively deeper public entry points on the first
	// `ops` requests of the workload's stream, one span per call, and fills
	// in the counts and derived self times of the workload's per-layer
	// metrics.
	ladder(tr *tracer, ls *layerSet, ops int) error
	close()
}

// repOutcome is what one repetition produced.
type repOutcome struct {
	attempted int    // operations attempted, measured or not
	failed    int    // operations that errored or failed their check
	answers   uint64 // digest of the answers, equal across repetitions
	notes     []string
}

// runOptions sizes a run. The zero values of reps, setups and ops select the
// definition's (maxReps, setupRuns, ops from seconds).
type runOptions struct {
	seed    uint64
	seconds float64
	quick   bool
	reps    int
	setups  int
	ops     int
}

// repStats are one timed repetition's numbers; every repetition's are
// printed, the run's timing metrics come from the fastest.
type repStats struct {
	WallS        float64 `json:"wall_s"`
	Ops          int     `json:"ops"`
	OpsPerS      float64 `json:"ops_per_s"`
	P50us        float64 `json:"op_p50_us"`
	P90us        float64 `json:"op_p90_us"`
	P99us        float64 `json:"op_p99_us"`
	CPUusPerOp   float64 `json:"cpu_us_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	Answers      string  `json:"answers"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the stable machine-readable result of one workload run.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Traced       bool                   `json:"traced"`
	Metrics      map[string]metricValue `json:"metrics"`
	Layers       map[string]metricValue `json:"layers,omitempty"`
	Reps         []repStats             `json:"reps"`
	BestRep      int                    `json:"best_rep"` // the repetition (from 1) the timing metrics come from
	SetupS       []float64              `json:"setup_s,omitempty"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Answers      string                 `json:"answers"`
	CalibSpinMS  float64                `json:"calib_spin_ms"`
	TraceFile    string                 `json:"trace_file,omitempty"`
	Notes        []string               `json:"notes,omitempty"`
}

func (r *runResult) correct() bool { return r.OpsFailed == 0 && len(r.Notes) == 0 }

// repOps is the number of schedule slots of one repetition: fixed by the
// arguments, a whole number of schedule cycles.
func repOps(spec workloadSpec, o runOptions) int {
	n := int(spec.opsPerSecond * o.seconds / maxReps)
	switch {
	case o.ops > 0:
		n = o.ops
	case o.quick:
		n /= 10
	case n < spec.minOps:
		n = spec.minOps
	}
	return roundUp(n, spec.cycle)
}

func roundUp(n, cycle int) int {
	if n < cycle {
		return cycle
	}
	return (n + cycle - 1) / cycle * cycle
}

// measured is one repetition with the process counters around it.
type measured struct {
	wall, cpu  time.Duration
	lat        []int64 // aliases the fixture's buffer
	out        repOutcome
	allocBytes uint64
}

// measureRep runs one repetition of n slots: prepare and a forced GC outside
// the clock, then the run between two readings of wall time, process CPU time
// and bytes allocated.
func measureRep(fx fixture, n int, tr *tracer) (measured, error) {
	if err := fx.prepare(n); err != nil {
		return measured{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	lat, err := fx.run(tr)
	m := measured{wall: time.Since(t0), cpu: processCPU() - cpu0, lat: lat}
	if err != nil {
		return measured{}, err
	}
	if len(lat) == 0 {
		return measured{}, fmt.Errorf("the repetition measured no operations")
	}
	runtime.ReadMemStats(&m1)
	m.out = fx.finish()
	m.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return m, nil
}

// stats reduces the repetition to its numbers: ops over wall time,
// percentiles of the op latencies, CPU time and bytes allocated over ops.
func (m measured) stats() repStats {
	sorted := append([]int64(nil), m.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ops := float64(len(sorted))
	return repStats{
		WallS:        m.wall.Seconds(),
		Ops:          len(sorted),
		OpsPerS:      ops / m.wall.Seconds(),
		P50us:        float64(percentile(sorted, 0.5)) / 1e3,
		P90us:        float64(percentile(sorted, 0.9)) / 1e3,
		P99us:        float64(percentile(sorted, 0.99)) / 1e3,
		CPUusPerOp:   float64(m.cpu) / 1e3 / ops,
		AllocKBPerOp: float64(m.allocBytes) / 1024 / ops,
		Attempted:    m.out.attempted,
		Failed:       m.out.failed,
		Answers:      fmt.Sprintf("%016x", m.out.answers),
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSpin times a fixed 2e8-step integer loop. The host's speed moves in
// steps, and this number says which step a run saw: about 122 ms in the fast
// mode of the reference box, 250 ms and 420 ms in its slow ones. The loop
// keeps four independent chains busy because the slow modes halve
// throughput, not latency: a single dependent multiply chain reads the same
// in both.
func calibSpin() time.Duration {
	t0 := time.Now()
	spinSink = spin(200_000_000)
	return time.Since(t0)
}

var spinSink uint64

//go:noinline
func spin(n int) uint64 {
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < n; i++ {
		u := uint64(i)
		a += u
		b ^= u
		c += u << 1
		d ^= u >> 1
	}
	return a + b + c + d
}

// runUntraced is the end-to-end measurement of one workload: set-up (several
// times, median reported), one untimed warm-up, then up to maxReps timed
// repetitions of the identical operation sequence. Contention on a shared
// host only ever slows a repetition down, so the four timing metrics are
// taken together from the repetition with the smallest wall time.
func runUntraced(spec workloadSpec, o runOptions) (*runResult, error) {
	res := &runResult{Workload: spec.Name, Seed: o.seed, Metrics: map[string]metricValue{}}
	reps, setups := maxReps, setupRuns
	if o.quick {
		reps, setups = 1, 1
	}
	if o.reps > 0 {
		reps = o.reps
	}
	if o.setups > 0 {
		setups = o.setups
	}
	calib := calibSpin()

	var fx fixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		fx, err = spec.setup(o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}

	n := repOps(spec, o)
	count := func(m measured) {
		res.OpsAttempted += m.out.attempted
		res.OpsFailed += m.out.failed
		res.Notes = append(res.Notes, m.out.notes...)
	}
	if !o.quick {
		warm, err := measureRep(fx, roundUp(n/10, spec.cycle), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", spec.Name, err)
		}
		count(warm)
	}

	budget := time.Duration(o.seconds * 1.15 * float64(time.Second))
	var spent, last time.Duration
	var allocSum float64
	fastest := 0
	for r := 0; r < reps; r++ {
		// The repetition count shrinks before the repetition length: on a
		// slow host the run makes fewer identical repetitions, never
		// shorter ones.
		if r > 0 && o.ops == 0 && spent+last > budget {
			break
		}
		m, err := measureRep(fx, n, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", spec.Name, r+1, err)
		}
		count(m)
		spent, last = spent+m.wall, m.wall
		st := m.stats()
		res.Reps = append(res.Reps, st)
		allocSum += st.AllocKBPerOp
		if st.Answers != res.Reps[0].Answers {
			res.Notes = append(res.Notes, fmt.Sprintf("repetition %d answers %s differ from repetition 1's %s", r+1, st.Answers, res.Reps[0].Answers))
		}
		if st.WallS < res.Reps[fastest].WallS {
			fastest = r
		}
	}
	best := res.Reps[fastest]
	res.BestRep = fastest + 1
	res.Answers = res.Reps[0].Answers

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(fx)
	if c := calibSpin(); c < calib {
		calib = c
	}
	res.CalibSpinMS = float64(calib) / 1e6

	values := map[string]float64{
		"setup_s":         median(res.SetupS),
		"ops_per_s":       best.OpsPerS,
		"op_p50_us":       best.P50us,
		"op_p90_us":       best.P90us,
		"cpu_us_per_op":   best.CPUusPerOp,
		"alloc_kb_per_op": allocSum / float64(len(res.Reps)),
		"live_heap_mb":    float64(ms.HeapAlloc) / (1 << 20),
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), timingMetrics...) {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return res, nil
}

// runTraced produces the per-layer numbers. It first measures the run's
// workload untraced, as runUntraced does, for the four timing metrics. Then,
// for every workload, one repetition runs with the harness recording a span
// around each call into a layer, and the workload's ladder times
// successively deeper public entry points on the same seeded request stream.
// Every traced run measures every ladder — a layer's metric is always a
// number measured in this run — and the run's own workload additionally
// makes the traced repetition untraced first, which gives the tracing
// overhead.
func runTraced(own workloadSpec, o runOptions, traceOut string) (*runResult, error) {
	res, err := runUntraced(own, o)
	if err != nil {
		return nil, err
	}
	res.Traced, res.Layers = true, map[string]metricValue{}
	ls := newLayerSet()
	for _, m := range timingMetrics {
		ls.set(m.Name, res.Metrics[m.Name].Value)
	}
	tr := newTracer()
	for _, spec := range workloads {
		n, rungs := roundUp(repOps(spec, o)/4, spec.cycle), spec.ladderOps
		if o.quick || o.ops > 0 {
			n, rungs = repOps(spec, o), roundUp(rungs/8, spec.ladderCycle)
		}
		err := func() error {
			fx, err := spec.setup(o.seed, true)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			defer fx.close()
			if _, err := measureRep(fx, roundUp(n/10, spec.cycle), nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			var plain measured
			if spec.Name == own.Name {
				if plain, err = measureRep(fx, n, nil); err != nil {
					return fmt.Errorf("untraced repetition: %w", err)
				}
			}
			m, err := measureRep(fx, n, tr)
			if err != nil {
				return fmt.Errorf("traced repetition: %w", err)
			}
			res.OpsAttempted += m.out.attempted
			res.OpsFailed += m.out.failed
			res.Notes = append(res.Notes, m.out.notes...)
			if spec.Name == own.Name {
				if plain.out.answers != m.out.answers {
					res.Notes = append(res.Notes, "traced answers differ from untraced")
				}
				ls.set("bench.trace_overhead_frac", m.wall.Seconds()/plain.wall.Seconds()-1)
			}
			return fx.ladder(tr, ls, rungs)
		}()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	res.CalibSpinMS = math.Min(res.CalibSpinMS, float64(calibSpin())/1e6)
	ls.set("host.calib_spin_ms", res.CalibSpinMS)
	res.Notes = append(res.Notes, ls.errs...)
	for _, l := range perLayer {
		v, ok := ls.vals[l.Name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", l.Name)
		}
		res.Layers[l.Name] = metricValue{v, l.Unit}
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	res.TraceFile = traceOut
	return res, nil
}
