package monitor

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

var epoch = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(t time.Time, s trace.Sample)

func (f sinkFunc) Record(t time.Time, s trace.Sample) { f(t, s) }

func TestNewValidation(t *testing.T) {
	src := StaticSource{CPU: 10, FreeMemMB: 200}
	sink := sinkFunc(func(time.Time, trace.Sample) {})
	if _, err := New(Config{Period: 0}, src, sink); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := New(Config{Period: time.Second}, nil, sink); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := New(Config{Period: time.Second}, src); err == nil {
		t.Fatal("no sinks accepted")
	}
}

func TestMonitorSamplesPeriodically(t *testing.T) {
	clock := simclock.NewVirtual(epoch)
	var mu sync.Mutex
	var got []trace.Sample
	var times []time.Time
	sink := sinkFunc(func(ts time.Time, s trace.Sample) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, s)
		times = append(times, ts)
	})
	recorded := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	m, err := New(Config{Period: 6 * time.Second, Clock: clock}, StaticSource{CPU: 42, FreeMemMB: 300}, sink)
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()
	defer m.Stop()
	// Drive 10 ticks deterministically.
	for i := 0; i < 10; i++ {
		waitForTimer(t, clock)
		clock.Advance(6 * time.Second)
		deadline := time.Now().Add(2 * time.Second)
		for recorded() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("sink stuck at %d samples waiting for %d", recorded(), i+1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("sink saw %d samples, want 10", len(got))
	}
	for i, s := range got {
		if s.CPU != 42 || s.FreeMemMB != 300 || !s.Up {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
	for i := 1; i < len(times); i++ {
		if d := times[i].Sub(times[i-1]); d != 6*time.Second {
			t.Fatalf("inter-sample gap %v", d)
		}
	}
}

func waitForTimer(t *testing.T, clock *simclock.Virtual) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for clock.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("monitor never armed its timer")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMonitorCountsSourceErrors(t *testing.T) {
	mx := NewMetrics(obs.NewRegistry())
	m, err := New(Config{Period: time.Second, Metrics: mx},
		StaticSource{Err: errors.New("boom")},
		sinkFunc(func(time.Time, trace.Sample) { t.Fatal("sink called on error") }))
	if err != nil {
		t.Fatal(err)
	}
	m.Tick(epoch)
	if mx.Errors.Value() != 1 || mx.Samples.Value() != 0 {
		t.Fatalf("errors=%d samples=%d", mx.Errors.Value(), mx.Samples.Value())
	}
}

// TestMonitorRefusesNonFiniteReadings: a NaN or infinite reading in either
// column is a source error, and no sink sees it; so is a finite reading past
// the 2^40 units a log can hold, whose unit count would not survive the WAL.
func TestMonitorRefusesNonFiniteReadings(t *testing.T) {
	for _, src := range []StaticSource{
		{CPU: math.NaN(), FreeMemMB: 400},
		{CPU: math.Inf(1), FreeMemMB: 400},
		{CPU: 5, FreeMemMB: math.Inf(-1)},
		{CPU: 5, FreeMemMB: math.NaN()},
		{CPU: 1e17, FreeMemMB: 400},
		{CPU: -1e11, FreeMemMB: 400},
		{CPU: 5, FreeMemMB: 1e11},
	} {
		mx := NewMetrics(obs.NewRegistry())
		m, err := New(Config{Period: time.Second, Metrics: mx}, src,
			sinkFunc(func(_ time.Time, s trace.Sample) { t.Fatalf("sink called with %+v", s) }))
		if err != nil {
			t.Fatal(err)
		}
		m.Tick(epoch)
		if mx.Errors.Value() != 1 || mx.Samples.Value() != 0 {
			t.Fatalf("%+v: errors=%d samples=%d", src, mx.Errors.Value(), mx.Samples.Value())
		}
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t_monitor")
	want := epoch.Add(12345 * time.Second)
	if err := WriteHeartbeat(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeartbeat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("heartbeat = %v, want %v", got, want)
	}
}

func TestReadHeartbeatErrors(t *testing.T) {
	if _, err := ReadHeartbeat(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(path, []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeartbeat(path); err == nil {
		t.Fatal("corrupt heartbeat accepted")
	}
}

func TestDetectRevocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t_monitor")
	last := epoch
	if err := WriteHeartbeat(path, last); err != nil {
		t.Fatal(err)
	}
	// Fresh heartbeat: no gap.
	if _, _, err := DetectRevocation(path, last.Add(10*time.Second), 18*time.Second); !errors.Is(err, ErrNoGap) {
		t.Fatalf("err = %v, want ErrNoGap", err)
	}
	// Stale heartbeat: the machine was down from t_monitor until now.
	now := last.Add(10 * time.Minute)
	from, to, err := DetectRevocation(path, now, 18*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !from.Equal(last) || !to.Equal(now) {
		t.Fatalf("gap = [%v, %v)", from, to)
	}
}

func TestMonitorWritesHeartbeat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t_monitor")
	m, err := New(Config{Period: time.Second, HeartbeatPath: path},
		StaticSource{CPU: 1, FreeMemMB: 1},
		sinkFunc(func(time.Time, trace.Sample) {}))
	if err != nil {
		t.Fatal(err)
	}
	now := epoch.Add(time.Hour)
	m.Tick(now)
	got, err := ReadHeartbeat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(now) {
		t.Fatalf("heartbeat = %v, want %v", got, now)
	}
}

func TestRecorderBuildsDays(t *testing.T) {
	r := NewRecorder("lab-01", 6*time.Second, 0)
	for i := 0; i < 100; i++ {
		r.Record(epoch.Add(time.Duration(i)*6*time.Second), trace.Sample{CPU: float64(i), FreeMemMB: 100, Up: true})
	}
	m := logOf(r)
	if len(m.Days) != 1 {
		t.Fatalf("days = %d", len(m.Days))
	}
	if m.Days[0].Samples[50].CPU != 50 {
		t.Fatalf("sample 50 = %+v", m.Days[0].Samples[50])
	}
}

// logOf returns a deep copy of the log r holds, read through View.
func logOf(r *Recorder) (log *trace.Machine) {
	r.View(func(m *trace.Machine, _ time.Time) { log = m.Clone() })
	return log
}

func TestRecorderSpansMidnight(t *testing.T) {
	r := NewRecorder("lab-01", 6*time.Second, 0)
	start := epoch.Add(24*time.Hour - 30*time.Second)
	for i := 0; i < 20; i++ {
		r.Record(start.Add(time.Duration(i)*6*time.Second), trace.Sample{CPU: 5, FreeMemMB: 100, Up: true})
	}
	m := logOf(r)
	if len(m.Days) != 2 {
		t.Fatalf("days = %d, want 2 (midnight crossing)", len(m.Days))
	}
}

func TestRecorderBackfillsGapsAsDowntime(t *testing.T) {
	r := NewRecorder("lab-01", 6*time.Second, 0)
	r.Record(epoch, trace.Sample{CPU: 5, FreeMemMB: 100, Up: true})
	// 5-minute gap: the machine was revoked.
	r.Record(epoch.Add(5*time.Minute), trace.Sample{CPU: 5, FreeMemMB: 100, Up: true})
	m := logOf(r)
	day := m.Days[0]
	down := 0
	for _, s := range day.Samples[:day.IndexAt(6*time.Minute)] {
		if !s.Up {
			down++
		}
	}
	// ~49 periods of 6 s inside the 5-minute gap.
	if down < 45 || down > 52 {
		t.Fatalf("back-filled down samples = %d", down)
	}
}

// TestRecorderViewSeesAConsistentLog reads the live log through View while
// samples land from another goroutine. Every sample carries its index, and a
// view must find exactly the samples up to the last-sample timestamp it is
// handed. Under -race this is the test that fails if View reads unlocked.
func TestRecorderViewSeesAConsistentLog(t *testing.T) {
	const n = 2000
	r := NewRecorder("lab-01", 6*time.Second, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			r.Record(epoch.Add(time.Duration(i)*6*time.Second), trace.Sample{CPU: float64(i), Up: true})
		}
	}()
	for seen := 0; seen < n; {
		r.View(func(m *trace.Machine, last time.Time) {
			if last.IsZero() {
				return
			}
			seen = int(last.Sub(epoch) / (6 * time.Second))
			day := m.Days[0].Samples
			if day[seen].CPU != float64(seen) || day[seen+1].CPU != 0 {
				t.Errorf("view at sample %d: log holds %v then %v", seen, day[seen].CPU, day[seen+1].CPU)
				seen = n
			}
		})
	}
	<-done
}

// TestRecorderStragglerDoesNotBackfill: a late sample (clock step) must not
// rewind the gap detector. Six on-time samples, a straggler five periods
// old, then the next on-time sample — no gap ever opened, so every recorded
// sample stays up.
func TestRecorderStragglerDoesNotBackfill(t *testing.T) {
	const period = 6 * time.Second
	r := NewRecorder("lab-01", period, 0)
	up := trace.Sample{CPU: 5, FreeMemMB: 100, Up: true}
	at := epoch.Add(time.Hour)
	for i := -5; i <= 0; i++ {
		r.Record(at.Add(time.Duration(i)*period), up)
	}
	r.Record(at.Add(-5*period), up)
	r.Record(at.Add(period), up)
	day := logOf(r).Days[0]
	for i := day.IndexAt(time.Hour - 5*period); i <= day.IndexAt(time.Hour+period); i++ {
		if !day.Samples[i].Up {
			t.Fatalf("sample %d (offset %v) back-filled as down after a straggler", i, time.Duration(i)*period)
		}
	}
}

func TestRecorderIgnoresOutOfOrder(t *testing.T) {
	r := NewRecorder("lab-01", 6*time.Second, 0)
	r.Record(epoch.Add(24*time.Hour), trace.Sample{Up: true})
	// Earlier day arrives afterwards: must be dropped, not corrupt the log.
	r.Record(epoch, trace.Sample{Up: true})
	if r.Days() != 1 {
		t.Fatalf("days = %d", r.Days())
	}
}

func TestReplaySource(t *testing.T) {
	d := trace.NewDay(epoch, time.Minute)
	for i := range d.Samples {
		d.Samples[i] = trace.Sample{CPU: float64(i % 100), FreeMemMB: 50, Up: i%7 != 3}
	}
	src, err := NewReplaySource([]*trace.Day{d})
	if err != nil {
		t.Fatal(err)
	}
	okReads, errReads := 0, 0
	for i := 0; i < d.Len()*2; i++ { // loops around
		_, _, err := src.Read()
		if err != nil {
			errReads++
		} else {
			okReads++
		}
	}
	if errReads == 0 || okReads == 0 {
		t.Fatalf("ok=%d err=%d: down samples must read as errors", okReads, errReads)
	}
	if _, err := NewReplaySource(nil); err == nil {
		t.Fatal("empty replay accepted")
	}
	if _, err := NewReplaySource([]*trace.Day{{Date: epoch, Period: time.Minute}}); err == nil {
		t.Fatal("empty day accepted")
	}
}

func TestProcSourceFixtures(t *testing.T) {
	dir := t.TempDir()
	stat := filepath.Join(dir, "stat")
	meminfo := filepath.Join(dir, "meminfo")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(stat, "cpu  100 0 100 800 0 0 0 0 0 0\ncpu0 100 0 100 800 0 0 0 0 0 0\n")
	write(meminfo, "MemTotal: 1024000 kB\nMemFree: 256000 kB\nMemAvailable: 512000 kB\n")
	src := &ProcSource{StatPath: stat, MeminfoPath: meminfo}
	cpu, free, err := src.Read()
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 0 {
		t.Fatalf("first read cpu = %v, want 0 (unprimed)", cpu)
	}
	if free != 500 {
		t.Fatalf("free = %v MB, want 500 (MemAvailable)", free)
	}
	// 100 more busy jiffies out of 200 total: 50% busy.
	write(stat, "cpu  150 0 150 900 0 0 0 0 0 0\n")
	cpu, _, err = src.Read()
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 50 {
		t.Fatalf("cpu = %v, want 50", cpu)
	}
}

func TestProcSourceMemFreeFallback(t *testing.T) {
	dir := t.TempDir()
	stat := filepath.Join(dir, "stat")
	meminfo := filepath.Join(dir, "meminfo")
	os.WriteFile(stat, []byte("cpu  1 0 1 8 0 0 0 0 0 0\n"), 0o644)
	os.WriteFile(meminfo, []byte("MemFree: 102400 kB\n"), 0o644)
	src := &ProcSource{StatPath: stat, MeminfoPath: meminfo}
	_, free, err := src.Read()
	if err != nil {
		t.Fatal(err)
	}
	if free != 100 {
		t.Fatalf("free = %v, want 100 (MemFree fallback)", free)
	}
}

func TestProcSourceErrors(t *testing.T) {
	dir := t.TempDir()
	src := &ProcSource{StatPath: filepath.Join(dir, "nope"), MeminfoPath: filepath.Join(dir, "nope")}
	if _, _, err := src.Read(); err == nil {
		t.Fatal("missing files accepted")
	}
	stat := filepath.Join(dir, "stat")
	os.WriteFile(stat, []byte("no cpu line here\n"), 0o644)
	meminfo := filepath.Join(dir, "meminfo")
	os.WriteFile(meminfo, []byte("MemAvailable: 1 kB\n"), 0o644)
	src = &ProcSource{StatPath: stat, MeminfoPath: meminfo}
	if _, _, err := src.Read(); err == nil {
		t.Fatal("statfile without cpu line accepted")
	}
	os.WriteFile(stat, []byte("cpu  a b c d\n"), 0o644)
	if _, _, err := src.Read(); err == nil {
		t.Fatal("malformed cpu fields accepted")
	}
	os.WriteFile(stat, []byte("cpu  1 0 1 8 0 0 0 0 0 0\n"), 0o644)
	os.WriteFile(meminfo, []byte("nothing useful\n"), 0o644)
	if _, _, err := src.Read(); err == nil {
		t.Fatal("meminfo without memory fields accepted")
	}
}

func TestProcSourceRealSystem(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("/proc not available")
	}
	src := NewProcSource()
	if _, _, err := src.Read(); err != nil {
		t.Fatalf("real /proc read failed: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	cpu, free, err := src.Read()
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0 || cpu > 100 || free <= 0 {
		t.Fatalf("implausible readings cpu=%v free=%v", cpu, free)
	}
}
