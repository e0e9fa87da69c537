package monitor

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"fgcs/internal/trace"
)

// ReplaySource replays a recorded (or generated) trace day sample-by-sample:
// the load source behind `ishared -source replay`.
type ReplaySource struct {
	mu      sync.Mutex
	days    []*trace.Day
	day, ix int
}

// NewReplaySource replays the given days in order, looping at the end.
func NewReplaySource(days []*trace.Day) (*ReplaySource, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("monitor: no days to replay")
	}
	for _, d := range days {
		if d.Len() == 0 {
			return nil, fmt.Errorf("monitor: empty day in replay source")
		}
	}
	return &ReplaySource{days: days}, nil
}

// Read implements LoadSource. Machine-down samples surface as read errors:
// a dead machine's monitor cannot answer, which is exactly how URR manifests
// to the sampling loop.
func (r *ReplaySource) Read() (float64, float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.days[r.day]
	s := d.Samples[r.ix]
	r.ix++
	if r.ix >= d.Len() {
		r.ix = 0
		r.day = (r.day + 1) % len(r.days)
	}
	if !s.Up {
		return 0, 0, fmt.Errorf("monitor: machine down")
	}
	return s.CPU, s.FreeMemMB, nil
}

// StaticSource returns fixed readings; useful for tests and overhead
// benchmarks.
type StaticSource struct {
	CPU, FreeMemMB float64
	Err            error
}

// Read implements LoadSource.
func (s StaticSource) Read() (float64, float64, error) {
	return s.CPU, s.FreeMemMB, s.Err
}

// ProcSource reads real host load from the Linux /proc filesystem — the
// production analogue of the paper's use of top. CPU usage is derived from
// /proc/stat deltas between consecutive reads; free memory comes from
// MemAvailable in /proc/meminfo.
type ProcSource struct {
	// StatPath and MeminfoPath default to the real /proc files; tests
	// point them at fixtures.
	StatPath    string
	MeminfoPath string

	mu                  sync.Mutex
	lastBusy, lastTotal uint64
	primed              bool
}

// NewProcSource returns a source reading the real /proc files.
func NewProcSource() *ProcSource {
	return &ProcSource{StatPath: "/proc/stat", MeminfoPath: "/proc/meminfo"}
}

// Read implements LoadSource.
func (p *ProcSource) Read() (float64, float64, error) {
	busy, total, err := p.readStat()
	if err != nil {
		return 0, 0, err
	}
	freeMB, err := p.readMeminfo()
	if err != nil {
		return 0, 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var cpu float64
	if p.primed && total > p.lastTotal {
		cpu = 100 * float64(busy-p.lastBusy) / float64(total-p.lastTotal)
	}
	p.lastBusy, p.lastTotal, p.primed = busy, total, true
	if cpu < 0 {
		cpu = 0
	}
	if cpu > 100 {
		cpu = 100
	}
	return cpu, freeMB, nil
}

func (p *ProcSource) readStat() (busy, total uint64, err error) {
	b, err := os.ReadFile(p.StatPath)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "cpu ") {
			continue
		}
		fields := strings.Fields(line)[1:]
		if len(fields) < 4 {
			return 0, 0, fmt.Errorf("monitor: malformed cpu line in %s", p.StatPath)
		}
		vals := make([]uint64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("monitor: bad cpu field %q: %w", f, err)
			}
			vals[i] = v
		}
		for i, v := range vals {
			total += v
			// Fields 3 (idle) and 4 (iowait) are not busy time.
			if i != 3 && i != 4 {
				busy += v
			}
		}
		return busy, total, nil
	}
	return 0, 0, fmt.Errorf("monitor: no cpu line in %s", p.StatPath)
}

func (p *ProcSource) readMeminfo() (float64, error) {
	b, err := os.ReadFile(p.MeminfoPath)
	if err != nil {
		return 0, err
	}
	var availableKB, freeKB float64
	var haveAvailable, haveFree bool
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "MemAvailable:":
			availableKB, haveAvailable = v, true
		case "MemFree:":
			freeKB, haveFree = v, true
		}
	}
	switch {
	case haveAvailable:
		return availableKB / 1024, nil
	case haveFree:
		return freeKB / 1024, nil
	}
	return 0, fmt.Errorf("monitor: no memory fields in %s", p.MeminfoPath)
}
