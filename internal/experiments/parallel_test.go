package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"fgcs/internal/trace"
)

// TestSweepsWidthIndependent holds the pool's determinism invariant: the F5
// and X1 sweeps return the same results, bit for bit, on one goroutine
// (GOMAXPROCS=1, the serial run) and across four.
func TestSweepsWidthIndependent(t *testing.T) {
	ds, err := HeterogeneousTestbed(21, DefaultTestbedScales, 9)
	if err != nil {
		t.Fatal(err)
	}
	f5 := DefaultF5Config(trace.Weekday)
	f5.LengthsHours = []float64{1, 3}
	f5.StartHours = []int{8, 14}
	x1 := DefaultX1Config()
	x1.HistoryDays = 14
	type sweeps struct {
		F5 []F5Row
		X1 []X1Row
	}
	run := func(width int) sweeps {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		var s sweeps
		var err error
		if s.F5, err = RunF5(ds, f5); err != nil {
			t.Fatal(err)
		}
		if s.X1, err = RunX1(ds, x1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, wide := run(1), run(4)
	if len(serial.F5) == 0 || len(serial.X1) == 0 {
		t.Fatalf("empty sweeps: %+v", serial)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("GOMAXPROCS=4 %+v\n!= GOMAXPROCS=1 %+v", wide, serial)
	}
}
