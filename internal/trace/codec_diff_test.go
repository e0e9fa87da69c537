package trace_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// cutError reports whether err says the input ended early. A cut inside a
// run of sample records reads as io.ErrUnexpectedEOF where the reference,
// reading one record at a time, reports io.EOF on a record boundary.
func cutError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// TestBinaryCodecMatchesReference holds the codec to the reflective one it
// replaced, on seeded workload datasets: the same bytes from the io.Writer
// form, the append form and the reference, the size function equal to their
// length, DeepEqual datasets back from both decoders, and every truncated
// prefix refused by both with the same error.
func TestBinaryCodecMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name           string
		period         time.Duration
		machines, days int
		stride         int // distance between the cuts tried
	}{
		{"10m-period", 10 * time.Minute, 2, 3, 1},
		{"6s-period", trace.DefaultPeriod, 1, 2, 9973}, // days of several read chunks
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			p := workload.DefaultParams()
			p.Machines, p.Days, p.Period, p.Seed = c.machines, c.days, c.period, seed
			ds, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if err := trace.ReferenceWriteBinary(&want, ds); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteBinary(&got, ds); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s seed %d: WriteBinary differs from the reference (%v)", c.name, seed, err)
			}
			if n := trace.BinarySize(ds); n != want.Len() {
				t.Fatalf("%s seed %d: BinarySize %d, encoded %d", c.name, seed, n, want.Len())
			}
			ref, err := trace.ReferenceReadBinary(bytes.NewReader(want.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := trace.ReadBinary(bytes.NewReader(want.Bytes()))
			if err != nil || !reflect.DeepEqual(dec, ref) {
				t.Fatalf("%s seed %d: ReadBinary differs from the reference (%v)", c.name, seed, err)
			}
			for cut := 0; cut < want.Len(); cut += c.stride {
				_, refErr := trace.ReferenceReadBinary(bytes.NewReader(want.Bytes()[:cut]))
				_, err := trace.ReadBinary(bytes.NewReader(want.Bytes()[:cut]))
				if err == nil || refErr == nil {
					t.Fatalf("%s seed %d: %d-byte prefix accepted (%v, reference %v)", c.name, seed, cut, err, refErr)
				}
				if err.Error() != refErr.Error() && !(cutError(err) && cutError(refErr)) {
					t.Fatalf("%s seed %d: %d-byte prefix: %v, reference %v", c.name, seed, cut, err, refErr)
				}
			}
		}
	}
}
