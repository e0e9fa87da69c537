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
// replaced, on seeded workload datasets. Their days are float32-tagged, and
// FGCSTRC2 less its tags is the reference's bytes; the size function equals
// the length; both decoders give back DeepEqual datasets from either
// version; and every truncated prefix is refused, with the reference's
// error for FGCSTRC1. The same datasets quantized are compact-tagged, decode
// to the same bits, and refuse every truncated prefix too.
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
			if err := trace.WriteBinary(&got, ds); err != nil || !bytes.Equal(trace.Untag(t, got.Bytes()), want.Bytes()) {
				t.Fatalf("%s seed %d: WriteBinary differs from the reference (%v)", c.name, seed, err)
			}
			if b, err := trace.AppendBinary(nil, ds); err != nil || !bytes.Equal(b, got.Bytes()) {
				t.Fatalf("%s seed %d: AppendBinary differs from WriteBinary (%v)", c.name, seed, err)
			}
			ref, err := trace.ReferenceReadBinary(bytes.NewReader(want.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{want.Bytes(), got.Bytes()} {
				dec, err := trace.ReadBinary(bytes.NewReader(enc))
				if err != nil || !reflect.DeepEqual(dec, ref) {
					t.Fatalf("%s seed %d: ReadBinary of %.8s differs from the reference (%v)", c.name, seed, enc, err)
				}
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
			refusesPrefixes(t, got.Bytes(), c.stride)

			for _, m := range ds.Machines {
				for _, d := range m.Days {
					for i := range d.Samples {
						d.Samples[i] = trace.Quantize(d.Samples[i])
					}
				}
			}
			var compact bytes.Buffer
			if err := trace.WriteBinary(&compact, ds); err != nil {
				t.Fatal(err)
			}
			if compact.Len()*2 > got.Len() {
				t.Fatalf("%s seed %d: quantized, encoded %d, against %d float32", c.name, seed, compact.Len(), got.Len())
			}
			dec, err := trace.ReadBinary(bytes.NewReader(compact.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range ds.Machines {
				for j, d := range m.Days {
					if k, ok := trace.SameBits(d.Samples, dec.Machines[i].Days[j].Samples); !ok {
						t.Fatalf("%s seed %d: machine %d day %d sample %d decoded as %+v, wrote %+v",
							c.name, seed, i, j, k, dec.Machines[i].Days[j].Samples[k], d.Samples[k])
					}
				}
			}
			refusesPrefixes(t, compact.Bytes(), c.stride)
		}
	}
}

// refusesPrefixes fails t if ReadBinary accepts a proper prefix of enc,
// trying every stride-th cut.
func refusesPrefixes(t *testing.T, enc []byte, stride int) {
	t.Helper()
	for cut := 0; cut < len(enc); cut += stride {
		if _, err := trace.ReadBinary(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte %.8s file accepted", cut, len(enc), enc)
		}
	}
}
