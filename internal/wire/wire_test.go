package wire_test

import (
	"math"
	"strings"
	"testing"

	"fgcs/internal/wire"
	"fgcs/internal/wire/wiretest"
)

var testMagic = [4]byte{'F', 'G', 'T', 'T'}

// record is a layout with one field of every kind and a counted list.
type record struct {
	u    uint64
	i    int64
	f    float64
	ok   bool
	s    string
	b    []byte
	list []string
}

func encode(rec record) []byte {
	buf := wire.AppendHeader(nil, testMagic, 3)
	buf = wire.AppendUvarint(buf, rec.u)
	buf = wire.AppendVarint(buf, rec.i)
	buf = wire.AppendFloat64(buf, rec.f)
	buf = wire.AppendBool(buf, rec.ok)
	buf = wire.AppendString(buf, rec.s)
	buf = wire.AppendBytes(buf, rec.b)
	buf = wire.AppendUvarint(buf, uint64(len(rec.list)))
	for _, s := range rec.list {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

func decode(data []byte) (record, error) {
	r := wire.NewReader(data, "test record")
	r.Header(testMagic, 3)
	rec := record{u: r.Uvarint(), i: r.Varint(), f: r.Float64(), ok: r.Bool(), s: r.String(), b: r.Bytes()}
	rec.list = make([]string, r.Count(1, "strings"))
	for i := range rec.list {
		rec.list[i] = r.String()
	}
	return rec, r.Done()
}

func TestRoundTrip(t *testing.T) {
	in := record{u: 1 << 40, i: -77, f: math.Float64frombits(0x7FF8000000000123), ok: true,
		s: "lab-01", b: []byte{0, 1, 2}, list: []string{"", "a", "bc"}}
	enc := encode(in)
	out, err := decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.f) != math.Float64bits(in.f) {
		t.Errorf("float bits %x, want %x", math.Float64bits(out.f), math.Float64bits(in.f))
	}
	if out.u != in.u || out.i != in.i || !out.ok || out.s != in.s || string(out.b) != string(in.b) ||
		strings.Join(out.list, ",") != strings.Join(in.list, ",") {
		t.Errorf("round trip gave %+v, want %+v", out, in)
	}
	wiretest.CheckDecoder(t, enc, func(p []byte) error { _, err := decode(p); return err })
}

// TestReaderRejections pins the hardening rules that live in Reader.
func TestReaderRejections(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *wire.Reader)
		want string // "" = accepted
	}{
		{"bool 0", []byte{0}, func(r *wire.Reader) { r.Bool() }, ""},
		{"bool 1", []byte{1}, func(r *wire.Reader) { r.Bool() }, ""},
		{"bool 2", []byte{2}, func(r *wire.Reader) { r.Bool() }, "bool"},
		{"bool missing", nil, func(r *wire.Reader) { r.Bool() }, "bool"},
		{"uvarint not terminated", []byte{0x80, 0x80}, func(r *wire.Reader) { r.Uvarint() }, "uvarint"},
		{"uvarint overflows 64 bits", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
			func(r *wire.Reader) { r.Uvarint() }, "uvarint"},
		{"varint not terminated", []byte{0xFF}, func(r *wire.Reader) { r.Varint() }, "varint"},
		{"float one byte short", make([]byte, 7), func(r *wire.Reader) { r.Float64() }, "float64"},
		{"string to the end", []byte{2, 'a', 'b'}, func(r *wire.Reader) { _ = r.String() }, ""},
		{"string one past the end", []byte{3, 'a', 'b'}, func(r *wire.Reader) { _ = r.String() }, "3 bytes in 2"},
		{"length near 2^64", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 'a'},
			func(r *wire.Reader) { r.Bytes() }, "bytes in 1"},
		{"count at the boundary", []byte{2, 0, 0, 0, 0, 0, 0},
			func(r *wire.Reader) {
				for n := 3 * r.Count(3, "triples"); n > 0; n-- {
					r.Bytes()
				}
			}, ""},
		{"count one past the boundary", []byte{3, 0, 0, 0, 0, 0, 0, 0, 0},
			func(r *wire.Reader) { r.Count(3, "triples") }, "claims 3 triples in 8 bytes"},
		{"trailing byte", []byte{1, 0}, func(r *wire.Reader) { r.Bool() }, "1 trailing bytes"},
		{"bad magic", []byte("FGTX\x03"), func(r *wire.Reader) { r.Header(testMagic, 3) }, "magic"},
		{"short header", []byte("FGTT"), func(r *wire.Reader) { r.Header(testMagic, 3) }, "magic"},
		{"bad version", []byte("FGTT\x04"), func(r *wire.Reader) { r.Header(testMagic, 3) }, "version 4"},
		{"first error wins", []byte{2, 9}, func(r *wire.Reader) { r.Bool(); r.Fail("later"); r.Float64() }, "bool"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := wire.NewReader(tc.data, "t")
			tc.read(&r)
			err := r.Done()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPoisonedReaderReadsZeroes pins what decoder loops rely on: after the
// first error every read returns a zero value and consumes nothing.
func TestPoisonedReaderReadsZeroes(t *testing.T) {
	r := wire.NewReader([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, "t")
	r.Fail("stop")
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Float64() != 0 || r.Bool() || r.String() != "" ||
		r.Bytes() != nil || r.Count(1, "x") != 0 {
		t.Error("poisoned reader returned a non-zero value")
	}
	if err := r.Done(); err == nil || err != r.Err() || !strings.Contains(err.Error(), "t: stop") {
		t.Errorf("Done = %v, Err = %v", err, r.Err())
	}
}

// TestReaderStaysOnStack pins the property the snapshot and recovery paths
// need: decoding through a local Reader allocates nothing but the values.
func TestReaderStaysOnStack(t *testing.T) {
	data := wire.AppendBool(wire.AppendFloat64(wire.AppendVarint(wire.AppendUvarint(nil, 9), -9), 0.5), true)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(data, "t")
		sink += float64(r.Uvarint()) + float64(r.Varint()) + r.Float64()
		if !r.Bool() || r.Done() != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per decode, want 0", allocs)
	}
}
