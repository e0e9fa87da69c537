package trace

import (
	"bytes"
	"testing"
)

// FuzzReadBinary hardens the binary decoder against corrupt archives: it
// must reject or parse, never panic or over-allocate.
func FuzzReadBinary(f *testing.F) {
	ds := randomDataset(1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must survive a full encode/decode round trip —
		// the format is its own specification.
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("re-encode of parsed dataset failed: %v", err)
		}
		if _, err := ReadBinary(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		// The encoder and its size agree.
		if BinarySize(got) != out.Len() {
			t.Fatalf("WriteBinary wrote %d bytes, BinarySize %d", out.Len(), BinarySize(got))
		}
	})
}

// FuzzReadText does the same for the text decoder.
func FuzzReadText(f *testing.F) {
	ds := randomDataset(2)
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("fgcs-trace 1\nmachine m 6\nday 0\n1 2 1\n")
	f.Add("fgcs-trace 1\n# nothing else\n")
	f.Add("")
	f.Add("fgcs-trace 1\nmachine m 6\nday 1124668800\n# comment\n5 400 1\n90 10 0\n")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, got); err != nil {
			t.Fatalf("re-encode of parsed dataset failed: %v", err)
		}
		if _, err := ReadText(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nre-encoded: %q", err, data, out.Bytes())
		}
	})
}
