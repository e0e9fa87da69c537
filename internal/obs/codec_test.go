package obs

import (
	"bytes"
	"reflect"
	"testing"

	"fgcs/internal/wire/wiretest"
)

// wrapped is the sampleTracker size that holds both ring shapes the FGAT
// format stores: one wrapped past rollingWindow, one partly filled.
const wrapped = rollingWindow + 9

// sampleTracker builds a deterministic tracker with n resolutions on one
// key and five on another.
func sampleTracker(n int) *Tracker {
	t := NewTracker()
	for i := 0; i < n; i++ {
		t.RestoreResolution("m01", "SMP", float64(i%11)/10, i%4 != 0)
	}
	for i := 0; i < 5; i++ {
		t.RestoreResolution("m02", "LAST", 0.25, i%2 == 0)
	}
	return t
}

func restoreTracker(data []byte) (*Tracker, error) {
	t := NewTracker()
	return t, restoreInto(t)(data)
}

// restoreInto returns a decoder that decodes a snapshot and installs it
// into t.
func restoreInto(t *Tracker) func(data []byte) error {
	return func(data []byte) error {
		install, err := t.RestoreBinary(data)
		if err == nil {
			install()
		}
		return err
	}
}

// TestCodecGoldens pins both obs formats to checked-in bytes and decodes them
// back to the same state. FGAT is on disk: its bytes were written by the
// commit before internal/wire existed. FGOS only ever crosses the wire between
// live peers; its bytes are version 3's.
func TestCodecGoldens(t *testing.T) {
	src := sampleTracker(wrapped)
	fgat := src.ExportBinary()
	wiretest.Golden(t, "testdata/golden/fgat.hex", fgat)
	back, err := restoreTracker(fgat)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.ExportBinary(), fgat) {
		t.Error("restored tracker exports different bytes")
	}
	if got, want := back.All(), src.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored stats %+v, want %+v", got, want)
	}
	// One more resolution lands in the same ring slot on both sides.
	src.RestoreResolution("m01", "SMP", 0.7, true)
	back.RestoreResolution("m01", "SMP", 0.7, true)
	if !bytes.Equal(back.ExportBinary(), src.ExportBinary()) {
		t.Error("restored tracker diverges from the live one after a resolution")
	}

	fgos := samplePeerObs("gw01").EncodeBinary()
	wiretest.Golden(t, "testdata/golden/fgos.hex", fgos)
	p, err := DecodeObsSnapshot(fgos)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.EncodeBinary(), fgos) {
		t.Error("decoded peer obs encodes to different bytes")
	}
}

func TestCodecDecoderProperties(t *testing.T) {
	t.Run("FGAT", func(t *testing.T) {
		// One tracker takes every input: a rejected one installs nothing.
		wiretest.CheckDecoder(t, sampleTracker(3).ExportBinary(), restoreInto(NewTracker()))
	})
	t.Run("FGOS", func(t *testing.T) {
		wiretest.CheckDecoder(t, samplePeerObs("gw01").EncodeBinary(), func(p []byte) error {
			_, err := DecodeObsSnapshot(p)
			return err
		})
	})
}
