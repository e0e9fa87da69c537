package durable

import "io"

// fileReader reads a file through one buffer, which Open shares across
// every file it reads: buf[start:end] is read and not yet consumed, and off
// is the file offset of buf[start]. Recovery starts the buffer at
// snapshotChunk bytes; it grows only for a larger WAL frame, to the frame.
type fileReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	off        int64
	eof        bool
}

func newFileReader(r io.Reader) *fileReader {
	return &fileReader{r: r, buf: make([]byte, snapshotChunk)}
}

// reset points fr at the start of another file, keeping its buffer.
func (fr *fileReader) reset(r io.Reader) { *fr = fileReader{r: r, buf: fr.buf} }

// fill buffers at least n unconsumed bytes, or all that remain before the
// end of the file, and returns the unconsumed bytes. An error is a read
// error, never the end of the file.
func (fr *fileReader) fill(n int) ([]byte, error) {
	for fr.end-fr.start < n && !fr.eof {
		if len(fr.buf)-fr.start < n {
			buf := fr.buf
			if len(buf) < n {
				buf = make([]byte, n)
			}
			fr.end = copy(buf, fr.buf[fr.start:fr.end])
			fr.buf, fr.start = buf, 0
		}
		k, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += k
		if err == io.EOF {
			fr.eof = true
		} else if err != nil {
			return fr.buf[fr.start:fr.end], err
		}
	}
	return fr.buf[fr.start:fr.end], nil
}

// Read consumes buffered bytes, reading more when none are buffered.
func (fr *fileReader) Read(p []byte) (int, error) {
	buf, err := fr.fill(1)
	if len(buf) == 0 && err == nil {
		err = io.EOF
	}
	n := copy(p, buf)
	fr.skip(n)
	return n, err
}

// skip consumes n buffered bytes.
func (fr *fileReader) skip(n int) {
	fr.start += n
	fr.off += int64(n)
}
