package data

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func writeRecords(t *testing.T, records [][]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	return &buf
}

func makeRecords(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		r := make([]byte, 64+i*37)
		for j := range r {
			r[j] = byte(i*131 + j)
		}
		out[i] = r
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "unpooled"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			records := makeRecords(16)
			buf := writeRecords(t, records)
			rr := NewRecordReader(bytes.NewReader(buf.Bytes()))
			rr.SetPooling(pooled)
			for i, want := range records {
				got, err := rr.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("record %d: payload mismatch", i)
				}
				if pooled {
					PutBuf(got)
				}
			}
			if _, err := rr.Next(); err != io.EOF {
				t.Fatalf("expected EOF, got %v", err)
			}
		})
	}
}

// TestPooledReuseSafety recycles every record buffer immediately after
// verifying it, then re-reads the whole stream: recycled buffers must not
// corrupt later reads, and a consumer that copies before recycling must see
// intact data even as the pool hands the same backing arrays back out.
func TestPooledReuseSafety(t *testing.T) {
	records := makeRecords(32)
	buf := writeRecords(t, records)
	for pass := 0; pass < 3; pass++ {
		rr := NewRecordReader(bytes.NewReader(buf.Bytes()))
		rr.SetPooling(true)
		for i, want := range records {
			got, err := rr.Next()
			if err != nil {
				t.Fatalf("pass %d record %d: %v", pass, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d record %d: payload mismatch after pool reuse", pass, i)
			}
			copied := append([]byte(nil), got...)
			PutBuf(got)
			if !bytes.Equal(copied, want) {
				t.Fatalf("pass %d record %d: copy taken before recycle is wrong", pass, i)
			}
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	records := makeRecords(4)
	buf := writeRecords(t, records)
	b := buf.Bytes()
	// Flip one payload byte of the third record.
	off := 0
	for i := 0; i < 2; i++ {
		off += RecordOverheadBytes + len(records[i])
	}
	b[off+RecordHeaderBytes+5] ^= 0xff
	rr := NewRecordReader(bytes.NewReader(b))
	var err error
	for i := 0; i < len(records); i++ {
		if _, err = rr.Next(); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("corrupted stream read without error")
	}
}

func TestBufPoolClasses(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d): len %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuf(%d): cap %d < len", n, cap(b))
		}
		PutBuf(b)
		// A follow-up request of the same size must be satisfiable.
		b2 := GetBuf(n)
		if len(b2) != n {
			t.Fatalf("GetBuf(%d) after PutBuf: len %d", n, len(b2))
		}
		PutBuf(b2)
	}
	// Oddly-sized (append-grown) buffers are rejected, not pooled.
	odd := make([]byte, 100, 100)
	PutBuf(odd) // must not panic or poison a class
	b := GetBuf(100)
	if cap(b) != 128 {
		t.Fatalf("class capacity for 100 = %d, want 128", cap(b))
	}
}

// memStream serves framed bytes held in memory through both Read and View,
// standing in for a connector reader whose storage can be aliased.
type memStream struct {
	b   []byte
	off int
}

func (m *memStream) Read(p []byte) (int, error) {
	if m.off >= len(m.b) {
		return 0, io.EOF
	}
	n := copy(p, m.b[m.off:])
	m.off += n
	return n, nil
}

func (m *memStream) View(n int) ([]byte, error) {
	if m.off >= len(m.b) {
		return nil, io.EOF
	}
	end := m.off + n
	if end > len(m.b) {
		v := m.b[m.off:]
		m.off = len(m.b)
		return v, io.ErrUnexpectedEOF
	}
	v := m.b[m.off:end:end]
	m.off = end
	return v, nil
}

// TestViewRoundTrip: in view mode every record is a sub-slice of the
// stream's own bytes (nothing copied), capped at its length, equal to what
// the copying path returns; an empty record and the clean EOF behave alike.
func TestViewRoundTrip(t *testing.T) {
	records := append(makeRecords(16), []byte{})
	framed := writeRecords(t, records).Bytes()
	if NewRecordReader(bytes.NewReader(framed)).UseViews() {
		t.Fatal("UseViews turned on over a reader that has no View")
	}
	rr := NewRecordReader(&memStream{b: framed})
	if !rr.UseViews() {
		t.Fatal("UseViews declined a reader that has View")
	}
	off := 0
	for i, want := range records {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch", i)
		}
		if len(want) > 0 {
			if &got[0] != &framed[off+RecordHeaderBytes] {
				t.Fatalf("record %d: not a view of the stream's storage", i)
			}
			if cap(got) != len(got) {
				t.Fatalf("record %d: view cap %d exceeds len %d", i, cap(got), len(got))
			}
		}
		off += RecordOverheadBytes + len(want)
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestResetServesTheNextStream: one reader serves stream after stream.
// Reset drops the previous stream's view, so a stream read without asking
// UseViews again is copied, and pooling stays as it was set.
func TestResetServesTheNextStream(t *testing.T) {
	records := makeRecords(4)
	framed := writeRecords(t, records).Bytes()
	rr := NewRecordReader(nil)
	rr.SetPooling(true)
	for i, viewing := range []bool{true, false, true} {
		rr.Reset(&memStream{b: framed})
		if viewing && !rr.UseViews() {
			t.Fatalf("stream %d: UseViews declined a reader that has View", i)
		}
		for j, want := range records {
			got, err := rr.Next()
			if err != nil {
				t.Fatalf("stream %d, record %d: %v", i, j, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream %d, record %d: payload mismatch", i, j)
			}
			if isView := &got[0] == &framed[RecordHeaderBytes]; j == 0 && isView != viewing {
				t.Fatalf("stream %d: record served as a view = %v, want %v", i, isView, viewing)
			}
			if !viewing {
				PutBuf(got)
			}
		}
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("stream %d: expected EOF, got %v", i, err)
		}
	}
}

// TestViewCorruptionAndTruncation: the view path runs both checksums and
// reports the same framing errors as the copying path, byte for byte.
func TestViewCorruptionAndTruncation(t *testing.T) {
	records := makeRecords(3)
	clean := writeRecords(t, records).Bytes()
	second := RecordOverheadBytes + len(records[0])
	cases := map[string]func(b []byte) []byte{
		"payload byte":  func(b []byte) []byte { b[second+RecordHeaderBytes+5] ^= 0xff; return b },
		"length byte":   func(b []byte) []byte { b[second+1] ^= 0x01; return b },
		"footer byte":   func(b []byte) []byte { b[second+RecordHeaderBytes+len(records[1])] ^= 0x80; return b },
		"cut in header": func(b []byte) []byte { return b[:second+5] },
		"cut in body":   func(b []byte) []byte { return b[:second+RecordHeaderBytes+9] },
		"cut in footer": func(b []byte) []byte { return b[:second+RecordHeaderBytes+len(records[1])+2] },
		"cut at body":   func(b []byte) []byte { return b[:second+RecordHeaderBytes] },
	}
	for name, damage := range cases {
		b := damage(append([]byte(nil), clean...))
		drain := func(rr *RecordReader) (int, error) {
			for n := 0; ; n++ {
				if _, err := rr.Next(); err != nil {
					return n, err
				}
			}
		}
		copyN, copyErr := drain(NewRecordReader(bytes.NewReader(b)))
		vr := NewRecordReader(&memStream{b: b})
		vr.UseViews()
		viewN, viewErr := drain(vr)
		if copyErr == io.EOF || copyN != 1 {
			t.Fatalf("%s: copying path read %d records, err %v; want 1 and a framing error", name, copyN, copyErr)
		}
		if viewN != copyN || viewErr.Error() != copyErr.Error() {
			t.Fatalf("%s: view path read %d records, err %q; copying path %d, %q", name, viewN, viewErr, copyN, copyErr)
		}
	}
}

// TestNextAllocatesNothing pins the per-record allocation count of every
// read path in steady state. The header and footer scratch are fields of
// the reader: as locals they escape through the io.Reader interface, one
// heap object per record.
func TestNextAllocatesNothing(t *testing.T) {
	records := makeRecords(8)
	framed := writeRecords(t, records).Bytes()
	const passes = 50
	// perRecord replays the stream and returns Next+retire's allocations per
	// record.
	perRecord := func(src *memStream, rr *RecordReader, retire func([]byte)) float64 {
		pass := func() {
			src.off = 0
			for range records {
				rec, err := rr.Next()
				if err != nil {
					t.Fatal(err)
				}
				retire(rec)
			}
		}
		return testing.AllocsPerRun(passes, pass) / float64(len(records))
	}

	t.Run("view", func(t *testing.T) {
		src := &memStream{b: framed}
		rr := NewRecordReader(src)
		rr.UseViews()
		if got := perRecord(src, rr, func([]byte) {}); got != 0 {
			t.Fatalf("view path: %.2f allocations per record, want 0", got)
		}
	})
	t.Run("pooled", func(t *testing.T) {
		if raceEnabled {
			t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
		}
		src := &memStream{b: framed}
		rr := NewRecordReader(src)
		rr.SetPooling(true)
		if got := perRecord(src, rr, PutBuf); got != 0 {
			t.Fatalf("pooled path: %.2f allocations per record, want 0", got)
		}
	})
}

// benchFramed builds a framed stream of 1000-byte records, total bytes long.
// Both sizes the benchmarks below use are well past any L2, so they read
// their records from memory, as a source worker does, rather than from a
// cache the previous pass warmed.
func benchFramed(b *testing.B, total int) (framed []byte, records int) {
	b.Helper()
	const recordBytes = 1000
	var buf bytes.Buffer
	buf.Grow(total)
	w := NewRecordWriter(&buf)
	rec := make([]byte, recordBytes)
	for buf.Len()+RecordOverheadBytes+recordBytes <= total {
		rec[records%recordBytes]++
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
		records++
	}
	return buf.Bytes(), records
}

// benchSink keeps the compiler from discarding the records read.
var benchSink int

// benchRecordReader times passes over a 16 MiB and a 64 MiB stream. The
// working set is a dimension of its own: the hotpath benchmark workload
// checksums a 63.4 MiB dataset, and on a shared last-level cache a record
// costs more at 64 MiB than at 16 (see the verify notes for the bands).
func benchRecordReader(b *testing.B, views bool) {
	for _, mib := range []int{16, 64} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			framed, records := benchFramed(b, mib<<20)
			src := &memStream{b: framed}
			b.SetBytes(int64(len(framed)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.off = 0
				rr := NewRecordReader(src)
				if views {
					rr.UseViews()
				} else {
					rr.SetPooling(true)
				}
				for r := 0; r < records; r++ {
					rec, err := rr.Next()
					if err != nil {
						b.Fatal(err)
					}
					benchSink += len(rec)
					if !views {
						PutBuf(rec)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}

// BenchmarkRecordReaderCopy is one pass over the stream on the copying path,
// the one a source takes when its chain may write: read into a pooled
// buffer, copy, two checksums, and the buffer back to the pool.
func BenchmarkRecordReaderCopy(b *testing.B) { benchRecordReader(b, false) }

// BenchmarkRecordReaderView is the same pass on the view path: the checksums
// run over the stream's own bytes and nothing is copied.
func BenchmarkRecordReaderView(b *testing.B) { benchRecordReader(b, true) }
