package data

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// TFRecord framing, compatible with TensorFlow's format:
//
//	uint64 length
//	uint32 masked_crc32c(length)
//	byte   data[length]
//	uint32 masked_crc32c(data)
//
// where masked_crc(x) = rotr(crc32c(x), 15) + 0xa282ead8. The Plumber tracer
// instruments reads of these files to derive records-per-byte ratios, so the
// framing overhead (16 bytes per record) is part of the model.

const (
	// RecordHeaderBytes is the per-record framing overhead before the data.
	RecordHeaderBytes = 12
	// RecordFooterBytes is the per-record framing overhead after the data.
	RecordFooterBytes = 4
	// RecordOverheadBytes is the total framing overhead per record.
	RecordOverheadBytes = RecordHeaderBytes + RecordFooterBytes

	crcMaskDelta = 0xa282ead8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaskedCRC returns TensorFlow's masked CRC32C of data.
func MaskedCRC(data []byte) uint32 {
	c := crc32.Checksum(data, castagnoli)
	return ((c >> 15) | (c << 17)) + crcMaskDelta
}

// RecordWriter writes TFRecord-framed records to an io.Writer.
type RecordWriter struct {
	w       io.Writer
	scratch [RecordHeaderBytes]byte
}

// NewRecordWriter returns a writer framing records onto w.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{w: w}
}

// Write frames and writes one record.
func (rw *RecordWriter) Write(record []byte) error {
	binary.LittleEndian.PutUint64(rw.scratch[:8], uint64(len(record)))
	binary.LittleEndian.PutUint32(rw.scratch[8:12], MaskedCRC(rw.scratch[:8]))
	if _, err := rw.w.Write(rw.scratch[:]); err != nil {
		return fmt.Errorf("tfrecord: writing header: %w", err)
	}
	if _, err := rw.w.Write(record); err != nil {
		return fmt.Errorf("tfrecord: writing payload: %w", err)
	}
	var footer [RecordFooterBytes]byte
	binary.LittleEndian.PutUint32(footer[:], MaskedCRC(record))
	if _, err := rw.w.Write(footer[:]); err != nil {
		return fmt.Errorf("tfrecord: writing footer: %w", err)
	}
	return nil
}

// RecordReader reads TFRecord-framed records from an io.Reader.
type RecordReader struct {
	r io.Reader
	// scratch and footer receive the framing around each payload. They are
	// fields, not locals of Next: a local handed to the io.Reader interface
	// escapes, which would cost one heap object per record.
	scratch [RecordHeaderBytes]byte
	footer  [RecordFooterBytes]byte
	pooled  bool
	view    viewSource
}

// viewSource is a stream that can serve its next n bytes as a slice of
// storage it owns instead of copying them into the caller's buffer;
// connector.Viewer is the storage-side contract. It returns io.EOF at end
// of stream and the remaining bytes with io.ErrUnexpectedEOF when fewer than
// n are left. The slice is read-only to the caller.
type viewSource interface {
	View(n int) ([]byte, error)
}

// NewRecordReader returns a reader consuming framed records from r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r}
}

// Reset points the reader at a new stream, so one reader can serve a
// worker's files one after another. It clears the view: UseViews must be
// asked again for the new stream. Pooling stays as set.
func (rr *RecordReader) Reset(r io.Reader) {
	rr.r = r
	rr.view = nil
}

// SetPooling makes Next draw payload buffers from the package buffer pool
// instead of allocating fresh slices. Returned records then follow the
// Element payload-ownership rules: the consumer owns the buffer and may
// recycle it with PutBuf once it no longer needs the contents.
func (rr *RecordReader) SetPooling(on bool) { rr.pooled = on }

// UseViews switches Next to reading without copying, if the underlying
// reader can serve views of its own storage (a connector.Viewer), and
// reports whether it did. Header, payload and footer are then each one View
// call where the copying path makes one Read call, both checksums are
// verified in place, and the returned record is a sub-slice of the reader's
// storage. Such a record is read-only and is never recycled: no pool is
// involved, and it must not reach PutBuf. Never on unless called.
func (rr *RecordReader) UseViews() bool {
	rr.view, _ = rr.r.(viewSource)
	return rr.view != nil
}

// maxRecord bounds the length a header may claim, so a corrupt length that
// happens to pass its checksum cannot ask for an absurd buffer.
const maxRecord = 1 << 30

// Next reads the next record. It returns io.EOF cleanly at end of stream and
// io.ErrUnexpectedEOF or a checksum error on corruption.
func (rr *RecordReader) Next() ([]byte, error) {
	if rr.view != nil {
		return rr.nextView()
	}
	if _, err := io.ReadFull(rr.r, rr.scratch[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("tfrecord: reading header: %w", err)
	}
	length, err := recordLength(rr.scratch[:])
	if err != nil {
		return nil, err
	}
	var payload []byte
	if rr.pooled {
		payload = GetBuf(length)
	} else {
		payload = make([]byte, length)
	}
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		rr.discard(payload)
		return nil, fmt.Errorf("tfrecord: reading payload: %w", err)
	}
	if _, err := io.ReadFull(rr.r, rr.footer[:]); err != nil {
		rr.discard(payload)
		return nil, fmt.Errorf("tfrecord: reading footer: %w", err)
	}
	if err := checkPayload(MaskedCRC(payload), rr.footer[:]); err != nil {
		rr.discard(payload)
		return nil, err
	}
	return payload, nil
}

// nextView is Next over a viewSource: the same three reads and the same two
// checksums, with nothing copied and nothing to give back on failure.
func (rr *RecordReader) nextView() ([]byte, error) {
	header, err := rr.view.View(RecordHeaderBytes)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("tfrecord: reading header: %w", err)
	}
	length, err := recordLength(header)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if length > 0 { // io.ReadFull issues no read for an empty payload either
		if payload, err = rr.view.View(length); err != nil {
			return nil, fmt.Errorf("tfrecord: reading payload: %w", err)
		}
	}
	footer, err := rr.view.View(RecordFooterBytes)
	if err != nil {
		return nil, fmt.Errorf("tfrecord: reading footer: %w", err)
	}
	if err := checkPayload(MaskedCRC(payload), footer); err != nil {
		return nil, err
	}
	return payload, nil
}

// recordLength validates a record header's length checksum and returns the
// payload length it declares.
func recordLength(header []byte) (int, error) {
	length := binary.LittleEndian.Uint64(header[:8])
	wantLenCRC := binary.LittleEndian.Uint32(header[8:12])
	if got := MaskedCRC(header[:8]); got != wantLenCRC {
		return 0, fmt.Errorf("tfrecord: length checksum mismatch: got %#x want %#x", got, wantLenCRC)
	}
	if length > maxRecord {
		return 0, fmt.Errorf("tfrecord: record length %d exceeds limit", length)
	}
	return int(length), nil
}

// checkPayload validates a payload's checksum, crc (its MaskedCRC), against
// the masked CRC in its footer. Callers checksum first, so the footer word's
// cache miss comes after the payload's sequential scan, not ahead of it.
func checkPayload(crc uint32, footer []byte) error {
	if want := binary.LittleEndian.Uint32(footer); crc != want {
		return fmt.Errorf("tfrecord: payload checksum mismatch: got %#x want %#x", crc, want)
	}
	return nil
}

// discard returns a payload abandoned by a failed read to the pool, so
// retried records do not leak one buffer per attempt.
func (rr *RecordReader) discard(payload []byte) {
	if rr.pooled && payload != nil {
		PutBuf(payload)
	}
}
