// Record codec, shared between the event WAL and the telemetry TSDB
// (internal/tsdb): the same magic/kind/seq/len/CRC framing, the same
// skip-and-count resynchronization, parameterized only by the kind
// byte — 'E' for WAL event records, 'P' for TSDB point batches. The
// kind byte is covered by the CRC, so a record of one kind can never
// be mistaken for an intact record of the other.
//
//	offset size
//	0      2    magic 0xF5 0x9E
//	2      1    kind
//	3      8    record sequence number, big-endian
//	11     4    body length, big-endian
//	15     4    CRC32 (IEEE) over bytes [2,15) and the body
//	19     n    body

package seglog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// EncodeRecord appends one framed record of the given kind to buf and
// returns the extended buffer. The body must be at most MaxRecord
// bytes; longer bodies would be durable but unrecoverable, since the
// reader unconditionally skips oversized length prefixes.
func EncodeRecord(buf []byte, kind byte, seq uint64, body []byte) []byte {
	var hdr [HeaderLen]byte
	hdr[0] = Magic0
	hdr[1] = Magic1
	hdr[2] = kind
	binary.BigEndian.PutUint64(hdr[3:], seq)
	binary.BigEndian.PutUint32(hdr[11:], uint32(len(body)))
	crc := crc32.ChecksumIEEE(hdr[2:15])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	binary.BigEndian.PutUint32(hdr[15:], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// ReadRecord reads the next intact record of the given kind from br,
// resynchronizing on corruption exactly like agent.readFrame: a bad
// magic, kind, or length advances the scan one byte; a CRC mismatch
// skips the record. skipped counts every discarded byte, including a
// truncated tail — unlike the wire reader, a file has a real end, so a
// partial record at EOF is drained and counted rather than left
// pending. The returned body aliases buf (grown as needed); it is
// valid until the next call.
func ReadRecord(br *bufio.Reader, kind byte, buf []byte) (seq uint64, body []byte, skipped int64, err error) {
	for {
		b0, rerr := br.ReadByte()
		if rerr != nil {
			return 0, nil, skipped, io.EOF
		}
		if b0 != Magic0 {
			skipped++
			continue
		}
		hdr, rerr := br.Peek(HeaderLen - 1)
		if rerr != nil {
			if len(hdr) == 0 || hdr[0] != Magic1 {
				skipped++
				continue
			}
			// A genuine record start torn mid-header: tail garbage.
			br.Discard(len(hdr))
			skipped += 1 + int64(len(hdr))
			return 0, nil, skipped, io.EOF
		}
		if hdr[0] != Magic1 {
			skipped++
			continue
		}
		if hdr[1] != kind {
			skipped++
			continue
		}
		n := binary.BigEndian.Uint32(hdr[10:14])
		if n > MaxRecord {
			skipped++
			continue
		}
		seq = binary.BigEndian.Uint64(hdr[2:10])
		want := binary.BigEndian.Uint32(hdr[14:18])
		crc := crc32.ChecksumIEEE(hdr[1:14])
		br.Discard(HeaderLen - 1)
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		body = buf[:n]
		got, rerr := io.ReadFull(br, body)
		if rerr != nil {
			// Truncated body at end of file: header + partial body is
			// tail garbage.
			skipped += HeaderLen + int64(got)
			return 0, nil, skipped, io.EOF
		}
		if crc32.Update(crc, crc32.IEEETable, body) != want {
			skipped += HeaderLen + int64(n)
			continue
		}
		return seq, body, skipped, nil
	}
}

// Record layout constants — byte-identical to the agent wire format
// (internal/agent frame.go), so a WAL segment is a valid frame stream.
const (
	Magic0    = 0xF5
	Magic1    = 0x9E
	HeaderLen = 19
	// MaxRecord bounds one record body, defending the reader against
	// corrupt length prefixes (same bound as agent.MaxFrame).
	MaxRecord = 1 << 22
)

// KindEvent and KindPoints are the registered record kinds: trace
// events in the WAL, line-protocol point batches in the TSDB.
const (
	KindEvent  = 'E'
	KindPoints = 'P'
)
