package store

import (
	"fmt"
	"math"
)

// SectionSpan locates one section's payload inside a serialised snapshot:
// [Off, Off+Len) in the snapshot's byte stream. Spans are returned in
// section-table order, which Write lays out monotonically with 8-aligned
// starts and zero padding between payloads — so a snapshot is exactly its
// prefix (header + table + alignment pad), its section payloads, and
// zeroed padding. That decomposition is what lets a transport compress
// section payloads independently and reassemble the byte-identical
// snapshot on the far side without this package decoding anything.
type SectionSpan struct {
	ID       uint32
	Off, Len int64
}

// SectionSpans parses the header and section table of a serialised
// snapshot and returns the prefix length (header + table, rounded up to
// the first payload's 8-aligned start) plus every section's span. Only
// the framing is validated — magic, version, table bounds, offset
// monotonicity, and that the table lays out exactly len(data) bytes —
// not the section contents; OpenBytes performs the full structural
// validation when the stream is actually decoded.
func SectionSpans(data []byte) (prefix int64, spans []SectionSpan, err error) {
	prefix, spans, end, err := sectionTable(data)
	if err != nil {
		return 0, nil, err
	}
	if end != int64(len(data)) {
		return 0, nil, fmt.Errorf("store: section table lays out %d bytes, stream is %d", end, len(data))
	}
	return prefix, spans, nil
}

// StreamLen returns the length of the serialised snapshot whose header
// and section table lead head: the 8-aligned end of its last section. A
// transport receiving the sections apart from the prefix checks a claimed
// length against it before allocating.
func StreamLen(head []byte) (int64, error) {
	_, _, end, err := sectionTable(head)
	return end, err
}

// sectionTable parses the header and section table at the front of data
// and returns the prefix length, every section's span, and the stream
// length the table lays out. Each section must start at the previous
// one's 8-aligned end, the writer's layout.
func sectionTable(data []byte) (prefix int64, spans []SectionSpan, end int64, err error) {
	if len(data) < headerSize {
		return 0, nil, 0, fmt.Errorf("store: truncated header: %d bytes", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, nil, 0, fmt.Errorf("store: bad magic")
	}
	if v := uint16(data[6]) | uint16(data[7])<<8; v != Version {
		return 0, nil, 0, fmt.Errorf("store: unsupported snapshot version %d (want %d)", v, Version)
	}
	nsec := int(getU32(data, 8))
	if nsec > maxSections {
		return 0, nil, 0, fmt.Errorf("store: implausible section count %d", nsec)
	}
	prefix = align8(headerSize + int64(nsec)*sectionEntry)
	if prefix > int64(len(data)) {
		return 0, nil, 0, fmt.Errorf("store: truncated section table: %d bytes for %d sections", len(data), nsec)
	}
	spans = make([]SectionSpan, nsec)
	end = prefix
	for i := 0; i < nsec; i++ {
		e := headerSize + i*sectionEntry
		off := int64(getU64(data, e+8))
		length := int64(getU64(data, e+16))
		// end ≥ 0 throughout, so the bound cannot overflow, and neither
		// can align8(off+length).
		if off != end || length < 0 || length > math.MaxInt64-8-off {
			return 0, nil, 0, fmt.Errorf("store: section %d (offset %d, %d bytes) is outside the writer's layout", i, off, length)
		}
		spans[i] = SectionSpan{ID: getU32(data, e), Off: off, Len: length}
		end = align8(off + length)
	}
	return prefix, spans, end, nil
}
