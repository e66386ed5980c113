package resultcache

// Record framing of the segment files.  One frame is
//
//	payloadLen uint32 little-endian   payload byte length
//	crc32      uint32 little-endian   IEEE CRC of the payload
//	payload    payloadLen bytes
//
// A segment is a magic followed by whole frames, appends are one write
// each, and a reader walks frames until the first torn or corrupt one —
// short header, absurd length, CRC mismatch, or a payload the caller's
// decoder rejects — and reports the byte length of the valid prefix.  A
// crash mid-append therefore costs at most the frame in flight, never the
// file.

import (
	"encoding/binary"
	"hash/crc32"
)

// frameHeaderSize is the fixed per-frame overhead (length + CRC).
const frameHeaderSize = 8

// appendFrame appends one frame holding payload to dst and returns the
// extended slice.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameSize returns the framed size of a payload of n bytes.
func frameSize(n int) int { return frameHeaderSize + n }

// walkFrames calls fn for each whole, CRC-valid frame payload in data, in
// order, and returns the byte length of the prefix of data covered by
// accepted frames.  The walk stops — without counting the offending frame —
// at the first torn header, payload longer than maxPayload (0 = unbounded),
// truncated or CRC-corrupt payload, or frame whose payload fn rejects by
// returning false.  The payload slice aliases data; fn must not retain it
// past the call unless it copies.
func walkFrames(data []byte, maxPayload uint32, fn func(payload []byte) bool) int {
	pos := 0
	for {
		if len(data)-pos < frameHeaderSize {
			return pos // torn frame header
		}
		n := binary.LittleEndian.Uint32(data[pos : pos+4])
		sum := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if maxPayload != 0 && n > maxPayload {
			return pos // absurd length: a corrupt frame, not a huge record
		}
		if int64(n) > int64(len(data)-pos-frameHeaderSize) {
			return pos // truncated payload
		}
		payload := data[pos+frameHeaderSize : pos+frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return pos // corrupt payload
		}
		if !fn(payload) {
			return pos // CRC-valid but semantically rejected: start of garbage
		}
		pos += frameHeaderSize + int(n)
	}
}
