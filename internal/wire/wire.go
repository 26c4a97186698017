// Package wire holds the binary codecs every decoder of network or disk
// bytes goes through: the delta-varint stream codec for []int64 payloads,
// and the Writer/Reader pair that the tcpnet frames (MCMNET1), the
// observability shipments and flight dumps (MCMOBS1, MCMFDR1) and the
// checkpoints (MCMCKPT2) are written and read with. The formats themselves
// stay with their owners; this package owns the field encodings and the one
// guard that keeps a forged count from driving an allocation the input's
// own length cannot back (Reader.fits).
//
// Delta-varint streams. Frontier expands, visited-row replications and fold
// triples are streams of vertex ids that are sorted (or piecewise sorted),
// so consecutive differences are small and a varint of the zigzag delta
// packs most entries into one or two bytes instead of eight.
//
// The stream codec is total: any []int64 round-trips, sorted or not,
// because the delta is computed with wrap-around uint64 arithmetic (so even
// the MaxInt64-MinInt64 gap is representable) and zigzag-mapped before the
// varint. Unsorted or adversarial inputs merely compress poorly — they can
// never fail to encode, which is what lets the tcp backend apply the codec
// to every mailbox payload without classifying them first.
//
// Layout: value 0 is encoded directly (zigzag varint), every later value as
// the zigzag varint of its wrap-around delta from the previous value. The
// element count travels outside the byte stream (the transport frame already
// carries it), so an empty stream encodes to zero bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// zigzag maps signed deltas to unsigned so small negative gaps stay short:
// 0,-1,1,-2,2,... -> 0,1,2,3,4,...
func zigzag(x uint64) uint64 {
	return (x << 1) ^ uint64(int64(x)>>63)
}

// unzigzag inverts zigzag.
func unzigzag(z uint64) uint64 {
	return (z >> 1) ^ (-(z & 1))
}

// AppendEncoded appends the delta-varint encoding of v to dst and returns
// the extended slice.
func AppendEncoded(dst []byte, v []int64) []byte {
	var prev uint64
	for _, x := range v {
		d := uint64(x) - prev // wrap-around delta: total over all of int64
		dst = binary.AppendUvarint(dst, zigzag(d))
		prev = uint64(x)
	}
	return dst
}

// Decode appends count values decoded from src to dst and returns the
// extended slice. It errors on a truncated stream, a malformed varint, or
// trailing bytes — a frame that does not decode exactly is corrupt.
func Decode(dst []int64, count int, src []byte) ([]int64, error) {
	var prev uint64
	for i := 0; i < count; i++ {
		z, n := binary.Uvarint(src)
		if n <= 0 {
			return dst, fmt.Errorf("wire: truncated or malformed varint at value %d of %d", i, count)
		}
		src = src[n:]
		prev += unzigzag(z)
		dst = append(dst, int64(prev))
	}
	if len(src) != 0 {
		return dst, fmt.Errorf("wire: %d trailing bytes after %d values", len(src), count)
	}
	return dst, nil
}

// UvarintLen is the encoded size of one uvarint, without writing it.
func UvarintLen(z uint64) int {
	return (bits.Len64(z|1) + 6) / 7
}

// EncodedLen returns the exact byte length AppendEncoded would produce,
// without encoding.
func EncodedLen(v []int64) int {
	var prev uint64
	n := 0
	for _, x := range v {
		n += UvarintLen(zigzag(uint64(x) - prev))
		prev = uint64(x)
	}
	return n
}

// EncodedWords returns EncodedLen rounded up to 8-byte words — the unit the
// communication meters count, so raw (one word per value) and encoded
// volumes compare directly.
func EncodedWords(v []int64) int64 {
	return int64((EncodedLen(v) + 7) / 8)
}
