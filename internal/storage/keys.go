package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Order-preserving key encodings: for any two values a < b of the same type,
// bytes.Compare(Append*(nil,a), Append*(nil,b)) < 0. Composite keys are
// built by appending encodings in significance order, which is how the
// engine encodes the (zoneID, ra, objID) clustered key of the Zone table.

// AppendInt64 appends a big-endian, sign-flipped encoding of v.
func AppendInt64(dst []byte, v int64) []byte {
	u := uint64(v) ^ (1 << 63)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(dst, b[:]...)
}

// DecodeInt64 decodes a key produced by AppendInt64 and returns the rest.
func DecodeInt64(src []byte) (int64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("storage: short int64 key (%d bytes)", len(src))
	}
	u := binary.BigEndian.Uint64(src) ^ (1 << 63)
	return int64(u), src[8:], nil
}

// AppendFloat64 appends an order-preserving encoding of f: the big-endian
// bytes of Float64Key(f).
func AppendFloat64(dst []byte, f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], Float64Key(f))
	return append(dst, b[:]...)
}

// Float64Key maps f to an integer in the key encoding's float order:
// Float64Key(a) < Float64Key(b) iff AppendFloat64 sorts a before b. The
// order is total over bit patterns: -0 sorts before +0, and NaN sorts
// above +Inf (or below -Inf with its sign bit set). Well-formed data holds
// no NaN; the order just needs to be total.
func Float64Key(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip all bits
	}
	return u | 1<<63 // positive: flip sign bit
}

// DecodeFloat64 decodes a key produced by AppendFloat64 and returns the rest.
func DecodeFloat64(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("storage: short float64 key (%d bytes)", len(src))
	}
	u := binary.BigEndian.Uint64(src)
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u), src[8:], nil
}

// AppendString appends an order-preserving, self-delimiting encoding of s:
// 0x00 bytes are escaped as 0x00 0xFF and the value is terminated by
// 0x00 0x00, so longer strings with a common prefix sort after shorter ones
// and the next key component starts unambiguously.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		dst = append(dst, c)
		if c == 0x00 {
			dst = append(dst, 0xFF)
		}
	}
	return append(dst, 0x00, 0x00)
}

// DecodeString decodes a key produced by AppendString and returns the rest.
func DecodeString(src []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c != 0x00 {
			out = append(out, c)
			continue
		}
		if i+1 >= len(src) {
			return "", nil, fmt.Errorf("storage: truncated string key")
		}
		switch src[i+1] {
		case 0x00:
			return string(out), src[i+2:], nil
		case 0xFF:
			out = append(out, 0x00)
			i++
		default:
			return "", nil, fmt.Errorf("storage: malformed string key escape 0x%02x", src[i+1])
		}
	}
	return "", nil, fmt.Errorf("storage: unterminated string key")
}

// AppendBool appends 0x00 for false, 0x01 for true.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeBool decodes a key produced by AppendBool and returns the rest.
func DecodeBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, fmt.Errorf("storage: short bool key")
	}
	return src[0] != 0, src[1:], nil
}
