package serial

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The /obfuscate hot-path codec. A cached obfuscation request repeats
// its spec byte for byte and differs only in its location batch, so the
// server splits the batch out (SplitLocations), recognises the rest by
// its bytes, and decodes and encodes only the batch. Every function here
// agrees with encoding/json on the input it accepts and hands anything
// unusual back to it, so the bytes on the wire cannot tell the paths
// apart.

var locationsKey = []byte("locations")

// SplitLocations finds the value of the top-level member spelled exactly
// "locations" in a JSON object body and returns its span body[lo:hi].
// It reports ok only when that member is the one encoding/json would
// decode into ObfuscateRequest.Locations and the rest of the body cannot
// depend on its value: the body is one object with nothing but
// whitespace after it, the member occurs once, no key contains a
// backslash escape, and no other key matches "locations" under
// bytes.EqualFold (encoding/json's case-insensitive field match). The
// scan does not validate the JSON; the caller must rely on a full decode
// of the same spec bytes for that.
func SplitLocations(body []byte) (lo, hi int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return 0, 0, false
	}
	found := false
	for {
		if i == len(body) || body[i] != '"' {
			return 0, 0, false
		}
		ke := i + 1 + bytes.IndexByte(body[i+1:], '"')
		if ke <= i {
			return 0, 0, false
		}
		key := body[i+1 : ke]
		if bytes.IndexByte(key, '\\') >= 0 {
			return 0, 0, false
		}
		i = skipSpace(body, ke+1)
		if i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
		end, vok := skipValue(body, i)
		if !vok {
			return 0, 0, false
		}
		switch {
		case bytes.Equal(key, locationsKey):
			if found {
				return 0, 0, false
			}
			found, lo, hi = true, i, end
		case bytes.EqualFold(key, locationsKey):
			return 0, 0, false
		}
		i = skipSpace(body, end)
		if i == len(body) {
			return 0, 0, false
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
	}
	if skipSpace(body, i+1) != len(body) {
		return 0, 0, false
	}
	return lo, hi, found
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipValue returns the end of the JSON value starting at b[i]. It
// tracks strings and nesting only; a valid value's span is exact, and an
// invalid one yields some span or !ok.
func skipValue(b []byte, i int) (int, bool) {
	if i == len(b) {
		return 0, false
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				end, ok := skipString(b, i)
				if !ok {
					return 0, false
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1, true
				}
			}
			i++
		}
		return 0, false
	}
	start := i
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r', ',', '}', ']':
			return i, i > start
		}
		i++
	}
	return i, i > start
}

// skipString returns the end of the JSON string starting at b[i] == '"'.
func skipString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return 0, false
}

// DecodeLocations decodes a JSON location batch. The form json.Marshal
// writes, [{"road":N,"from_start":F},...] with no whitespace, is parsed
// directly: each number is checked against the JSON number grammar and
// converted by strconv exactly as encoding/json converts it. Any other
// input, and any number strconv rejects, gets json.Unmarshal's result.
func DecodeLocations(data []byte) ([]Loc, error) {
	if locs, ok := parseLocations(data); ok {
		return locs, nil
	}
	var locs []Loc
	err := json.Unmarshal(data, &locs)
	return locs, err
}

// parseLocations parses the json.Marshal form of a non-empty batch,
// reporting !ok on any deviation from it.
func parseLocations(data []byte) ([]Loc, bool) {
	const roadKey, fromKey = `{"road":`, `,"from_start":`
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return nil, false
	}
	locs := make([]Loc, 0, bytes.Count(data, []byte{'{'}))
	i := 1
	for {
		if !bytes.HasPrefix(data[i:], []byte(roadKey)) {
			return nil, false
		}
		i += len(roadKey)
		n := intLen(data[i:])
		if n == 0 {
			return nil, false
		}
		road, err := strconv.ParseInt(string(data[i:i+n]), 10, 0)
		if err != nil {
			return nil, false
		}
		i += n
		if !bytes.HasPrefix(data[i:], []byte(fromKey)) {
			return nil, false
		}
		i += len(fromKey)
		n = numberLen(data[i:])
		if n == 0 {
			return nil, false
		}
		from, err := strconv.ParseFloat(string(data[i:i+n]), 64)
		if err != nil {
			return nil, false
		}
		i += n
		locs = append(locs, Loc{Road: int(road), FromStart: from})
		if i+1 >= len(data) || data[i] != '}' {
			return nil, false
		}
		switch data[i+1] {
		case ',':
			i += 2
		case ']':
			return locs, i+2 == len(data)
		default:
			return nil, false
		}
	}
}

// intLen returns the length of the JSON integer -?(0|[1-9][0-9]*) at the
// start of b, or 0 if there is none.
func intLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return 0
	case b[i] == '0':
		return i + 1
	case b[i] >= '1' && b[i] <= '9':
		return i + digits(b[i:])
	}
	return 0
}

// numberLen returns the length of the JSON number at the start of b
// (integer, optional fraction, optional exponent), or 0 if there is
// none.
func numberLen(b []byte) int {
	i := intLen(b)
	if i == 0 {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		d := digits(b[i+1:])
		if d == 0 {
			return 0
		}
		i += 1 + d
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := digits(b[i:])
		if d == 0 {
			return 0
		}
		i += d
	}
	return i
}

// digits counts the leading ASCII digits of b.
func digits(b []byte) int {
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// AppendObfuscateResponse appends to dst exactly the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included. Like
// encoding/json it fails on a NaN or infinite coordinate, appending
// nothing.
func AppendObfuscateResponse(dst []byte, r *ObfuscateResponse) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"key":`...)
	dst = appendString(dst, r.Key)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if r.Quality != "" {
		dst = append(dst, `,"quality":`...)
		dst = appendString(dst, r.Quality)
	}
	dst = append(dst, `,"locations":`...)
	if r.Locations == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, l := range r.Locations {
			if i > 0 {
				dst = append(dst, ',')
			}
			if math.IsNaN(l.FromStart) || math.IsInf(l.FromStart, 0) {
				return dst[:start], &json.UnsupportedValueError{Str: strconv.FormatFloat(l.FromStart, 'g', -1, 64)}
			}
			dst = append(dst, `{"road":`...)
			dst = strconv.AppendInt(dst, int64(l.Road), 10)
			dst = append(dst, `,"from_start":`...)
			dst = appendFloat(dst, l.FromStart)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendFloat formats a finite float64 as encoding/json does: ES6
// number-to-string, shortest round-trip digits, exponent form outside
// [1e-6, 1e21) without exponent zero padding.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(dst)
		if dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString appends s as a JSON string the way json.Encoder does with
// its default HTML escaping: <, > and & and control bytes as \u00XX,
// invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
