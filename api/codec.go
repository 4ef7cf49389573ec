// The wire codec of the hot request and response types: QueryRequest,
// ProximityRequest, QueryResponse, ProximityResponse. encoding/json
// remains the definition of the format — this file is a fast path
// through it, in both directions, and never a second dialect:
//
//   - AppendJSON emits byte-for-byte what json.Marshal emits for the same
//     value (field order, omitempty, HTML-safe escaping, shortest
//     round-trip float text), without reflection and without allocating
//     when dst has room.
//   - The Unmarshal*/Scan* functions make one forward pass that accepts
//     only the canonical compact form AppendJSON emits with plain
//     printable-ASCII strings. Anything else — whitespace, reordered,
//     unknown or duplicate keys, escapes, non-ASCII, nulls, malformed
//     input — is handed to encoding/json untouched, which then produces
//     the value or the error. The fast path is a subset of the format by
//     construction, and the differential tests and fuzz targets in
//     codec_test.go hold it there.

package api

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on (its default): ", \ and control bytes escaped,
// <, > and & as \u00XX, U+2028/U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
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
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json renders a float64: shortest
// text that round-trips, 'e' form below 1e-6 and from 1e21 with a
// two-digit negative exponent trimmed (e-09 → e-9). NaN and ±Inf have no
// JSON form and are an error, as they are for json.Marshal.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("api: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSON appends r's JSON encoding — byte-identical to json.Marshal(r)
// — to dst and returns the extended slice.
func (r *QueryRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"class":`...), r.Class)
	if r.Query != "" {
		dst = appendString(append(dst, `,"query":`...), r.Query)
	}
	if len(r.Queries) > 0 {
		dst = append(dst, `,"queries":`...)
		sep := byte('[')
		for _, q := range r.Queries {
			dst = appendString(append(dst, sep), q)
			sep = ','
		}
		dst = append(dst, ']')
	}
	if r.K != 0 {
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.K), 10)
	}
	return append(dst, '}'), nil
}

// AppendJSON appends r's JSON encoding — byte-identical to json.Marshal(r)
// — to dst and returns the extended slice.
func (r *ProximityRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"class":`...), r.Class)
	dst = appendString(append(dst, `,"x":`...), r.X)
	dst = appendString(append(dst, `,"y":`...), r.Y)
	return append(dst, '}'), nil
}

// AppendJSON appends r's JSON encoding — byte-identical to json.Marshal(r)
// — to dst and returns the extended slice. Like json.Marshal it fails on
// a NaN or infinite score.
func (r *QueryResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"class":`...), r.Class)
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.K), 10)
	dst = append(dst, `,"results":`...)
	if r.Results == nil {
		return append(dst, `null}`...), nil
	}
	dst = append(dst, '[')
	for i := range r.Results {
		qr := &r.Results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"query":`...), qr.Query)
		dst = append(dst, `,"results":`...)
		if qr.Results == nil {
			dst = append(dst, `null}`...)
			continue
		}
		dst = append(dst, '[')
		for j := range qr.Results {
			rr := &qr.Results[j]
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"node":`...), int64(rr.Node), 10)
			dst = appendString(append(dst, `,"name":`...), rr.Name)
			var err error
			if dst, err = appendFloat(append(dst, `,"score":`...), rr.Score); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, `]}`...), nil
}

// AppendJSON appends r's JSON encoding — byte-identical to json.Marshal(r)
// — to dst and returns the extended slice. Like json.Marshal it fails on
// a NaN or infinite proximity.
func (r *ProximityResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"class":`...), r.Class)
	dst = appendString(append(dst, `,"x":`...), r.X)
	dst = appendString(append(dst, `,"y":`...), r.Y)
	dst, err := appendFloat(append(dst, `,"proximity":`...), r.Proximity)
	return append(dst, '}'), err
}

// scanner is the forward pass of the fast decoders over one copy of the
// body: every decoded string is a substring of s, so a whole response
// costs one string allocation however many names it carries.
type scanner struct {
	s string
	i int
}

// newScanner copies data once; the single trailing newline the servers
// put after every body (json.Encoder's framing) is not part of the value.
func newScanner(data []byte) scanner {
	return scanner{s: strings.TrimSuffix(string(data), "\n")}
}

// lit consumes the exact literal l.
func (sc *scanner) lit(l string) bool {
	if strings.HasPrefix(sc.s[sc.i:], l) {
		sc.i += len(l)
		return true
	}
	return false
}

// done reports whether the whole input was consumed.
func (sc *scanner) done() bool { return sc.i == len(sc.s) }

// str consumes a quoted string of unescaped printable ASCII — the only
// strings whose value is their own bytes.
func (sc *scanner) str() (string, bool) {
	if sc.i >= len(sc.s) || sc.s[sc.i] != '"' {
		return "", false
	}
	for j := sc.i + 1; j < len(sc.s); j++ {
		switch c := sc.s[j]; {
		case c == '"':
			v := sc.s[sc.i+1 : j]
			sc.i = j + 1
			return v, true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return "", false
		}
	}
	return "", false
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (sc *scanner) digits() bool {
	start := sc.i
	for sc.i < len(sc.s) && sc.s[sc.i]-'0' <= 9 {
		sc.i++
	}
	return sc.i > start
}

// integer consumes the integer part of a JSON number: an optional minus,
// then 0 or a digit run without a leading zero.
func (sc *scanner) integer() bool {
	sc.lit("-")
	if sc.lit("0") {
		return true
	}
	return sc.digits()
}

// int consumes a JSON integer that fits bitSize bits.
func (sc *scanner) int(bitSize int) (int64, bool) {
	start := sc.i
	if !sc.integer() {
		return 0, false
	}
	n, err := strconv.ParseInt(sc.s[start:sc.i], 10, bitSize)
	return n, err == nil
}

// float consumes a JSON number and converts it as encoding/json does.
func (sc *scanner) float() (float64, bool) {
	start := sc.i
	if !sc.integer() {
		return 0, false
	}
	if sc.lit(".") && !sc.digits() {
		return 0, false
	}
	if sc.lit("e") || sc.lit("E") {
		if !sc.lit("+") {
			sc.lit("-")
		}
		if !sc.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(sc.s[start:sc.i], 64)
	return f, err == nil
}

// UnmarshalQueryResponse decodes data into out with the result and the
// error json.Unmarshal(data, out) gives for a zero out. On the fast path
// the decoded strings share one copy of the body and every ranking
// shares one array, so a response costs three allocations whatever its
// batch size; retain or drop it as a unit.
func UnmarshalQueryResponse(data []byte, out *QueryResponse) error {
	if scanQueryResponse(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

func scanQueryResponse(data []byte, out *QueryResponse) bool {
	sc := newScanner(data)
	var r QueryResponse
	var ok bool
	if !sc.lit(`{"class":`) {
		return false
	}
	if r.Class, ok = sc.str(); !ok || !sc.lit(`,"k":`) {
		return false
	}
	k, ok := sc.int(strconv.IntSize)
	if !ok || !sc.lit(`,"results":[`) {
		return false
	}
	r.K = int(k)
	// A quote inside an accepted string would have ended it, so these
	// literals occur only where an element starts: the counts are exact
	// for every input the pass accepts, and only a capacity otherwise.
	r.Results = make([]QueryResult, 0, strings.Count(sc.s, `{"query":`))
	ranked := make([]RankedResult, 0, strings.Count(sc.s, `{"node":`))
	for !sc.lit(`]`) {
		if len(r.Results) > 0 && !sc.lit(`,`) {
			return false
		}
		var qr QueryResult
		if !sc.lit(`{"query":`) {
			return false
		}
		if qr.Query, ok = sc.str(); !ok || !sc.lit(`,"results":[`) {
			return false
		}
		first := len(ranked)
		for !sc.lit(`]`) {
			if len(ranked) > first && !sc.lit(`,`) {
				return false
			}
			var rr RankedResult
			if !sc.lit(`{"node":`) {
				return false
			}
			node, ok := sc.int(32)
			if !ok || !sc.lit(`,"name":`) {
				return false
			}
			rr.Node = int32(node)
			if rr.Name, ok = sc.str(); !ok || !sc.lit(`,"score":`) {
				return false
			}
			if rr.Score, ok = sc.float(); !ok || !sc.lit(`}`) {
				return false
			}
			ranked = append(ranked, rr)
		}
		if !sc.lit(`}`) {
			return false
		}
		// Capacity clipped: appending to one ranking never writes into
		// the next one's entries.
		qr.Results = ranked[first:len(ranked):len(ranked)]
		r.Results = append(r.Results, qr)
	}
	if !sc.lit(`}`) || !sc.done() {
		return false
	}
	*out = r
	return true
}

// UnmarshalProximityResponse decodes data into out with the result and
// the error json.Unmarshal(data, out) gives for a zero out.
func UnmarshalProximityResponse(data []byte, out *ProximityResponse) error {
	if scanProximityResponse(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

func scanProximityResponse(data []byte, out *ProximityResponse) bool {
	sc := newScanner(data)
	var r ProximityResponse
	var ok bool
	if !sc.lit(`{"class":`) {
		return false
	}
	if r.Class, ok = sc.str(); !ok || !sc.lit(`,"x":`) {
		return false
	}
	if r.X, ok = sc.str(); !ok || !sc.lit(`,"y":`) {
		return false
	}
	if r.Y, ok = sc.str(); !ok || !sc.lit(`,"proximity":`) {
		return false
	}
	if r.Proximity, ok = sc.float(); !ok || !sc.lit(`}`) || !sc.done() {
		return false
	}
	*out = r
	return true
}

// ScanQueryRequest is the server half of the request fast path: it
// reports whether data is exactly what (*QueryRequest).AppendJSON emits
// with plain printable-ASCII strings, and fills out if so. On false out
// is untouched and the caller decodes — and rejects — with encoding/json,
// which stays the one source of every validation message.
func ScanQueryRequest(data []byte, out *QueryRequest) bool {
	sc := newScanner(data)
	var r QueryRequest
	var ok bool
	if !sc.lit(`{"class":`) {
		return false
	}
	if r.Class, ok = sc.str(); !ok {
		return false
	}
	if sc.lit(`,"query":`) {
		if r.Query, ok = sc.str(); !ok {
			return false
		}
	}
	if sc.lit(`,"queries":[`) {
		// Exact for an accepted body, as in scanQueryResponse: `","` only
		// occurs between two elements.
		r.Queries = make([]string, 0, 1+strings.Count(sc.s[sc.i:], `","`))
		for !sc.lit(`]`) {
			if len(r.Queries) > 0 && !sc.lit(`,`) {
				return false
			}
			q, ok := sc.str()
			if !ok {
				return false
			}
			r.Queries = append(r.Queries, q)
		}
	}
	if sc.lit(`,"k":`) {
		k, ok := sc.int(strconv.IntSize)
		if !ok {
			return false
		}
		r.K = int(k)
	}
	if !sc.lit(`}`) || !sc.done() {
		return false
	}
	*out = r
	return true
}

// ScanProximityRequest is ScanQueryRequest for the pair-score request.
func ScanProximityRequest(data []byte, out *ProximityRequest) bool {
	sc := newScanner(data)
	var r ProximityRequest
	var ok bool
	if !sc.lit(`{"class":`) {
		return false
	}
	if r.Class, ok = sc.str(); !ok || !sc.lit(`,"x":`) {
		return false
	}
	if r.X, ok = sc.str(); !ok || !sc.lit(`,"y":`) {
		return false
	}
	if r.Y, ok = sc.str(); !ok || !sc.lit(`}`) || !sc.done() {
		return false
	}
	*out = r
	return true
}
