package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeInput decodes a predict body into in's backing array (grown as
// needed). The canonical body - the one object {"input":[numbers]} a client
// of this API sends - is parsed in a single pass; anything else (another
// key, an escape in the key, null, trailing data, a malformed or
// out-of-range number) goes to encoding/json, whose answer and error stand.
// The single pass accepts only what encoding/json accepts and converts each
// number with the same strconv call, so the two agree bit for bit.
func decodeInput(body []byte, in []float32) ([]float32, error) {
	if v, ok := parseInput(body, in[:0]); ok {
		return v, nil
	}
	req := predictRequest{Input: in[:0]}
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Input, err
}

// parseInput is decodeInput's single pass; ok is false for any body that is
// not exactly {"input":[numbers]} up to JSON whitespace.
func parseInput(b []byte, dst []float32) (_ []float32, ok bool) {
	const key = `"input"`
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if len(b)-i < len(key) || string(b[i:i+len(key)]) != key {
		return nil, false
	}
	i = skipSpace(b, i+len(key))
	if i >= len(b) || b[i] != ':' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i >= len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			end := number(b, i)
			if end == i {
				return nil, false
			}
			f, err := strconv.ParseFloat(string(b[i:end]), 32)
			if err != nil {
				return nil, false
			}
			dst = append(dst, float32(f))
			i = skipSpace(b, end)
			if i >= len(b) {
				return nil, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return nil, false
			}
			i = skipSpace(b, i+1)
		}
	}
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '}' {
		return nil, false
	}
	if skipSpace(b, i+1) != len(b) {
		return nil, false
	}
	return dst, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// number returns the end of the JSON number that starts at b[i], or i when
// none does: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func number(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		end := digits(b, k)
		if end == k {
			return i
		}
		j = end
	}
	return j
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
