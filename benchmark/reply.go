package main

import (
	"bytes"
	"encoding/json"
)

var embeddingsKey = []byte(`"embeddings":`)

// decodeReply parses a query reply. The load generator shares its cores
// with the servers it measures, and encoding/json spends more on the
// embeddings array — a thousand small slices — than the server spends
// answering, so that one member is scanned by hand into a single
// allocation and only the rest goes through encoding/json. Anything the
// scanner does not recognise falls back to encoding/json for the whole
// reply, so the fast path can cost accuracy nothing.
func decodeReply(raw []byte) (wireReply, error) {
	var r wireReply
	at := bytes.Index(raw, embeddingsKey)
	if at < 0 {
		return r, json.Unmarshal(raw, &r)
	}
	val := at + len(embeddingsKey)
	rows, end, ok := scanRows(raw, val)
	if !ok {
		return r, json.Unmarshal(raw, &r)
	}
	rest := make([]byte, 0, len(raw)-(end-val)+4)
	rest = append(append(append(rest, raw[:val]...), "null"...), raw[end:]...)
	if err := json.Unmarshal(rest, &r); err != nil {
		return r, err
	}
	r.Embeddings = rows
	return r, nil
}

// scanRows reads a compact JSON array of arrays of unsigned integers
// starting at raw[at] and returns the rows (views of one backing slice)
// and the index just past the array.
func scanRows(raw []byte, at int) (rows [][]uint32, end int, ok bool) {
	if at >= len(raw) || raw[at] != '[' {
		return nil, 0, false
	}
	i := at + 1
	flat := make([]uint32, 0, (len(raw)-at)/3)
	var starts []int
	for i < len(raw) && raw[i] == '[' {
		starts = append(starts, len(flat))
		i++
		for {
			d0 := i
			var v uint64
			for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
				v = v*10 + uint64(raw[i]-'0')
				i++
			}
			if i == d0 || i-d0 > 10 || v > 1<<32-1 || i >= len(raw) {
				return nil, 0, false
			}
			flat = append(flat, uint32(v))
			if raw[i] == ',' {
				i++
				continue
			}
			if raw[i] != ']' {
				return nil, 0, false
			}
			i++
			break
		}
		if i < len(raw) && raw[i] == ',' {
			i++
		}
	}
	if i >= len(raw) || raw[i] != ']' {
		return nil, 0, false
	}
	rows = make([][]uint32, len(starts))
	for k, s := range starts {
		e := len(flat)
		if k+1 < len(starts) {
			e = starts[k+1]
		}
		rows[k] = flat[s:e:e]
	}
	return rows, i + 1, true
}
