package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"ceci/internal/graph"
	"ceci/internal/obs"
)

// This file is the one codec of the embedding page — the "embeddings"
// member of a query response, the only part of the document whose size
// grows with the result. In memory a page is a Page: one flat array of
// ids, with no per-row header. On the wire it is the compact form
// encoding/json writes for a [][]graph.VertexID, and that form is the
// contract: the encoder below emits it byte for byte, the decoder reads
// exactly it and hands anything else to encoding/json. The small
// envelope around the page always goes through encoding/json. See
// DESIGN §12.
//
// One more member exists, "spans", and one producer of it: a shard-mode
// engine answering a leg of a traced scatter closes the envelope with its
// span subtree (obs.Trace.AppendJSON). The client lifts it off as bytes
// before anything else looks at the body. No other reply carries it.

// MaxRequestBytes bounds the body of POST /query on the engine and the
// router. A query graph is kilobytes; a body near a mebibyte is not one.
const MaxRequestBytes = 1 << 20

// maxPooledBytes keeps a rare huge page from pinning its buffer in a
// pool for the life of the process.
const maxPooledBytes = 1 << 20

const (
	countKey = `{"count":`
	pageKey  = `"embeddings":`
	spansKey = `,"spans":`
)

// Page is a page of embeddings: Len() of them, each Width ids (one per
// query vertex), laid end to end in IDs. The zero Page is empty.
type Page struct {
	Width int
	IDs   []graph.VertexID
}

// Len returns the number of embeddings on the page.
func (p Page) Len() int {
	if p.Width == 0 {
		return 0
	}
	return len(p.IDs) / p.Width
}

// Slice returns embeddings [from, to) as a view of p.
func (p Page) Slice(from, to int) Page {
	return Page{Width: p.Width, IDs: p.IDs[from*p.Width : to*p.Width : to*p.Width]}
}

// Rows returns the embeddings as slices, each a view of p.IDs — the
// form QueryResponse.Embeddings has. An empty page gives nil.
func (p Page) Rows() [][]graph.VertexID {
	if p.Len() == 0 {
		return nil
	}
	rows := make([][]graph.VertexID, p.Len())
	for i := range rows {
		rows[i] = p.IDs[i*p.Width : (i+1)*p.Width : (i+1)*p.Width]
	}
	return rows
}

// pageOf copies rows into a Page. It reports false if they are not all
// of one non-zero width, which no Page can hold.
func pageOf(rows [][]graph.VertexID) (Page, bool) {
	if len(rows) == 0 {
		return Page{}, true
	}
	p := Page{Width: len(rows[0]), IDs: make([]graph.VertexID, 0, len(rows)*len(rows[0]))}
	for _, row := range rows {
		if len(row) != p.Width || p.Width == 0 {
			return Page{}, false
		}
		p.IDs = append(p.IDs, row...)
	}
	return p, true
}

// ReadQueryRequest is the decode step of POST /query: the body, reading
// at most MaxRequestBytes of it, and the query graph it describes. On
// failure it returns the status to answer with — 413 for an oversized
// body, 400 for anything else — and the error to put in the response
// document. Shared by the engine and the shard router, which answer in
// different envelopes.
func ReadQueryRequest(w http.ResponseWriter, r *http.Request) (wire QueryRequest, q *graph.Graph, status int, err error) {
	err = json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&wire)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return wire, nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
	case err != nil:
		return wire, nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
	if q, err = wire.Graph(); err != nil {
		return wire, nil, http.StatusBadRequest, err
	}
	return wire, q, http.StatusOK, nil
}

// appendPage appends a non-empty page as encoding/json writes its
// Rows(): no whitespace, decimal ids.
//
// It is the serving path's inner loop (a routed request writes four
// pages of up to three thousand ids), so it reserves the longest the text can
// be — ten digits and a separator per id, two brackets per row and for
// the page — and writes digits in place; strconv.AppendUint formats
// into a scratch array and copies each number out.
func appendPage(dst []byte, page Page) []byte {
	dst = slices.Grow(dst, 11*len(page.IDs)+2*page.Len()+2)
	out, n := dst[:cap(dst)], len(dst)
	out[n] = '['
	n++
	for at := 0; at < len(page.IDs); at += page.Width {
		if at > 0 {
			out[n] = ','
			n++
		}
		out[n] = '['
		for _, v := range page.IDs[at : at+page.Width] {
			n += 1 + decimalLen(v) // past the '[' or ',' and the digits
			for i := n - 1; ; i-- {
				out[i] = byte('0' + v%10)
				if v /= 10; v == 0 {
					break
				}
			}
			out[n] = ','
		}
		out[n] = ']' // over the last id's comma
		n++
	}
	out[n] = ']'
	return out[:n+1]
}

// decimalLen returns the number of decimal digits of v.
func decimalLen(v graph.VertexID) int {
	switch {
	case v < 1e1:
		return 1
	case v < 1e2:
		return 2
	case v < 1e3:
		return 3
	case v < 1e4:
		return 4
	case v < 1e5:
		return 5
	case v < 1e6:
		return 6
	case v < 1e7:
		return 7
	case v < 1e8:
		return 8
	case v < 1e9:
		return 9
	}
	return 10
}

// queryEncoder holds the buffers one response encoding needs, reused
// across requests through queryEncoders.
type queryEncoder struct {
	env bytes.Buffer  // the envelope as encoding/json writes it
	enc *json.Encoder // writes into env
	out []byte        // the finished document
}

func newQueryEncoder() *queryEncoder {
	qe := &queryEncoder{}
	qe.enc = json.NewEncoder(&qe.env)
	return qe
}

var queryEncoders = sync.Pool{New: func() any { return newQueryEncoder() }}

// encode returns the document json.NewEncoder(w).Encode writes for
// envelope with its Embeddings set to page.Rows(). envelope is a
// QueryResponse or a struct embedding one (so "count" leads and
// "embeddings" follows it), with Embeddings nil. A non-nil spans is
// appended as the envelope's last member, "spans". The result is valid
// until the next encode.
func (qe *queryEncoder) encode(envelope any, page Page, spans *obs.Trace) ([]byte, error) {
	qe.env.Reset()
	if err := qe.enc.Encode(envelope); err != nil {
		return nil, err
	}
	env := qe.env.Bytes()
	if page.Len() == 0 && spans == nil {
		return env, nil // omitempty: the member is absent
	}
	out := qe.out[:0]
	if page.Len() > 0 {
		comma := bytes.IndexByte(env, ',')
		if !bytes.HasPrefix(env, []byte(countKey)) || comma < 0 {
			return nil, fmt.Errorf("service: %T is not a query response envelope", envelope)
		}
		out = append(out, env[:comma+1]...)
		out = append(out, pageKey...)
		out = appendPage(out, page)
		env = env[comma:]
	}
	out = append(out, env...)
	if spans != nil {
		out = append(out[:len(out)-len("}\n")], spansKey...) // the envelope ends "}\n"
		out = append(spans.AppendJSON(out), "}\n"...)
	}
	qe.out = out
	return out, nil
}

// WriteQueryJSON answers POST /query: envelope (a QueryResponse, or the
// router's struct embedding one, with Embeddings nil) carrying page as
// its "embeddings" member. The body is byte-identical to what WriteJSON
// writes for the same value with Embeddings set to page.Rows(); only
// the envelope goes through encoding/json's reflection.
func WriteQueryJSON(w http.ResponseWriter, status int, envelope any, page Page) {
	writeQueryJSON(w, status, envelope, page, nil)
}

// writeQueryJSON is WriteQueryJSON with, when spans is non-nil, the
// "spans" member after everything else. Only a shard-mode engine
// answering a traced leg passes one (Engine.handleQuery).
func writeQueryJSON(w http.ResponseWriter, status int, envelope any, page Page, spans *obs.Trace) {
	qe := queryEncoders.Get().(*queryEncoder)
	body, err := qe.encode(envelope, page, spans)
	if err != nil {
		queryEncoders.Put(qe)
		WriteJSON(w, http.StatusInternalServerError, QueryResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
	if cap(qe.out) <= maxPooledBytes {
		queryEncoders.Put(qe)
	}
}

// decodeQueryResponse decodes a query response body. When the body has
// the shape the encoder above writes, the page is scanned into one flat
// allocation and returned beside a response whose Embeddings is nil;
// otherwise the whole body goes to encoding/json and the page, if any,
// is in Embeddings. Either way, the response with page.Rows() put in an
// empty Embeddings is what json.Unmarshal(raw, new(QueryResponse))
// yields: the same value, or an error whenever that errors. spans is the
// value of a closing "spans" member (peelSpans), a view of raw, or nil.
// raw is overwritten.
func decodeQueryResponse(raw []byte) (out *QueryResponse, page Page, spans []byte, err error) {
	out = &QueryResponse{}
	raw, spans = peelSpans(raw)
	env, page, ok := splitPage(raw)
	if !ok {
		return out, Page{}, spans, json.Unmarshal(raw, out)
	}
	return out, page, spans, json.Unmarshal(env, out)
}

// peelSpans recognises a body that opens `{"count":` and closes with a
// member `,"spans":[…]}` (then at most whitespace), the array valid
// JSON. It returns the body without the member — the comma overwritten
// by the closing brace — and the array, a view of raw. The shortened
// body is a well-formed document exactly when raw was, with the same
// other members: QueryResponse has no field a key "spans" could match,
// so encoding/json decodes both to one value. The array goes through
// encoding/json's scanner once and is not decoded; what a span name or
// attribute says (the word "embeddings", say) never reaches splitPage.
// On anything else it returns raw intact and nil.
func peelSpans(raw []byte) (rest, spans []byte) {
	end := len(bytes.TrimRight(raw, " \t\r\n"))
	if !bytes.HasPrefix(raw, []byte(countKey)) || !bytes.HasSuffix(raw[:end], []byte("]}")) {
		return raw, nil
	}
	// The last occurrence: a string inside the array cannot hold the key's
	// bare quotes, and a nested "spans" key fails the validity check.
	at := bytes.LastIndex(raw[:end], []byte(spansKey+"["))
	if at < 0 {
		return raw, nil
	}
	spans = raw[at+len(spansKey) : end-1]
	if !json.Valid(spans) {
		return raw, nil
	}
	raw[at] = '}'
	return raw[:at+1], spans
}

// splitPage recognises `{"count":N,"embeddings":[[a,b,…],…]` followed
// by the rest of the envelope: N an integer token, the rows non-empty,
// all of one width, ids in JSON's canonical decimal form and within
// uint32, no whitespace anywhere in the array, and nothing after the
// array that could name the embeddings field a second time (encoding/json
// lets the last duplicate win and matches field names case-insensitively,
// through \u escapes, and with 'ſ' for 's'). On a match it returns the
// page and, moved together inside raw, the envelope without the member;
// given that the array is valid JSON the envelope is well-formed exactly
// when raw was. On anything else it reports false and leaves raw intact.
func splitPage(raw []byte) (env []byte, page Page, ok bool) {
	if !bytes.HasPrefix(raw, []byte(countKey)) {
		return nil, Page{}, false
	}
	comma := len(countKey)
	for comma < len(raw) && (raw[comma] == '-' || raw[comma]-'0' <= 9) {
		comma++
	}
	if !bytes.HasPrefix(raw[comma:], []byte(","+pageKey+"[[")) {
		return nil, Page{}, false
	}
	start := comma + 1 + len(pageKey)
	// Rows do not nest, so the first "]]" ends a well-formed page.
	n := bytes.Index(raw[start:], []byte("]]"))
	if n < 0 {
		return nil, Page{}, false
	}
	end := start + n + 2
	if end == len(raw) || (raw[end] != ',' && raw[end] != '}') || mayNamePage(raw[end:]) {
		return nil, Page{}, false
	}

	// Every id but the first follows a comma, so this is the exact size.
	arr := raw[start:end]
	ids := make([]graph.VertexID, 0, bytes.Count(arr, []byte(","))+1)
	width := 0
	for p := 1; ; p += 2 { // arr[p] opens a row
		rowStart := len(ids)
		for {
			p++ // past the '[' or ',' before an id
			d0 := p
			var v uint64
			for ; arr[p]-'0' <= 9; p++ { // arr ends in ']', which stops this
				v = v*10 + uint64(arr[p]-'0')
				if v > math.MaxUint32 {
					return nil, Page{}, false
				}
			}
			if p == d0 || (arr[d0] == '0' && p-d0 > 1) {
				return nil, Page{}, false
			}
			ids = append(ids, graph.VertexID(v))
			if arr[p] != ',' {
				break
			}
		}
		if arr[p] != ']' {
			return nil, Page{}, false
		}
		if w := len(ids) - rowStart; width == 0 {
			width = w
		} else if w != width {
			return nil, Page{}, false
		}
		if p == len(arr)-2 {
			break // the page's own bracket follows
		}
		if arr[p+1] != ',' || arr[p+2] != '[' {
			return nil, Page{}, false
		}
	}

	env = raw[:comma+copy(raw[comma:], raw[end:])]
	return env, Page{Width: width, IDs: ids}, true
}

// mayNamePage reports whether the envelope text after the page could
// hold a key encoding/json would match to the embeddings field. It errs
// towards true: that only costs the fast path.
func mayNamePage(rest []byte) bool {
	const name = "embeddings"
	for i, c := range rest {
		switch {
		case c >= 0x80:
			return true
		case c == '\\' && i+1 < len(rest) && rest[i+1] == 'u':
			return true
		case c|0x20 == 'e' && len(rest)-i >= len(name) && bytes.EqualFold(rest[i:i+len(name)], []byte(name)):
			return true
		}
	}
	return false
}
