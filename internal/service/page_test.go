package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ceci/internal/graph"
	"ceci/internal/obs"
)

// randomPage draws a rows×width page whose ids span the uint32 range,
// with both ends of it forced in.
func randomPage(rng *rand.Rand, rows, width int) Page {
	flat := make([]graph.VertexID, rows*width)
	for i := range flat {
		switch rng.IntN(8) {
		case 0:
			flat[i] = 0
		case 1:
			flat[i] = math.MaxUint32
		case 2:
			flat[i] = graph.VertexID(rng.IntN(100))
		default:
			flat[i] = graph.VertexID(rng.Uint32())
		}
	}
	return Page{Width: width, IDs: flat}
}

// goldenBody is the body the parent of this codec wrote for v: the
// reflection encoder's, through WriteJSON.
func goldenBody(t *testing.T, status int, v any) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteJSON(rec, status, v)
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("WriteJSON body is not json.Marshal + newline:\n%s\n%s", got, want)
	}
	return rec.Body.Bytes()
}

// TestWriteQueryJSONByteIdentical: for every envelope and page shape the
// append encoder's body equals encoding/json's for the same value.
func TestWriteQueryJSONByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	envelopes := map[string]QueryResponse{
		"zero":   {},
		"result": {Count: 1234567, CacheHit: true, BuildMS: 0.25, EnumMS: 12.125, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", QueryHash: "00f067aa0ba902b7"},
		"partial": {Count: -1, Partial: true, BuildMS: 1e-9, EnumMS: 3e21,
			Error: "context deadline exceeded: <\"embeddings\":[[1]]> & \u2028 ſ"},
	}
	pages := map[string]Page{
		"zero":   {},
		"empty":  {Width: 3},
		"one":    {Width: 1, IDs: []graph.VertexID{7}},
		"ends":   {Width: 2, IDs: []graph.VertexID{0, math.MaxUint32, math.MaxUint32, 0}},
		"width1": randomPage(rng, 50, 1),
		"wide":   randomPage(rng, 3, 40),
		"1000x3": randomPage(rng, 1000, 3),
	}
	for en, env := range envelopes {
		for pn, page := range pages {
			full := env
			full.Embeddings = page.Rows()
			status := http.StatusOK
			if env.Partial {
				status = http.StatusGatewayTimeout
			}
			want := goldenBody(t, status, full)

			rec := httptest.NewRecorder()
			WriteQueryJSON(rec, status, env, page)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: body differs\n got %.200s\nwant %.200s", en, pn, got, want)
			}
			if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s/%s: status %d, content type %q", en, pn, rec.Code, rec.Header().Get("Content-Type"))
			}
		}
	}
}

// TestWriteQueryJSONRejectsForeignEnvelope: a value that does not lead
// with "count" cannot take a page; that is a 500, not a malformed 200.
func TestWriteQueryJSONRejectsForeignEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteQueryJSON(rec, http.StatusOK, map[string]int{"a": 1, "b": 2}, Page{Width: 1, IDs: []graph.VertexID{1}})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "not a query response envelope") {
		t.Fatalf("got %d %s", rec.Code, rec.Body)
	}
}

// TestEngineQueryBodyIsEncodingJSON posts real queries to the engine and
// checks the bytes on the wire are what encoding/json writes for the
// value they decode to — materialized, paged, count-only and refused.
func TestEngineQueryBodyIsEncodingJSON(t *testing.T) {
	srv, _, _ := traceTestServer(t, Options{})
	post := func(wire QueryRequest) (int, []byte) {
		body, _ := json.Marshal(wire)
		hresp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		raw, err := io.ReadAll(hresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return hresp.StatusCode, raw
	}
	full := wireQuery(pathQuery(t, 1, 2, 3))
	paged := full
	paged.Offset, paged.Limit = 1, 2
	countOnly := full
	countOnly.CountOnly = true
	sawPage := false
	for name, wire := range map[string]QueryRequest{"full": full, "paged": paged, "count": countOnly, "bad": {}} {
		status, raw := post(wire)
		var v QueryResponse
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, goldenBody(t, status, v)) {
			t.Errorf("%s: body is not encoding/json's for its value: %s", name, raw)
		}
		sawPage = sawPage || len(v.Embeddings) > 0
	}
	if !sawPage {
		t.Fatal("no response carried embeddings")
	}
}

// responseBodies are query response bodies on and off the fast path;
// also the seed corpus of FuzzQueryResponseDecode.
var responseBodies = []string{
	// What the servers write.
	`{"count":2,"embeddings":[[1,2,3],[4,5,6]],"cache_hit":true,"build_ms":0,"enum_ms":0.5,"trace_id":"ab","query_hash":"cd"}` + "\n",
	`{"count":1,"embeddings":[[0,4294967295]],"cache_hit":false,"partial":true,"build_ms":1,"enum_ms":2,"error":"context deadline exceeded"}`,
	`{"count":0,"cache_hit":false,"build_ms":0,"enum_ms":0,"error":"service: bad query: no query given"}`,
	`{"count":3,"embeddings":[[9]]}`,
	// Valid JSON the fast path must decline or get right.
	` {"count":1,"embeddings":[[1,2]],"cache_hit":true}`,
	`{"count":1, "embeddings":[[1,2]]}`,
	`{"count":1,"embeddings":[[1, 2]]}`,
	`{"count":1,"embeddings":[[1,2],[3]],"cache_hit":true}`,
	`{"count":1,"embeddings":[[1,2],[]]}`,
	`{"count":1,"embeddings":[[]]}`,
	`{"count":1,"embeddings":[]}`,
	`{"count":1,"embeddings":null,"cache_hit":true}`,
	`{"count":1,"embeddings":[[1,2],null]}`,
	`{"cache_hit":true,"embeddings":[[1,2]],"count":5}`,
	`{"count":1,"embeddings":[[1,2]],"embeddings":[[3]]}`,
	`{"count":1,"embeddings":[[1,2]],"embeddings":null}`,
	`{"count":1,"embeddings":[[1,2]],"EMBEDDINGS":[[3,4],[5,6]]}`,
	`{"count":1,"embeddings":[[1,2]],"\u0065mbeddings":[]}`,
	`{"count":1,"embeddings":[[1,2]],"embeddingſ":[[8]]}`,
	`{"count":1,"embeddings":[[1,2]],"error":"said \"embeddings\":[[7]] twice"}`,
	`{"count":1,"embeddings":[[1,2]],"error":"\"embeddings\":","x":{"embeddings":[[7]]}}`,
	`{"count":1,"embeddings":[[1,2]],"count":7,"trace_id":"é"}`,
	`{"count":1,"embeddings":[[1,2]]}  ` + "\n\t",
	// A shard's leg reply: the span subtree closes the envelope. What it
	// says must not cost the page its fast path.
	spansReply,
	`{"count":7,"cache_hit":true,"build_ms":0,"enum_ms":0.1,"trace_id":"ab","spans":[{"name":"service-query","start_us":1,"dur_us":2}]}` + "\n",
	`{"count":1,"embeddings":[[1,2]],"spans":[]}`,
	`{"count":1,"embeddings":[[1,2]],"spans":[ {"name":"a"} , null, 3 ] }` + " \n",
	// A "spans" the peel must decline or get right.
	`{"count":1,"embeddings":[[1,2]],"spans":[{"name":"a"}],"cache_hit":true}`,
	`{"count":1,"embeddings":[[1,2]],"spans":[1],"spans":[2]}`,
	`{"count":1,"embeddings":[[1,2]],"SPANS":[1],"spans":[2]}`,
	`{"count":1,"embeddings":[[1,2]],"x":[{"a":1,"spans":[2]}]}`,
	`{"count":1,"embeddings":[[1,2]],"x":{"a":1,"spans":[2]}}`,
	`{"count":1,"embeddings":[[1,2]],"error":"x,\"spans\":[","spans":[{"name":",\"spans\":["}]}`,
	`{"count":1,"spans":[{"embeddings":[[9]]}]}`,
	`{"count":1,"embeddings":[[1,2]],"spans":null}`,
	`{"count":1,"embeddings":[[1,2]],"spans":{"a":[]}}`,
	// Errors: both decoders must refuse.
	`{,"spans":[]}`,
	`{"count":,"spans":[]}`,
	`{"count":1,"spans":[}`,
	`{"count":1,"spans":[1,]}`,
	`{"count":1,"spans":[]]}`,
	`{"count":1,"spans":[]}}`,
	`{"count":1,"embeddings":[[1,2]],"error":"x,"spans":[]}`,
	`{"count":1,"embeddings":[[1,2]],,"spans":[]}`,
	`{"count":1,"embeddings":[[1,2]],"spans":["\x"]}`,
	`{"count":1,"embeddings":[[4294967296]]}`,
	`{"count":1,"embeddings":[[01]]}`,
	`{"count":1,"embeddings":[[-1]]}`,
	`{"count":1,"embeddings":[[1e3]]}`,
	`{"count":1,"embeddings":[[1.0]]}`,
	`{"count":1,"embeddings":[["1"]]}`,
	`{"count":1,"embeddings":[[1,[2]]]}`,
	`{"count":1,"embeddings":[[1,{"a":[[2]]}]]}`,
	`{"count":1,"embeddings":[[1,2],]}`,
	`{"count":1,"embeddings":[[1,2,]]}`,
	`{"count":1,"embeddings":[[1,2]],}`,
	`{"count":1,"embeddings":[[1,2]]`,
	`{"count":1,"embeddings":[[1,2]`,
	`{"count":1,"embeddings":[[1,2`,
	`{"count":1,"embeddings":[[`,
	`{"count":1,"embeddings":[[1,2]]}x`,
	`{"count":1,"embeddings":[[1,2]]}{}`,
	`{"count":-,"embeddings":[[1,2]]}`,
	`{"count":1-2,"embeddings":[[1,2]]}`,
	`{"count":,"embeddings":[[1,2]]}`,
	`{"count":99999999999999999999,"embeddings":[[1,2]]}`,
	`{"count":1,"embeddings":[[1,2]],"build_ms":"fast"}`,
	`{"count":1,"embeddings":[[1,2]]"cache_hit":true}`,
	``,
	`null`,
	`[]`,
	`{`,
}

// spansReply is a page reply as a shard writes it to a traced leg, with
// everything in the spans that would send the page to encoding/json if
// splitPage saw it: the word itself, a \u escape, bytes past ASCII.
const spansReply = `{"count":2,"embeddings":[[1,2,3],[4,5,6]],"cache_hit":true,"build_ms":0,"enum_ms":0.5,"trace_id":"ab","query_hash":"cd",` +
	`"spans":[{"name":"service-query","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_span_id":"b7ad6b7169203331","attrs":{"cache_hit":"true","embeddings":"2"},"start_us":10,"dur_us":900},` +
	`{"name":"\u0065mbeddings é","span_id":"1c80319c8448eb21","parent_span_id":"00f067aa0ba902b7","start_us":20,"dur_us":5,"running":true}]}` + "\n"

// checkDecodeAgrees is the differential oracle: decodeQueryResponse
// against json.Unmarshal into the same type, and the spans it lifts off
// against the member encoding/json finds.
func checkDecodeAgrees(t *testing.T, raw []byte) {
	t.Helper()
	var want QueryResponse
	wantErr := json.Unmarshal(raw, &want)
	got, page, spans, gotErr := decodeQueryResponse(bytes.Clone(raw))
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("encoding/json error %v, codec error %v, for %q", wantErr, gotErr, raw)
	}
	if wantErr != nil {
		return
	}
	if spans != nil {
		var member struct {
			Spans json.RawMessage `json:"spans"`
		}
		if err := json.Unmarshal(raw, &member); err != nil || !bytes.Equal(member.Spans, spans) || spans[0] != '[' {
			t.Fatalf("lifted spans %q off %q; encoding/json finds %q (%v)", spans, raw, member.Spans, err)
		}
	}
	if page.Len() > 0 {
		if got.Embeddings != nil {
			t.Fatalf("a flat page and rows both, for %q", raw)
		}
		got.Embeddings = page.Rows()
	}
	if !reflect.DeepEqual(&want, got) {
		t.Fatalf("decoded values differ for %q:\n json %+v\ncodec %+v", raw, want, *got)
	}

	// Each step either does its whole job or leaves the body alone; the
	// fast path sizes its one flat array from the input: at most an id
	// per two bytes.
	body, lifted := peelSpans(bytes.Clone(raw))
	if lifted == nil && !bytes.Equal(body, raw) {
		t.Fatalf("peelSpans declined %q but rewrote it to %q", raw, body)
	}
	intact := bytes.Clone(body)
	if _, page, ok := splitPage(body); ok {
		if page.Len() == 0 || len(page.IDs)%page.Width != 0 || 2*cap(page.IDs) > len(intact) {
			t.Fatalf("page of width %d, %d ids (cap %d) from %d bytes", page.Width, len(page.IDs), cap(page.IDs), len(intact))
		}
	} else if !bytes.Equal(body, intact) {
		t.Fatalf("splitPage declined %q but rewrote it to %q", intact, body)
	}
}

func TestDecodeQueryResponseAgreesWithEncodingJSON(t *testing.T) {
	fast, lifted := 0, 0
	for _, body := range responseBodies {
		checkDecodeAgrees(t, []byte(body))
		rest, spans := peelSpans([]byte(body))
		if spans != nil {
			lifted++
		}
		if _, _, ok := splitPage(rest); ok {
			fast++
		}
	}
	if fast < 8 || lifted < 5 {
		t.Fatalf("only %d of the bodies took the fast path, %d had their spans lifted", fast, lifted)
	}
	// The reply a shard writes keeps the fast path whatever its spans say.
	if rest, spans := peelSpans([]byte(spansReply)); spans == nil {
		t.Fatal("a shard's reply kept its spans member")
	} else if _, page, ok := splitPage(rest); !ok || page.Len() != 2 {
		t.Fatal("a shard's reply missed the fast path")
	}
	// Every page the encoder writes is read back, fast, to the same value.
	rng := rand.New(rand.NewPCG(14, 2))
	for _, shape := range [][2]int{{1, 1}, {1, 9}, {17, 1}, {1000, 3}, {64, 12}} {
		want := QueryResponse{Count: int64(shape[0]), CacheHit: true, EnumMS: 0.75, TraceID: "t", Error: "a \"quoted\" error\n"}
		page := randomPage(rng, shape[0], shape[1])
		body, err := newQueryEncoder().encode(want, page, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := splitPage(bytes.Clone(body)); !ok {
			t.Fatalf("%v: the encoder's own output missed the fast path", shape)
		}
		got, gotPage, spans, err := decodeQueryResponse(bytes.Clone(body))
		if err != nil || spans != nil || !reflect.DeepEqual(&want, got) || !reflect.DeepEqual(page, gotPage) {
			t.Fatalf("%v: round trip: %v", shape, err)
		}
	}
}

func FuzzQueryResponseDecode(f *testing.F) {
	for _, body := range responseBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecodeAgrees(t, raw) })
}

// FuzzQueryRequest: whatever the body, decoding it and materializing
// the graph never panics, and a graph refused is refused as ErrBadQuery
// (a 400), never as a server fault.
func FuzzQueryRequest(f *testing.F) {
	for _, body := range []string{
		`{"query":"t 3 2\nv 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\n"}`,
		`{"labels":[1,2,3],"edges":[[0,1],[1,2]],"limit":10,"offset":2,"timeout_ms":50}`,
		`{"labels":[0,0],"edges":[[0,1]],"count_only":true}`,
		`{"query":"v 0 1","labels":[1]}`,
		`{"query":"v 4294967295 1\n"}`,
		`{"query":"t 2147483647 0\nv 2147483646 0\n"}`,
		`{"query":"e 0 4294967295\n"}`,
		`{"query":"v 0 16777217\n"}`,
		`{"labels":[4294967295]}`,
		`{"labels":[1],"edges":[[0,0]]}`,
		`{"labels":[1,1],"edges":[[0,1],[1,0],[0,1]]}`,
		`{"labels":[1],"edges":[[0,7]]}`,
		`{"labels":[],"edges":[[0,1]]}`,
		`{"query":"t 1\n"}`,
		`{"query":"x\n"}`,
		`{}`,
		`{"limit":-1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The body as a request document and, so that byte mutations reach
		// the graph parser directly, as the text of its "query" member.
		var wire QueryRequest
		if json.Unmarshal(body, &wire) != nil {
			wire = QueryRequest{}
		}
		for _, w := range []QueryRequest{wire, {Query: string(body)}} {
			g, err := w.Graph()
			if err != nil && !errors.Is(err, ErrBadQuery) {
				t.Fatalf("rejection does not wrap ErrBadQuery: %v", err)
			}
			if err == nil && g.NumVertices() == 0 {
				t.Fatal("accepted an empty graph")
			}
		}
	})
}

// cannedServer is a client of a server that answers every request with
// whatever *status and *body hold at the time.
func cannedServer(t *testing.T, status *int, body *string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(*status)
		io.WriteString(w, *body)
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client())
}

// TestClientQueryDecodesLikeEncodingJSON: through the real client, every
// body yields what encoding/json yields, under a 200 and under a 504.
func TestClientQueryDecodesLikeEncodingJSON(t *testing.T) {
	var body string
	var status int
	cl := cannedServer(t, &status, &body)
	for _, status = range []int{http.StatusOK, http.StatusGatewayTimeout} {
		for _, body = range responseBodies {
			var want QueryResponse
			wantErr := json.Unmarshal([]byte(body), &want)
			got, err := cl.Query(context.Background(), QueryRequest{})
			var apiErr *APIError
			isAPI := errors.As(err, &apiErr)
			switch {
			case strings.TrimSpace(body) == "":
				// No document: a failed leg under 200, a bare status otherwise.
				if status == http.StatusOK && (err == nil || isAPI || got != nil) {
					t.Errorf("200 with body %q: got %+v, %v; want a decoding error", body, got, err)
				}
				if status != http.StatusOK && (!isAPI || apiErr.StatusCode != status || !reflect.DeepEqual(got, &QueryResponse{})) {
					t.Errorf("%d with body %q: got %+v, %v; want a bare APIError", status, body, got, err)
				}
			case wantErr != nil || (status == http.StatusOK && !strings.HasPrefix(strings.TrimSpace(body), "{")):
				if err == nil || isAPI || got != nil {
					t.Errorf("%d %q: got %+v, %v; want a decoding error", status, body, got, err)
				}
			default:
				if !reflect.DeepEqual(&want, got) {
					t.Errorf("%d %q: got %+v, want %+v", status, body, got, want)
				}
				if (status == http.StatusOK) != (err == nil) || (err != nil && (!isAPI || apiErr.Resp != got || apiErr.Message != want.Error)) {
					t.Errorf("%d %q: error %v", status, body, err)
				}
			}
		}
	}
}

// TestClientQueryPage: the flat-page entry point returns the same
// embeddings Query does, flat, whichever decoder read the reply — and
// refuses a reply no Page can hold.
func TestClientQueryPage(t *testing.T) {
	var body string
	var status int
	cl := cannedServer(t, &status, &body)
	for _, tc := range []struct {
		name   string
		status int
		body   string
		want   Page
		fails  bool
		spans  bool
	}{
		{"compact", 200, `{"count":2,"embeddings":[[1,2],[3,4]],"cache_hit":true}`, Page{Width: 2, IDs: []graph.VertexID{1, 2, 3, 4}}, false, false},
		{"through encoding/json", 200, `{"count":2, "embeddings":[[1,2], [3,4]]}`, Page{Width: 2, IDs: []graph.VertexID{1, 2, 3, 4}}, false, false},
		{"partial", 504, `{"count":1,"embeddings":[[9]],"partial":true,"error":"deadline"}`, Page{Width: 1, IDs: []graph.VertexID{9}}, false, false},
		{"count only", 200, `{"count":7,"cache_hit":true}`, Page{}, false, false},
		{"empty page", 200, `{"count":7,"embeddings":[]}`, Page{}, false, false},
		{"ragged", 200, `{"count":2,"embeddings":[[1,2],[3]]}`, Page{}, true, false},
		{"empty row", 200, `{"count":2,"embeddings":[[],[]]}`, Page{}, true, false},
		{"a shard's traced leg", 200, spansReply, Page{Width: 3, IDs: []graph.VertexID{1, 2, 3, 4, 5, 6}}, false, true},
		{"a traced leg cut short", 504, `{"count":1,"embeddings":[[9]],"partial":true,"spans":[{"name":"service-query"}]}`, Page{Width: 1, IDs: []graph.VertexID{9}}, false, true},
		{"spans through encoding/json", 200, `{"count":2, "embeddings":[[1,2]], "spans":[{"name":"a"}]}`, Page{Width: 2, IDs: []graph.VertexID{1, 2}}, false, false},
	} {
		status, body = tc.status, tc.body
		resp, page, spans, err := cl.QueryPage(context.Background(), QueryRequest{})
		if (spans != nil) != tc.spans {
			t.Errorf("%s: spans %q", tc.name, spans)
		}
		var apiErr *APIError
		switch {
		case tc.fails:
			if err == nil || errors.As(err, &apiErr) || resp != nil {
				t.Errorf("%s: got %+v, %v; want a decoding error", tc.name, resp, err)
			}
		case resp == nil || resp.Embeddings != nil || !reflect.DeepEqual(page, tc.want):
			t.Errorf("%s: response %+v, page %+v (%v); want %+v beside a response without embeddings", tc.name, resp, page, err, tc.want)
		case (tc.status == 200) != (err == nil) || (err != nil && (!errors.As(err, &apiErr) || apiErr.Resp != resp)):
			t.Errorf("%s: error %v", tc.name, err)
		}
	}
}

// TestQueryBodyBounded: a body past MaxRequestBytes is refused with 413
// and a JSON error before any of it is parsed as a query.
func TestQueryBodyBounded(t *testing.T) {
	srv, _, eng := traceTestServer(t, Options{})
	huge := `{"query":"` + strings.Repeat("# padding\\n", MaxRequestBytes/10) + `"}`
	for name, tc := range map[string]struct {
		body   string
		status int
		want   string
	}{
		"oversized": {huge, http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes"},
		"malformed": {`{"query":`, http.StatusBadRequest, "bad JSON: "},
		"sparse id": {`{"query":"v 4294967295 1\n"}`, http.StatusBadRequest, "beyond the 1048576 vertices accepted"},
		"big label": {`{"labels":[4294967295]}`, http.StatusBadRequest, "out of range"},
	} {
		hresp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		derr := json.NewDecoder(hresp.Body).Decode(&out)
		hresp.Body.Close()
		if hresp.StatusCode != tc.status || derr != nil || !strings.Contains(out.Error, tc.want) {
			t.Errorf("%s: HTTP %d, error %q (decode: %v); want %d with %q", name, hresp.StatusCode, out.Error, derr, tc.status, tc.want)
		}
	}
	if n := eng.requests.Load(); n != 0 {
		t.Fatalf("%d refused bodies reached Engine.Query", n)
	}
}

// pageFixture is the page the allocation proofs and microbenchmarks
// share: 1000 embeddings of a 3-vertex query, the fleet_scatter shape.
func pageFixture() (QueryResponse, Page) {
	env := QueryResponse{Count: 1000, CacheHit: true, BuildMS: 0, EnumMS: 0.31,
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", QueryHash: "00f067aa0ba902b7"}
	return env, randomPage(rand.New(rand.NewPCG(14, 3)), 1000, 3)
}

// legSpans is the span subtree of one fleet_scatter leg — service-query,
// enumerate, six clusters — with an attribute that would send the page
// to encoding/json if splitPage ever saw it (spansReply has the others).
func legSpans() *obs.Trace {
	tc, _ := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := obs.NewTracer(obs.TracerOptions{})
	root := tr.StartRemote(tc, "service-query", obs.Int("query_vertices", 3))
	root.Annotate(obs.String("cache_hit", "true"), obs.String("query_hash", "00f067aa0ba902b7"))
	enum := root.Child("enumerate", obs.String("strategy", "FGD"), obs.Int("units", 6), obs.Int("workers", 1))
	for i := int64(0); i < 6; i++ {
		enum.Child("cluster", obs.Int("pivot", 1000*i), obs.Int("depth", 1), obs.Int("card", 170), obs.Int("worker", 0)).End()
	}
	enum.Annotate(obs.Int("embeddings", 1000))
	enum.End()
	root.Annotate(obs.Int("outcome", 200), obs.Int("admission_wait_us", 0))
	root.End()
	return tr.Detach(tc.TraceID)
}

// TestPageCodecAllocs: encoding and decoding a 1000×3 page cost a fixed
// handful of allocations, none of them per row. Encoding makes 1: the
// envelope boxed into an interface. Decoding makes 8: the flat id array,
// the response, and encoding/json's decode state, scanner and strings
// for the seven-member envelope. A shard's span subtree on the reply adds
// none on either side (the router's copy of its bytes is the client's
// business) and does not cost the page its flat path, whatever the spans
// say. The bounds leave
// room for what the race detector's runtime adds (it also empties
// sync.Pools at random); BenchmarkPageEncode/Decode report the exact
// figures.
func TestPageCodecAllocs(t *testing.T) {
	env, page := pageFixture()
	qe := newQueryEncoder()
	for name, spans := range map[string]*obs.Trace{"plain": nil, "with spans": legSpans()} {
		body, err := qe.encode(env, page, spans)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.Clone(body)
		if n := testing.AllocsPerRun(100, func() { qe.encode(env, page, spans) }); n > 4 {
			t.Errorf("%s: encode: %v allocations per 1000x3 page, want 1 (<= 4)", name, n)
		}
		scratch := make([]byte, len(body))
		if n := testing.AllocsPerRun(100, func() {
			copy(scratch, body)
			if _, _, _, err := decodeQueryResponse(scratch); err != nil {
				t.Fatal(err)
			}
		}); n > 16 {
			t.Errorf("%s: decode: %v allocations per 1000x3 page, want 8 (<= 16)", name, n)
		}
		rest, lifted := peelSpans(bytes.Clone(body))
		if _, _, flat := splitPage(rest); !flat || (lifted != nil) != (spans != nil) {
			t.Errorf("%s: flat path %v, %d bytes of spans lifted", name, flat, len(lifted))
		}
	}
}

// flatSpans is the reference for the spans member, written with
// encoding/json: the forest's spans depth first, each marshalled with its
// Children nil and naming its parent, as one array.
func flatSpans(t *testing.T, nodes []*obs.SpanNode) string {
	t.Helper()
	var elems []string
	var walk func(n *obs.SpanNode, parent string)
	walk = func(n *obs.SpanNode, parent string) {
		flat := *n
		flat.Children = nil
		if flat.ParentSpanID == "" {
			flat.ParentSpanID = parent
		}
		b, err := json.Marshal(&flat)
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, string(b))
		for _, c := range n.Children {
			walk(c, n.SpanID)
		}
	}
	for _, n := range nodes {
		walk(n, "")
	}
	return "[" + strings.Join(elems, ",") + "]"
}

// TestSpansMemberClosesTheEnvelope: a reply with spans is the reply
// without them — byte for byte — plus one last member holding what
// encoding/json writes for the same trace's spans, a span to an element.
func TestSpansMemberClosesTheEnvelope(t *testing.T) {
	env, page := pageFixture()
	spans := legSpans()
	member := flatSpans(t, spans.Nodes())
	for name, page := range map[string]Page{"page": page, "count only": {}} {
		plain, err := newQueryEncoder().encode(env, page, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := newQueryEncoder().encode(env, page, spans)
		if err != nil {
			t.Fatal(err)
		}
		want := string(plain[:len(plain)-2]) + `,"spans":` + member + "}\n"
		if string(got) != want {
			t.Errorf("%s:\n got %.300s…%s\nwant %.300s…%s", name, got, got[max(0, len(got)-2200):], want, want[max(0, len(want)-2200):])
		}
		resp, gotPage, lifted, err := decodeQueryResponse(bytes.Clone(got))
		if err != nil || string(lifted) != member || !reflect.DeepEqual(resp, &env) || !reflect.DeepEqual(gotPage.IDs, page.IDs) {
			t.Errorf("%s: decoded %+v, %d ids, spans %.80s (%v)", name, resp, len(gotPage.IDs), lifted, err)
		}
	}
}

var (
	benchResp *QueryResponse
	benchPage Page
)

func BenchmarkPageEncode(b *testing.B) {
	env, page := pageFixture()
	qe := newQueryEncoder()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			body, _ := qe.encode(env, page, nil)
			b.SetBytes(int64(len(body)))
		}
	})
	b.Run("append-with-spans", func(b *testing.B) {
		spans := legSpans()
		b.ReportAllocs()
		for b.Loop() {
			body, _ := qe.encode(env, page, spans)
			b.SetBytes(int64(len(body)))
		}
	})
	// The reflection encoder this codec replaced, for scale.
	b.Run("encoding-json", func(b *testing.B) {
		full := env
		full.Embeddings = page.Rows()
		b.ReportAllocs()
		for b.Loop() {
			body, _ := json.Marshal(full)
			b.SetBytes(int64(len(body)))
		}
	})
}

func BenchmarkPageDecode(b *testing.B) {
	env, page := pageFixture()
	body, _ := newQueryEncoder().encode(env, page, nil)
	body = bytes.Clone(body)
	scratch := make([]byte, len(body))
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			copy(scratch, body)
			benchResp, benchPage, _, _ = decodeQueryResponse(scratch)
		}
	})
	b.Run("scan-with-spans", func(b *testing.B) {
		body, _ := newQueryEncoder().encode(env, page, legSpans())
		body = bytes.Clone(body)
		scratch := make([]byte, len(body))
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			copy(scratch, body)
			benchResp, benchPage, _, _ = decodeQueryResponse(scratch)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var out QueryResponse
			json.Unmarshal(body, &out)
			benchResp = &out
		}
	})
}
