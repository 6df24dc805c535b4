package obs

import "testing"

// FuzzParseTraceparent: a traceparent header is bytes from another
// process. For any of them the parser returns an error and no context,
// or a valid context whose rendering is the canonical spelling of what
// was sent — the same trace and span ids, byte for byte the same header
// when the input was a version-00 one with a flag this tracer writes —
// and parsing that rendering gives the context back.
func FuzzParseTraceparent(f *testing.F) {
	// The accepted spellings; TestParseTraceparentMalformed's cases and
	// truncations are in testdata/fuzz/FuzzParseTraceparent.
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, s := range []string{
		valid,
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			if tc != (TraceContext{}) {
				t.Fatalf("%q: error %v came with a context %+v", s, err, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("%q accepted as an invalid context %+v", s, tc)
		}
		out := tc.Traceparent()
		if out[2:53] != s[2:53] {
			t.Fatalf("%q renders as %q: ids changed", s, out)
		}
		if flags := s[53:55]; s[:2] == "00" && (flags == "00" || flags == "01") && out != s {
			t.Fatalf("%q renders as %q, want the same bytes", s, out)
		}
		if again, err := ParseTraceparent(out); err != nil || again != tc {
			t.Fatalf("%q renders as %q, which parses to %+v, %v; want %+v", s, out, again, err, tc)
		}
	})
}
