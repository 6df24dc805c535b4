package ceci

import "ceci/internal/enum"

// IndexDump returns the id-level dump (internal/ceci's Index.Dump) of the
// index m reports — the complete one, which a limited matcher builds
// first if it has not yet.
func IndexDump(m *Matcher) ([]uint64, error) {
	ix, err := m.index()
	return ix.Dump(), err
}

// MatchOver returns a matcher over the complete index m holds, enumerating
// under opts: an index one run built and another enumerates, as the
// service does with a cached one.
func MatchOver(m *Matcher, opts *Options) (*Matcher, error) {
	ix, err := m.index()
	if err != nil {
		return nil, err
	}
	o := opts.normalized()
	eo := o.enumOptions()
	return &Matcher{data: m.data, opts: o, progress: eo.Progress, inner: enum.NewMatcher(ix, eo)}, nil
}
