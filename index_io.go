package ceci

import (
	"context"
	"io"
	"os"

	icec "ceci/internal/ceci"
)

// Index persistence: a built CECI can be saved and later rematched
// without paying construction again — the direction the paper's §6.4
// sketches for indexes that outgrow main memory. The serialized form
// embeds a fingerprint of the (data graph, query, options) it was built
// for; loading against anything else fails.

// SaveIndex writes the matcher's CECI to w — the complete one, which a
// limited matcher builds first if it has not yet.
func (m *Matcher) SaveIndex(w io.Writer) error {
	full, err := m.complete(context.Background())
	if err != nil {
		return err
	}
	_, err = full.Index().WriteTo(w)
	return err
}

// SaveIndexFile writes the matcher's CECI to path.
func (m *Matcher) SaveIndexFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.SaveIndex(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MatchWithIndex prepares a Matcher from a previously saved index
// instead of building one. The data graph, query, and the order-related
// options (Order, Planner, Root) must match the ones used when the index
// was built; enumeration options (Workers, Limit, Strategy, ...) may
// differ freely.
func MatchWithIndex(data, query *Graph, r io.Reader, opts *Options) (*Matcher, error) {
	o := opts.normalized()
	tree, planner, decision, err := o.preprocess(context.Background(), data, query)
	if err != nil {
		return nil, err
	}
	ix, err := icec.ReadIndex(r, data, tree)
	if err != nil {
		return nil, err
	}
	return o.matcher(data, ix, planner, decision), nil
}

// MatchWithIndexFile is MatchWithIndex reading from path.
func MatchWithIndexFile(data, query *Graph, path string, opts *Options) (*Matcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return MatchWithIndex(data, query, f, opts)
}
