package shard

import (
	"sync"

	"ceci/internal/service"
)

// window is the caller's page as rows [offset, end) of the usable
// shards' rows laid end to end in shard order. Every leg of the first
// round is asked to count up to end, so a shard's count is min(total,
// end) and says where the next shard's rows begin; rows past end never
// reach the page.
type window struct{ offset, end int64 }

// window returns the request's window. A count-only request's is empty:
// it reads no rows.
func (rt *Router) window(wire service.QueryRequest) window {
	if wire.CountOnly {
		return window{}
	}
	return window{wire.Offset, wire.Offset + rt.frame.PageLimit(wire.Limit)}
}

// rows is how many rows of the lay-out a leg reporting count holds: the
// count, kept inside [0, end] so that a shard's wrong count cannot push
// the next shard's rows past any bound.
func (w window) rows(count int64) int64 { return min(max(count, 0), w.end) }

// part returns the rows [lo, hi) of the window held by a shard whose n
// rows start at row start of the lay-out, in the shard's own numbering;
// lo >= hi when the window holds none of them.
func (w window) part(start, n int64) (lo, hi int64) {
	return max(w.offset, start) - start, min(w.end, start+n) - start
}

// fill is a leg the window still needs: rows [offset, offset+limit) of
// one shard.
type fill struct {
	shard         int
	offset, limit int64
}

// legs runs a query's rounds over n shards and returns each shard's
// legs. The first round asks every shard at once (send with f nil): shard
// 0 pages the window and the others count it, a count being min(total,
// offset+limit) either way. Then, while the window over the usable
// shards' counts holds rows that no page does, a round of fill legs
// (send with f) fetches exactly those, in parallel. A fill that fails
// takes its shard out of the lay-out, which moves the later shards' parts
// of the window onto later rows of theirs: a round past the second
// follows a failure, and re-asks a shard whose part moved. Each leg's
// goroutine writes only its own shard's chain of legs.
func (w window) legs(n, width int, send func(shard int, f *fill) shardResult) []shardResult {
	results := make([]shardResult, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = send(i, nil)
		}(i)
	}
	wg.Wait()
	for fills := w.fills(width, results); len(fills) > 0; fills = w.fills(width, results) {
		for _, f := range fills {
			wg.Add(1)
			go func(f fill) {
				defer wg.Done()
				res := send(f.shard, &f)
				results[f.shard].last().fill = &res
			}(f)
		}
		wg.Wait()
	}
	return results
}

// fills lists the legs that would fetch the rows of the window that no
// shard's last leg holds. A leg asked for exactly a shard's part that came
// back short is what that shard has: it is not asked again.
func (w window) fills(width int, results []shardResult) []fill {
	var out []fill
	var start int64
	for i := range results {
		res := &results[i]
		if res.failure(width) != "" {
			continue
		}
		n := w.rows(res.resp.Count)
		lo, hi := w.part(start, n)
		start += n
		if last := res.last(); lo < hi && !last.holds(lo, hi) && (last.from != lo || last.upto != hi) {
			out = append(out, fill{i, lo, hi - lo})
		}
	}
	return out
}

// last is the shard's latest leg.
func (r *shardResult) last() *shardResult {
	for r.fill != nil {
		r = r.fill
	}
	return r
}

// holds reports whether the leg's page holds rows [lo, hi) of its shard.
func (r *shardResult) holds(lo, hi int64) bool {
	return r.from <= lo && hi <= r.from+int64(r.page.Len())
}

// slice returns rows [lo, hi) of the leg's shard, as many of them as its
// page holds, as a view of the page.
func (r *shardResult) slice(lo, hi int64) service.Page {
	n := int64(r.page.Len())
	a := min(max(lo-r.from, 0), n)
	b := min(max(hi-r.from, a), n)
	return r.page.Slice(int(a), int(b))
}
