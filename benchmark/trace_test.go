package main

import "testing"

// A hand-built tree:
//
//	root      [0,100]
//	  a       [10,40]
//	    a1    [15,25]
//	  b       [30,60]   overlaps a on [30,40]
//	  c       [90,120]  ends outside root
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Req: 1, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (30 + 20 + 10), // a, the part of b after a, the part of c inside root
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if n := escapes(spans); n != 1 {
		t.Errorf("escapes = %d, want 1 (span c)", n)
	}
}

// Spans recorded by name (a shard leg knows its request, not its parent's
// id) and reply-reported durations get resolved by link.
func TestLink(t *testing.T) {
	spans := []span{
		{ID: 7, Req: 7, Name: "loadgen.request", Start: 0, End: 1000},
		{ID: 8, Req: 7, Name: "service.http", under: "loadgen.request", Start: 100, End: 900},
		{ID: 9, Req: 7, Name: "service.queue", under: "service.http", reported: true, End: 50},
		{ID: 10, Req: 7, Name: "service.build", under: "service.http", reported: true, End: 300},
		{ID: 11, Req: 7, Name: "service.enum", under: "service.http", reported: true, End: 200},
		{ID: 12, Req: 99, Name: "shard.leg", under: "shard.route", Start: 5, End: 6}, // its route was never recorded
	}
	link(spans)
	if spans[1].Parent != 7 {
		t.Errorf("service.http parent = %d, want the root 7", spans[1].Parent)
	}
	for i, want := range [][2]int64{{100, 150}, {150, 450}, {450, 650}} {
		s := spans[2+i]
		if s.Parent != 8 || s.Start != want[0] || s.End != want[1] {
			t.Errorf("%s = parent %d [%d,%d], want parent 8 %v", s.Name, s.Parent, s.Start, s.End, want)
		}
	}
	if spans[5].Parent != 99 {
		t.Errorf("orphan leg parent = %d, want its request id", spans[5].Parent)
	}
	if shell := selfTimes(spans)[8]; shell != 800-550 {
		t.Errorf("service.http self time = %d, want 250", shell)
	}
	if n := escapes(spans[:5]); n != 0 {
		t.Errorf("escapes = %d, want 0", n)
	}
}
