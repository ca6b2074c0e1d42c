package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", trace: 1, id: 1, start: 0, end: 100},
		// Concurrent children: [10,40] and [30,60] overlap, [90,120] runs
		// past the parent's end; together they cover [10,60] and [90,100].
		{name: "child", trace: 1, id: 2, parent: 1, start: 10, end: 40},
		{name: "child", trace: 1, id: 3, parent: 1, start: 30, end: 60},
		{name: "child", trace: 1, id: 4, parent: 1, start: 90, end: 120},
		// A grandchild inside the first child.
		{name: "leaf", trace: 1, id: 5, parent: 2, start: 15, end: 25},
	}
	st := summarize(spans)
	if got := st["root"].self; got != 40 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := st["child"].self; got != 20+30+30 {
		t.Errorf("child self time %d, want 80", got)
	}
	if got := st["leaf"].traced; got != 100 {
		t.Errorf("leaf traced time %d, want the root's 100", got)
	}
	res := newResult()
	res.addSpans(spans, "root")
	if got := res.values["trace.coverage"]; math.Abs(got-0.6) > 1e-12 {
		t.Errorf("coverage %v, want 0.6", got)
	}
}

func TestPercentilesCountFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{3, 1, inf, 2, inf}
	if got := median(lat); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := percentile(lat, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 %v, want +Inf: two of five requests failed", got)
	}
	p := &phase{wall: time.Second}
	for i, v := range lat {
		p.samples = append(p.samples, sample{done: time.Duration(i) * time.Millisecond, ms: v})
	}
	if s := p.summarize(); s.opsPerS != 3 || !math.IsInf(s.p90, 1) {
		t.Errorf("summary %+v, want 3 successful ops per second and an infinite p90", s)
	}
}
