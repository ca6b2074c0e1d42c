package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one request (or one replay) share a trace; parent is 0 for a
// root. Times are nanoseconds since the tracer's epoch.
type span struct {
	name              string
	trace, id, parent uint64
	start, end        int64
}

// tracer keeps spans in memory for the whole run; they are summarised and
// written out only when the run ends, so recording costs an append.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns an identifier no other span or trace of this process has;
// the first is 1, so 0 can mean "no parent". A trace id goes out as the 16
// hex digits X-Dtrank-Trace accepts.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// begin opens a span; parent is the enclosing span, or nil for a root of
// a new trace. On a nil tracer it records nothing and returns nil.
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{name: name, id: t.newID()}
	if parent != nil {
		s.trace, s.parent = parent.trace, parent.id
	} else {
		s.trace = t.newID()
	}
	s.start = int64(time.Since(t.epoch))
	return s
}

// end closes s and records it; a nil span is ignored.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.end = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeJSONL writes one record per span: name, trace, span, parent,
// start_ns and end_ns.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		parent := ""
		if s.parent != 0 {
			parent = fmt.Sprintf("%016x", s.parent)
		}
		fmt.Fprintf(w, `{"name":%q,"trace":"%016x","span":"%016x","parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.trace, s.id, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	durs  []float64 // per span, ns
	total int64     // Σ duration
	self  int64     // Σ self time
	// traced is the summed duration of the distinct roots whose trees hold
	// spans of this name: the traced time self is a share of.
	traced int64
}

// summarize aggregates spans by name. A span's self time is its duration
// minus the part of its interval that the union of its children covers,
// so concurrent, overlapping children are not subtracted twice.
func summarize(spans []span) map[string]*spanStat {
	byID := make(map[uint64]int, len(spans))
	children := make(map[uint64][]int)
	for i, s := range spans {
		byID[s.id] = i
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rootOf := func(i int) int {
		for spans[i].parent != 0 {
			p, ok := byID[spans[i].parent]
			if !ok {
				break
			}
			i = p
		}
		return i
	}
	byName := map[string]*spanStat{}
	roots := map[string]map[int]bool{}
	for i, s := range spans {
		st := byName[s.name]
		if st == nil {
			st = &spanStat{}
			byName[s.name] = st
			roots[s.name] = map[int]bool{}
		}
		d := s.end - s.start
		st.durs = append(st.durs, float64(d))
		st.total += d
		st.self += d - covered(s, spans, children[s.id])
		if r := rootOf(i); !roots[s.name][r] {
			roots[s.name][r] = true
			st.traced += spans[r].end - spans[r].start
		}
	}
	return byName
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, curLo, curHi int64
	for k, v := range iv {
		switch {
		case k == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}
