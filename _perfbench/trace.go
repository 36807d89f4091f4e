package main

import (
	"math"
	"sort"
	"time"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Span is one traced interval at a layer boundary. Spans that belong to
// the same command or experiment share a Group; Parent is the ID of the
// span that caused this one (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the benchmark ends. Calls too hot
// to record one span each (an arbiter decision, a generator tick) are
// summed into per-name Counters under the innermost open span instead;
// SelfTimes subtracts both kinds of child.
type Tracer struct {
	spans    []Span
	open     []int // stack of open span indexes
	counters map[counterKey]*Counter
}

type counterKey struct {
	parent int
	name   string
}

// Counter aggregates the calls of one hot layer entry point inside one
// parent span. Every call is counted; only calls on sampled cycles are
// timed (see Timer). NS is the sampled calls' time with the clock-read
// cost removed; ClockNS is the time the parent spent only on reading
// the clock for them.
type Counter struct {
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Calls   int64  `json:"calls"`
	Sampled int64  `json:"sampled"`
	NS      int64  `json:"ns"`
	ClockNS int64  `json:"clock_ns"`
	Hits    int64  `json:"hits,omitempty"` // calls with a positive outcome (an arbitration won)
}

// PerCall is the mean time of a timed call in ns, or 0 with none timed.
func (c *Counter) PerCall() float64 {
	if c.Sampled == 0 {
		return 0
	}
	return float64(c.NS) / float64(c.Sampled)
}

// Total estimates the time of all calls, sampled or not, in ns.
func (c *Counter) Total() float64 { return c.PerCall() * float64(c.Calls) }

// NewTracer starts an empty trace.
func NewTracer() *Tracer {
	return &Tracer{counters: map[counterKey]*Counter{}}
}

// clockBase anchors nanotime; set once at start-up.
var clockBase = time.Now()

// nanotime reads the monotonic clock in ns since clockBase. It costs one
// clock read, where time.Now costs two (wall and monotonic).
func nanotime() int64 { return int64(time.Since(clockBase)) }

// Begin opens a span under the innermost open span and returns its ID.
func (t *Tracer) Begin(name, group string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Group: group, Start: nanotime()})
	t.open = append(t.open, id-1)
	return id
}

// End closes the span with the given ID, which must be the innermost
// open one, and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	i := id - 1
	t.spans[i].End = nanotime()
	t.open = t.open[:len(t.open)-1]
	return time.Duration(t.spans[i].Dur())
}

// Counter returns the aggregate for name under the innermost open span.
func (t *Tracer) Counter(name string) *Counter {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	k := counterKey{parent, name}
	c := t.counters[k]
	if c == nil {
		c = &Counter{Parent: parent, Name: name}
		t.counters[k] = c
	}
	return c
}

// Spans returns the recorded spans in begin order.
func (t *Tracer) Spans() []Span { return t.spans }

// Counters returns the hot-call aggregates sorted by parent, then name.
func (t *Tracer) Counters() []Counter {
	out := make([]Counter, 0, len(t.counters))
	for _, c := range t.counters {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its child spans (overlapping children are
// counted once) and minus the estimated call time and the clock-read
// time of the hot-call counters recorded under it. The result is indexed
// by span ID.
func SelfTimes(spans []Span, counters []Counter) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	counted := map[int]int64{}
	for _, c := range counters {
		counted[c.Parent] += int64(c.Total()) + c.ClockNS
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		v := s.Dur() - covered - counted[s.ID]
		if v < 0 {
			v = 0
		}
		self[s.ID] = v
	}
	return self
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredNS(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curLo, curHi, started = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// sampled reports whether a Timer times calls made at cycle now: one
// cycle in 16, picked by a multiplicative hash rather than a stride so
// that work an engine does every 2^k cycles is neither always nor never
// sampled. Calls on other cycles are counted only, which keeps the clock
// reads from dominating a traced run.
func sampled(now noc.Cycle) bool { return (now.Uint()*0x9E3779B97F4A7C15)>>60 == 0 }

// Timer times calls into a layer and adds them to a Counter. Each timed
// interval includes roughly one clock read; Overhead, the median
// interval between two back-to-back reads, is subtracted per call so
// that a layer made of many tiny calls is not charged for being
// measured. The caller pays about two reads per timed call, which Stop
// adds to ClockNS so the parent's self time excludes them too. Shims
// hold a *Timer, so pointing C at a new Counter moves every shim sharing
// the timer to a new parent span.
type Timer struct {
	C        *Counter
	Overhead int64
}

// Start begins a call made at cycle now; it returns -1 when the cycle is
// not sampled.
func (t Timer) Start(now noc.Cycle) int64 {
	if !sampled(now) {
		return -1
	}
	return nanotime()
}

// Stop counts the call that Start began, adding its time if sampled.
func (t Timer) Stop(start int64) {
	t.C.Calls++
	if start < 0 {
		return
	}
	d := nanotime() - start - t.Overhead
	if d < 0 {
		d = 0
	}
	t.C.Sampled++
	t.C.NS += d
	t.C.ClockNS += 2 * t.Overhead
}

// ClockOverhead measures the median interval between two back-to-back
// clock reads, the fixed cost Timer removes from every call.
func ClockOverhead() int64 {
	const n = 20001
	samples := make([]float64, n)
	for i := range samples {
		a := nanotime()
		samples[i] = float64(nanotime() - a)
	}
	return int64(median(samples))
}

// timedArbiter forwards to an arbiter, timing each call. It adds no
// optional interface (arb.ArrivalObserver, arb.Preemptor), so it may
// wrap only arbiters that implement none; wrapArbiter checks.
type timedArbiter struct {
	inner                     arb.Arbiter
	arbitrate, granted, ticks *Timer
}

func (a *timedArbiter) Arbitrate(now noc.Cycle, reqs []arb.Request) int {
	s := a.arbitrate.Start(now)
	w := a.inner.Arbitrate(now, reqs)
	a.arbitrate.Stop(s)
	if w >= 0 {
		a.arbitrate.C.Hits++
	}
	return w
}

func (a *timedArbiter) Granted(now noc.Cycle, req arb.Request) {
	s := a.granted.Start(now)
	a.inner.Granted(now, req)
	a.granted.Stop(s)
}

func (a *timedArbiter) Tick(now noc.Cycle) {
	s := a.ticks.Start(now)
	a.inner.Tick(now)
	a.ticks.Stop(s)
}

// wrapArbiter returns a timing shim around a, or a itself when a
// implements an optional interface the shim would hide from the engine.
func wrapArbiter(a arb.Arbiter, arbitrate, granted, ticks *Timer) arb.Arbiter {
	if _, ok := a.(arb.ArrivalObserver); ok {
		return a
	}
	if _, ok := a.(arb.Preemptor); ok {
		return a
	}
	return &timedArbiter{inner: a, arbitrate: arbitrate, granted: granted, ticks: ticks}
}

// timedGen forwards a polled generator's Tick through a timer.
type timedGen struct {
	inner traffic.Generator
	t     *Timer
}

func (g *timedGen) Tick(now noc.Cycle, queued int) *noc.Packet {
	s := g.t.Start(now)
	p := g.inner.Tick(now, queued)
	g.t.Stop(s)
	return p
}

// timedSched is timedGen for a generator that also schedules its
// arrivals, so fabric.Sources keeps its event-driven calendar.
type timedSched struct {
	timedGen
	sched traffic.Scheduler
}

func (g *timedSched) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	s := g.t.Start(from)
	c, ok := g.sched.NextArrival(from, queued)
	g.t.Stop(s)
	return c, ok
}

func (g *timedSched) Emit(now noc.Cycle) *noc.Packet {
	s := g.t.Start(now)
	p := g.sched.Emit(now)
	g.t.Stop(s)
	return p
}

// wrapGen returns a timing shim that implements traffic.Scheduler
// exactly when g does.
func wrapGen(g traffic.Generator, t *Timer) traffic.Generator {
	if s, ok := g.(traffic.Scheduler); ok {
		return &timedSched{timedGen: timedGen{inner: g, t: t}, sched: s}
	}
	return &timedGen{inner: g, t: t}
}

// median returns the middle value (mean of the middle two for an even
// count) of xs, or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie above a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100) and whether at least minTail samples lie strictly above it — the
// rule for reporting a tail percentile at all.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	above := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, above >= minTail
}

// highestPercentile returns the highest of the candidate percentiles
// (any order) that has at least minTail samples above it, with its
// value; ok is false when none qualifies.
func highestPercentile(xs []float64, candidates ...float64) (p, v float64, ok bool) {
	c := append([]float64(nil), candidates...)
	sort.Sort(sort.Reverse(sort.Float64Slice(c)))
	for _, p := range c {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}
