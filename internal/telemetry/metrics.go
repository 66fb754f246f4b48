package telemetry

import (
	"io"
	"strconv"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric: one atomic integer,
// bumped at batch boundaries, never per row.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are a programmer
// error but are not checked on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeTo(w io.Writer, name, labels string) {
	writeSample(w, name, labels, strconv.FormatInt(c.Value(), 10))
}

// A Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (use +1/-1 around a region to track a
// live count).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeTo(w io.Writer, name, labels string) {
	writeSample(w, name, labels, strconv.FormatInt(g.Value(), 10))
}

// funcMetric is a scrape-time sample: the closure reads state its owner
// already keeps (shard atomics, queue lengths), so registering it adds
// nothing to the owner's hot path.
type funcMetric struct {
	fn func() float64
}

func (f funcMetric) writeTo(w io.Writer, name, labels string) {
	writeSample(w, name, labels, formatFloat(f.fn()))
}

// NewCounter registers (or returns the existing) unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil)
	return f.getOrAdd("", func() child { return new(Counter) }).(*Counter)
}

// NewGauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil)
	return f.getOrAdd("", func() child { return new(Gauge) }).(*Gauge)
}

// NewCounterFunc registers a counter whose value is read by fn at scrape
// time (float so seconds-unit counters fit). Re-registering the same name
// replaces the closure.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, "counter", nil)
	f.set("", funcMetric{fn: fn})
}

// NewGaugeFunc registers a gauge whose value is read by fn at scrape
// time. Re-registering the same name replaces the closure.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, "gauge", nil)
	f.set("", funcMetric{fn: fn})
}

// A CounterVec is a family of counters split by label values.
type CounterVec struct {
	f *family
}

// NewCounterVec registers (or returns the existing) labeled counter
// family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, "counter", labelNames)}
}

// With returns the child counter for the given label values, creating it
// on first use. Children are cached; hot call sites should hold on to the
// returned counter rather than calling With per event.
func (v *CounterVec) With(labelValues ...string) *Counter {
	ls := v.f.labelString(labelValues)
	return v.f.getOrAdd(ls, func() child { return new(Counter) }).(*Counter)
}

// A GaugeVec is a family of gauges split by label values.
type GaugeVec struct {
	f *family
}

// NewGaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, "gauge", labelNames)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	ls := v.f.labelString(labelValues)
	return v.f.getOrAdd(ls, func() child { return new(Gauge) }).(*Gauge)
}

// A FuncVec is a family of scrape-time samples split by label values; the
// family type (counter or gauge) is fixed at registration.
type FuncVec struct {
	f *family
}

// NewCounterFuncVec registers a labeled family of scrape-time counters.
func (r *Registry) NewCounterFuncVec(name, help string, labelNames ...string) *FuncVec {
	return &FuncVec{f: r.lookup(name, help, "counter", labelNames)}
}

// NewGaugeFuncVec registers a labeled family of scrape-time gauges.
func (r *Registry) NewGaugeFuncVec(name, help string, labelNames ...string) *FuncVec {
	return &FuncVec{f: r.lookup(name, help, "gauge", labelNames)}
}

// Attach binds fn as the sample for the given label values, replacing any
// previous binding.
func (v *FuncVec) Attach(fn func() float64, labelValues ...string) {
	v.f.set(v.f.labelString(labelValues), funcMetric{fn: fn})
}
