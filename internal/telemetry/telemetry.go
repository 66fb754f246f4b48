// Package telemetry is a zero-dependency metrics and tracing kit for the
// engine: atomic counters, gauges, fixed-bucket latency histograms with
// quantile estimation, labeled families, and a Prometheus text exposition
// writer, plus lightweight trace spans that allocate only while a
// collector is attached.
//
// The design contract, enforced by the benchmark gates, is that
// instrumentation is near-free on the hot path:
//
//   - counters are plain atomic adds and are bumped at batch boundaries —
//     the cancelBatch=256 rhythm the executors already follow — never
//     per row;
//   - scrape-time cost lives in Func metrics that read stats the
//     subsystems already keep (pool shard atomics, queue lengths), so
//     attaching a Registry adds no new bookkeeping to the fast paths;
//   - spans are nil until a sink is attached, and every Span method is
//     nil-safe, so the un-observed path is a single pointer load.
//
// Everything renders through Registry.WritePrometheus in the text
// exposition format (version 0.0.4); HTTP layers mount it themselves
// (see ContentType for why this package stays off net/http).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the Prometheus text exposition content type a /metrics
// endpoint should answer with. The package deliberately does not import
// net/http (linking net drags net/netip's interning tables into every
// binary, and netip's init registers a per-GC cleanup goroutine that
// would tax instrumented benchmarks); HTTP layers mount WritePrometheus
// themselves.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// A Registry holds metric families keyed by name and renders them in
// Prometheus text format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one exposition block: a name, HELP/TYPE header, label schema,
// and a set of children keyed by their rendered label string.
type family struct {
	name       string
	help       string
	typ        string // "counter", "gauge", or "histogram"
	labelNames []string

	mu       sync.Mutex
	children map[string]child
}

// child is anything that can render itself as exposition lines for a
// given family name and label string.
type child interface {
	writeTo(w io.Writer, name, labels string)
}

// lookup returns the family registered under name, creating it when
// absent. Re-registering with a different type or label schema panics:
// that is a programmer error, and silently merging would corrupt the
// exposition.
func (r *Registry) lookup(name, help, typ string, labelNames []string) *family {
	checkName(name)
	for _, l := range labelNames {
		checkName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s%v (was %s%v)",
				name, typ, labelNames, f.typ, f.labelNames))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames,
		children:   make(map[string]child),
	}
	r.families[name] = f
	return f
}

// getOrAdd returns the child stored under the rendered label string,
// creating it with mk on first use.
func (f *family) getOrAdd(labels string, mk func() child) child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labels]; ok {
		return c
	}
	c := mk()
	f.children[labels] = c
	return c
}

// set unconditionally (re)binds the child stored under labels. Func
// metrics use it so a re-attach (say, after a pool swap) replaces the
// stale closure instead of panicking.
func (f *family) set(labels string, c child) {
	f.mu.Lock()
	f.children[labels] = c
	f.mu.Unlock()
}

// labelString renders `name="value",...` (no braces) for the family's
// label schema. Values are escaped per the exposition format.
func (f *family) labelString(values []string) string {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range f.labelNames {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// WritePrometheus renders every registered family, sorted by name (and
// children sorted by label string), in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	bw := &errWriter{w: w}
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kids := make([]child, len(keys))
		for i, k := range keys {
			kids[i] = f.children[k]
		}
		f.mu.Unlock()

		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for i, k := range kids {
			k.writeTo(bw, f.name, keys[i])
		}
	}
	return bw.err
}

// errWriter remembers the first write error so exposition code can stay
// free of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// writeSample emits one `name{labels} value` line.
func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// formatFloat renders a sample value: integral floats print without an
// exponent so counters read naturally.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func checkName(s string) {
	if s == "" {
		panic("telemetry: empty metric or label name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic("telemetry: invalid metric or label name " + strconv.Quote(s))
		}
	}
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
