package zone

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/astro"
	"repro/internal/colstore"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

// record runs one sweep and returns fn's exact call sequence.
func record(ctx context.Context, src Source, probes []Probe, opts SweepOptions) ([]seqCall, error) {
	var calls []seqCall
	err := Sweep(ctx, src, probes, opts, func(pi int, zr ZoneRow) {
		calls = append(calls, seqCall{probe: pi, row: zr})
	})
	return calls, err
}

// requirePrefix fails unless got is a prefix of want, call for call, with
// Distance compared by bit pattern. full additionally requires equal length.
func requirePrefix(t *testing.T, got, want []seqCall, full bool) {
	t.Helper()
	if len(got) > len(want) || (full && len(got) != len(want)) {
		t.Fatalf("emitted %d calls, want %d (full=%v)", len(got), len(want), full)
	}
	for i := range got {
		if got[i] != want[i] || math.Float64bits(got[i].row.Distance) != math.Float64bits(want[i].row.Distance) {
			t.Fatalf("call %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// contained is the oracle of the pushdown contract: the calls in all (an
// unfiltered sequence) whose row their probe's window contains, in order.
func contained(all []seqCall, wins []Window) []seqCall {
	var out []seqCall
	for _, c := range all {
		if wins[c.probe].Contains(c.row.ObjID, c.row.I, c.row.Gr, c.row.Ri) {
			out = append(out, c)
		}
	}
	return out
}

type namedSource struct {
	name string
	src  Source
}

// acceptSources installs the seam-straddling sweep fixture once and
// returns its row and columnar access paths.
func acceptSources(t testing.TB) (*sqldb.DB, []Probe, []namedSource) {
	t.Helper()
	gals, height, probes := sweepFixture(t)
	db := sqldb.Open(0)
	zt, err := InstallZoneTableColumnar(db, "Zone", gals, height)
	if err != nil {
		t.Fatal(err)
	}
	return db, probes, []namedSource{{"Rows", Rows(zt, height)}, {"Columnar", Columnar(zt.Columnar(), height)}}
}

// testWindows returns one cut per probe that depends on the probe index,
// so a sweeper that tested a row against the wrong probe's window changes
// the outcome. The fixture's photometry is uniform (i in [0, 2), g-r and
// r-i in [0, 1)), so every window keeps some rows and drops others.
func testWindows(n int) []Window {
	wins := make([]Window, n)
	for pi := range wins {
		f := float64(pi%7) / 10
		wins[pi] = Window{ExcludeID: -1, IMin: 0.1 + f, IMax: 1.3 + f, GrMin: 0.15, GrMax: 0.95 - f/2, RiMin: f / 3, RiMax: 0.9}
	}
	return wins
}

// TestWindowContains pins the cut's own semantics, which the sweep tests
// take as their oracle: the excluded id, closed bounds, inverted
// intervals, and which side of each test a NaN falls on.
func TestWindowContains(t *testing.T) {
	nan := math.NaN()
	w := Window{ExcludeID: 7, IMin: 1, IMax: 2, GrMin: 0.2, GrMax: 0.4, RiMin: 0.5, RiMax: 0.6}
	cases := []struct {
		name      string
		w         Window
		id        int64
		i, gr, ri float64
		want      bool
	}{
		{"inside", w, 1, 1.5, 0.3, 0.55, true},
		{"excluded id", w, 7, 1.5, 0.3, 0.55, false},
		{"on every lower bound", w, 1, 1, 0.2, 0.5, true},
		{"on every upper bound", w, 1, 2, 0.4, 0.6, true},
		{"i below", w, 1, math.Nextafter(1, 0), 0.3, 0.55, false},
		{"gr above", w, 1, 1.5, math.Nextafter(0.4, 1), 0.55, false},
		{"ri above", w, 1, 1.5, 0.3, math.Nextafter(0.6, 1), false},
		{"inverted i", Window{IMin: 2, IMax: 1, GrMax: 1, RiMax: 1}, 1, 1.5, 0.3, 0.55, false},
		{"NaN i passes", w, 1, nan, 0.3, 0.55, true},
		{"NaN gr passes", w, 1, 1.5, nan, 0.55, true},
		{"NaN ri fails", w, 1, 1.5, 0.3, nan, false},
		{"NaN i bound passes", Window{IMin: nan, IMax: nan, GrMax: 1, RiMax: 1}, 1, 5, 0.3, 0.55, true},
		{"NaN ri bound fails", Window{IMax: 9, GrMax: 1, RiMin: nan, RiMax: 1}, 1, 1.5, 0.3, 0.55, false},
	}
	for _, c := range cases {
		if got := c.w.Contains(c.id, c.i, c.gr, c.ri); got != c.want {
			t.Errorf("%s: Contains = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSweepAcceptEmitsAcceptedSubsequence pins the pushdown contract: with
// Windows set, fn receives exactly the subsequence of the unfiltered call
// sequence whose rows Window.Contains accepts — same order, same Distance
// bits — from both sources at every worker count. The windows are read on
// the workers: run under -race.
func TestSweepAcceptEmitsAcceptedSubsequence(t *testing.T) {
	_, probes, sources := acceptSources(t)
	ctx := context.Background()
	for _, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			all, err := record(ctx, s.src, probes, SweepOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wins := testWindows(len(probes))
			// Exclude each probe's first neighbour, so the id test is
			// exercised on rows the photometric intervals would keep.
			for i := len(all) - 1; i >= 0; i-- {
				wins[all[i].probe].ExcludeID = all[i].row.ObjID
			}
			want := contained(all, wins)
			if len(want) == 0 || len(want) == len(all) {
				t.Fatalf("fixture does not discriminate: %d of %d hits accepted", len(want), len(all))
			}
			pass := make([]Window, len(probes))
			for pi := range pass {
				pass[pi] = Window{ExcludeID: -1, IMin: math.Inf(-1), IMax: math.Inf(1),
					GrMin: math.Inf(-1), GrMax: math.Inf(1), RiMin: math.Inf(-1), RiMax: math.Inf(1)}
			}
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					got, err := record(ctx, s.src, probes, SweepOptions{Workers: workers, Windows: wins})
					if err != nil {
						t.Fatal(err)
					}
					requirePrefix(t, got, want, true)
					// Windows that keep everything are the unfiltered sweep.
					got, err = record(ctx, s.src, probes, SweepOptions{Workers: workers, Windows: pass})
					if err != nil {
						t.Fatal(err)
					}
					requirePrefix(t, got, all, true)
				})
			}
		})
	}
}

// TestSweepAcceptKeepsErrorSemantics pins that the pushdown leaves the
// failure contract alone: a cancelled context or a failed page fetch stops
// the sweep with that error, and fn has seen a clean prefix of the
// filtered sequence — never a sequence with a hole. A Windows slice whose
// length is not the probe count is refused before anything is emitted.
func TestSweepAcceptKeepsErrorSemantics(t *testing.T) {
	db, probes, sources := acceptSources(t)
	wins := testWindows(len(probes))
	for _, s := range sources {
		want, err := record(context.Background(), s.src, probes, SweepOptions{Workers: 1, Windows: wins})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := record(context.Background(), s.src, probes, SweepOptions{Windows: wins[1:]}); err == nil || len(got) != 0 {
			t.Fatalf("%s: short Windows: %d calls, err %v", s.name, len(got), err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", s.name, workers), func(t *testing.T) {
				opts := SweepOptions{Workers: workers, Windows: wins}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				got, err := record(ctx, s.src, probes, opts)
				if !errors.Is(err, context.Canceled) || len(got) != 0 {
					t.Fatalf("pre-cancelled sweep: %d calls, err %v", len(got), err)
				}

				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
				var calls []seqCall
				err = Sweep(ctx, s.src, probes, opts, func(pi int, zr ZoneRow) {
					calls = append(calls, seqCall{probe: pi, row: zr})
					cancel()
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel from fn: err %v", err)
				}
				if len(calls) == 0 || len(calls) >= len(want) {
					t.Fatalf("cancel from fn: %d of %d calls emitted", len(calls), len(want))
				}
				requirePrefix(t, calls, want, false)

				boom := errors.New("injected fetch fault")
				var fetches atomic.Int64
				db.Pool().SetFaultHooks(&storage.FaultHooks{Fetch: func() error {
					if fetches.Add(1) > 40 {
						return boom
					}
					return nil
				}})
				got, err = record(context.Background(), s.src, probes, opts)
				db.Pool().SetFaultHooks(nil)
				if !errors.Is(err, boom) {
					t.Fatalf("faulted sweep: err %v", err)
				}
				if len(got) >= len(want) {
					t.Fatalf("faulted sweep emitted all %d calls", len(got))
				}
				requirePrefix(t, got, want, false)
			})
		}
	}
}

// TestSourceZoneSpan pins the zones each source lets a sweep build
// windows in: a columnar source's first to last directory group, through
// Columnar or a TableSource over segments, none for a view without
// segments, and every zone for the row kernel, whose zones are known only
// once it reads them.
func TestSourceZoneSpan(t *testing.T) {
	db, _, _ := acceptSources(t)
	zt, ok := db.Table("Zone")
	if !ok {
		t.Fatal("no Zone table")
	}
	ct := zt.Columnar()
	segs := ct.Segments()
	first, last := int(segs[0].Group), int(segs[len(segs)-1].Group)
	rowZt, err := InstallZoneTable(db, "ZoneRows", []sky.Galaxy{{ObjID: 1, Ra: 10, Dec: 0}}, astro.ZoneHeightDeg)
	if err != nil {
		t.Fatal(err)
	}
	mid := int64(first+last) / 2
	for _, c := range []struct {
		name string
		src  Source
		want zoneSpan
	}{
		{"Columnar", Columnar(ct, astro.ZoneHeightDeg), zoneSpan{first, last}},
		{"TableSource", TableSource(zt, astro.ZoneHeightDeg), zoneSpan{first, last}},
		{"Columnar view", Columnar(ct.Groups(mid, int64(last)+5), astro.ZoneHeightDeg), zoneSpan{int(mid), last}},
		{"empty view", Columnar(ct.Groups(int64(last)+1, int64(last)+9), astro.ZoneHeightDeg), zoneSpan{0, -1}},
		{"Rows", Rows(rowZt, astro.ZoneHeightDeg), anyZone},
		{"TableSource over a row tree", TableSource(rowZt, astro.ZoneHeightDeg), anyZone},
	} {
		_, span, release, err := c.src.pin(false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		release()
		if span != c.want {
			t.Errorf("%s: span %+v, want %+v", c.name, span, c.want)
		}
	}
}

// requireBandSplit cuts ct's groups at random points into consecutive
// Groups views, a little beyond the table at both ends, and sweeps each
// view with every probe: the views' calls, concatenated in view order,
// must be whole, the whole table's calls, call for call, and their page
// reads must sum to wholePages, the whole table's. Each view builds
// exactly the whole sweep's windows in its zones, and a sweep of only the
// probes whose zones miss a view reads no page and emits nothing.
func requireBandSplit(t *testing.T, db *sqldb.DB, ct *colstore.Table, height float64, probes []Probe,
	opts SweepOptions, whole []seqCall, wholePages int64, rng *rand.Rand, cuts int) {
	t.Helper()
	pool := db.Pool()
	sweep := func(v *colstore.Table, probes []Probe, wins []Window) ([]seqCall, int64) {
		t.Helper()
		before := pool.Stats()
		calls, err := record(context.Background(), Columnar(v, height), probes, SweepOptions{Workers: opts.Workers, Windows: wins})
		if err != nil {
			t.Fatal(err)
		}
		return calls, pool.Stats().Sub(before).Total()
	}
	segs := ct.Segments()
	first, last := segs[0].Group, segs[len(segs)-1].Group
	bounds := []int64{first - rng.Int63n(3), last + 1 + rng.Int63n(3)}
	for i := 0; i < cuts; i++ {
		bounds = append(bounds, first+rng.Int63n(last-first+1))
	}
	slices.Sort(bounds)
	wholeWs, _ := buildWindows(height, probes, zoneSpan{int(first), int(last)})
	var got []seqCall
	var pages int64
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]-1
		v := ct.Groups(lo, hi)
		calls, n := sweep(v, probes, opts.Windows)
		got, pages = append(got, calls...), pages+n
		_, span, release, err := Columnar(v, height).pin(false)
		if err != nil {
			t.Fatal(err)
		}
		release()
		ws, _ := buildWindows(height, probes, span)
		var want []batchWindow
		for _, w := range wholeWs {
			if w.zone >= span.lo && w.zone <= span.hi {
				want = append(want, w)
			}
		}
		if !slices.Equal(ws, want) {
			t.Fatalf("view [%d, %d] builds %d windows, the whole sweep %d in its zones", lo, hi, len(ws), len(want))
		}
		var missing []Probe
		var missWins []Window
		for pi, p := range probes {
			if zlo, zhi := astro.ZoneRange(p.Dec, p.R, height); int64(zhi) < lo || int64(zlo) > hi {
				missing = append(missing, p)
				if opts.Windows != nil {
					missWins = append(missWins, opts.Windows[pi])
				}
			}
		}
		if calls, n := sweep(v, missing, missWins); len(calls) != 0 || n != 0 {
			t.Fatalf("view [%d, %d]: %d probes that miss it read %d pages and emit %d calls", lo, hi, len(missing), n, len(calls))
		}
	}
	requirePrefix(t, got, whole, true)
	if pages != wholePages {
		t.Fatalf("views cut at %v read %d pages, the whole table %d", bounds, pages, wholePages)
	}
}

// FuzzSweepWindow drives the pushdown with windows nobody hand-wrote:
// per probe a random interval, an empty or inverted one, a NaN bound, an
// infinite one, or a point interval on a real row's value, with a random
// excluded id. Whatever the windows, every source at every worker count
// must emit exactly the unfiltered sequence filtered by Window.Contains.
// The columnar table, cut into zone bands at up to cuts%6 random points,
// must answer the same windows band by band (requireBandSplit).
func FuzzSweepWindow(f *testing.F) {
	db, probes, sources := acceptSources(f)
	_, height, _ := sweepFixture(f)
	zt, ok := db.Table("Zone")
	if !ok {
		f.Fatal("no Zone table")
	}
	// A sweep's pages depend on its probes alone, not on its windows or
	// worker count, so one unwindowed sweep measures every exec's whole
	// table reads.
	ct := zt.Columnar()
	before := db.Pool().Stats()
	colAll, err := record(context.Background(), Columnar(ct, height), probes, SweepOptions{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	wholePages := db.Pool().Stats().Sub(before).Total()
	alls := make([][]seqCall, len(sources))
	for si, s := range sources {
		all, err := record(context.Background(), s.src, probes, SweepOptions{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		alls[si] = all
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%6))
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs, cuts uint8) {
		rng := rand.New(rand.NewSource(seed))
		si := int(knobs) % len(sources)
		workers := []int{1, 2, 4, 8}[int(knobs>>1)%4]
		all := alls[si]
		interval := func(span float64) (float64, float64) {
			switch rng.Intn(6) {
			case 0: // empty: a point no row holds
				return -1, -1
			case 1: // inverted
				hi := rng.Float64() * span
				return hi + rng.Float64(), hi
			case 2: // NaN on either end, or both
				lo, hi := rng.Float64()*span, span
				switch rng.Intn(3) {
				case 0:
					lo = math.NaN()
				case 1:
					hi = math.NaN()
				default:
					lo, hi = math.NaN(), math.NaN()
				}
				return lo, hi
			case 3:
				return math.Inf(-1), math.Inf(1)
			case 4: // a point interval on some row's exact value
				if len(all) > 0 {
					c := all[rng.Intn(len(all))].row
					v := []float64{c.I, c.Gr, c.Ri}[rng.Intn(3)]
					return v, v
				}
			}
			a, b := rng.Float64()*span, rng.Float64()*span
			return math.Min(a, b), math.Max(a, b)
		}
		wins := make([]Window, len(probes))
		for pi := range wins {
			w := &wins[pi]
			w.ExcludeID = -1
			if rng.Intn(2) == 0 && len(all) > 0 {
				w.ExcludeID = all[rng.Intn(len(all))].row.ObjID
			}
			w.IMin, w.IMax = interval(2)
			w.GrMin, w.GrMax = interval(1)
			w.RiMin, w.RiMax = interval(1)
		}
		opts := SweepOptions{Workers: workers, Windows: wins}
		got, err := record(context.Background(), sources[si].src, probes, opts)
		if err != nil {
			t.Fatal(err)
		}
		requirePrefix(t, got, contained(all, wins), true)
		requireBandSplit(t, db, ct, height, probes, opts, contained(colAll, wins), wholePages, rng, int(cuts)%6)
	})
}
