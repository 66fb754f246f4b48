package colstore

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// testSchema mixes kinds and puts the group/sort columns away from index 0
// so the bucket mapping is exercised.
func testSchema() Schema {
	return Schema{
		{Name: "objid", Kind: Int64},
		{Name: "zoneid", Kind: Int64},
		{Name: "ra", Kind: Float64},
		{Name: "mag", Kind: Float64},
	}
}

const (
	tsGroupCol = 1 // zoneid
	tsSortCol  = 2 // ra
)

type testRow struct {
	objid, zoneid int64
	ra, mag       float64
}

// genRows produces a grouped, sorted fixture: some groups empty, some
// spanning several segments, equal sort keys included.
func genRows(seed int64, groups, maxPerGroup int) []testRow {
	rng := rand.New(rand.NewSource(seed))
	var rows []testRow
	id := int64(1)
	for g := 0; g < groups; g++ {
		n := rng.Intn(maxPerGroup)
		ras := make([]float64, n)
		for i := range ras {
			ras[i] = rng.Float64() * 360
			if i > 0 && rng.Intn(10) == 0 {
				ras[i] = ras[i-1] // duplicate sort keys must round-trip
			}
		}
		sort.Float64s(ras)
		for i := 0; i < n; i++ {
			rows = append(rows, testRow{
				objid: id, zoneid: int64(g * 3), ra: ras[i], mag: rng.NormFloat64(),
			})
			id++
		}
	}
	return rows
}

func buildRows(t *testing.T, pool *storage.Pool, rows []testRow) *Table {
	t.Helper()
	b, err := NewBuilder(pool, testSchema(), tsGroupCol, tsSortCol)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Add([]int64{r.objid, r.zoneid}, []float64{r.ra, r.mag}); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBuildScanRoundTrip is the core property test: whatever grouped,
// sorted rows go into the Builder come back bit-identical from the
// Scanner, in order, under a pool small enough to force eviction and
// re-reads from the store.
func TestBuildScanRoundTrip(t *testing.T) {
	rows := genRows(20040801, 25, 4*SegmentCapacity(len(testSchema())))
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 8}) // tiny: segments evict
	tb := buildRows(t, pool, rows)

	if got := tb.NumRows(); got != int64(len(rows)) {
		t.Fatalf("NumRows = %d, want %d", got, len(rows))
	}
	readsBefore := pool.Stats().LogicalReads
	sc := tb.NewScanner()
	var got []testRow
	loads := 0
	for _, m := range tb.Segments() {
		if err := sc.Load(m); err != nil {
			t.Fatal(err)
		}
		loads++
		objid, zoneid := sc.Ints(0), sc.Ints(1)
		ra, mag := sc.Floats(2), sc.Floats(3)
		if sc.NumRows() != m.Rows || len(ra) != m.Rows {
			t.Fatalf("segment %v: scanner has %d rows, directory %d", m, sc.NumRows(), m.Rows)
		}
		if ra[0] != m.MinSort || ra[len(ra)-1] != m.MaxSort {
			t.Fatalf("segment %v: sort bounds [%g, %g] disagree with directory", m, ra[0], ra[len(ra)-1])
		}
		for r := 0; r < sc.NumRows(); r++ {
			if zoneid[r] != m.Group {
				t.Fatalf("segment of group %d holds a row of group %d", m.Group, zoneid[r])
			}
			got = append(got, testRow{objid: objid[r], zoneid: zoneid[r], ra: ra[r], mag: mag[r]})
		}
	}
	if len(got) != len(rows) {
		t.Fatalf("scanned %d rows, built %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: scanned %+v, built %+v", i, got[i], rows[i])
		}
	}
	// Segment reads go through the shared pool: every Load is a counted
	// logical read, the accounting the paper's I/O column relies on.
	if reads := pool.Stats().LogicalReads - readsBefore; reads != int64(loads) {
		t.Errorf("scan performed %d logical reads for %d segment loads", reads, loads)
	}
}

// TestScannerLazyColumnDecode pins the first-touch decode contract: Load
// alone decodes nothing, a touched column decodes once and round-trips,
// untouched columns stay raw, and the next Load invalidates everything.
func TestScannerLazyColumnDecode(t *testing.T) {
	rows := genRows(11, 6, 2*SegmentCapacity(len(testSchema())))
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	tb := buildRows(t, pool, rows)
	segs := tb.Segments()
	if len(segs) < 2 {
		t.Fatalf("fixture built only %d segments", len(segs))
	}
	sc := tb.NewScanner()
	if err := sc.Load(segs[0]); err != nil {
		t.Fatal(err)
	}
	for ci, dec := range sc.decoded {
		if dec {
			t.Errorf("Load eagerly decoded column %d", ci)
		}
	}
	ra := sc.Floats(tsSortCol)
	if !sc.decoded[tsSortCol] {
		t.Error("Floats did not mark the touched column decoded")
	}
	if sc.decoded[0] || sc.decoded[tsGroupCol] || sc.decoded[3] {
		t.Error("touching one column decoded others")
	}
	if ra[0] != segs[0].MinSort || ra[len(ra)-1] != segs[0].MaxSort {
		t.Errorf("lazily decoded sort column [%g, %g] disagrees with directory %+v", ra[0], ra[len(ra)-1], segs[0])
	}
	// The second touch must reuse the decoded scratch, not re-decode.
	ra2 := sc.Floats(tsSortCol)
	if &ra[0] != &ra2[0] {
		t.Error("second touch re-decoded the column into a fresh slice")
	}
	if err := sc.Load(segs[1]); err != nil {
		t.Fatal(err)
	}
	for ci, dec := range sc.decoded {
		if dec {
			t.Errorf("Load left column %d marked decoded for the previous segment", ci)
		}
	}
	if got := sc.Ints(tsGroupCol); got[0] != segs[1].Group {
		t.Errorf("after re-Load, group column reads %d, want %d", got[0], segs[1].Group)
	}
}

// TestGroupSegments pins the directory lookup: every group's segments, in
// order, and empty slices for absent groups.
func TestGroupSegments(t *testing.T) {
	rows := genRows(7, 12, 3*SegmentCapacity(len(testSchema())))
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	tb := buildRows(t, pool, rows)

	wantRows := map[int64]int{}
	for _, r := range rows {
		wantRows[r.zoneid]++
	}
	for g := int64(-2); g < 40; g++ {
		segs := tb.GroupSegments(g)
		n := 0
		for _, m := range segs {
			if m.Group != g {
				t.Fatalf("GroupSegments(%d) returned a segment of group %d", g, m.Group)
			}
			n += m.Rows
		}
		if n != wantRows[g] {
			t.Errorf("GroupSegments(%d) covers %d rows, want %d", g, n, wantRows[g])
		}
	}
}

// TestGroupsView pins the group-range view: the same pool, schema, column
// roles and pages as the table, the directory entries of exactly the
// groups in [lo, hi] in table order, and their row count. Bounds beyond
// the table clip to it, an inverted range is empty, one group's view is
// GroupSegments, and the whole range is the table itself. A scanner over
// the view reads the table's rows.
func TestGroupsView(t *testing.T) {
	rows := genRows(7, 12, 3*SegmentCapacity(len(testSchema())))
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	tb := buildRows(t, pool, rows)
	segs := tb.Segments()
	first, last := segs[0].Group, segs[len(segs)-1].Group
	if first == last {
		t.Fatal("fixture holds one group")
	}
	check := func(lo, hi int64) *Table {
		t.Helper()
		v := tb.Groups(lo, hi)
		if v.Pool() != tb.Pool() || !v.Schema().Equal(tb.Schema()) || v.GroupCol() != tb.GroupCol() || v.SortCol() != tb.SortCol() {
			t.Fatalf("Groups(%d, %d) changed the pool, schema or column roles", lo, hi)
		}
		var want []SegmentMeta
		var n int64
		for _, m := range segs {
			if m.Group >= lo && m.Group <= hi {
				want = append(want, m)
				n += int64(m.Rows)
			}
		}
		if got := v.Segments(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Groups(%d, %d) holds %d segments, want %d", lo, hi, len(got), len(want))
		}
		if v.NumRows() != n {
			t.Fatalf("Groups(%d, %d) counts %d rows, want %d", lo, hi, v.NumRows(), n)
		}
		return v
	}
	if whole := check(math.MinInt64, math.MaxInt64); !reflect.DeepEqual(whole.Segments(), segs) || whole.NumRows() != tb.NumRows() {
		t.Errorf("the whole range is not the table: %d segments, %d rows", len(whole.Segments()), whole.NumRows())
	}
	check(first, last)
	check(first-10, first-1)
	check(last+1, last+10)
	check(last, first) // inverted
	check(first+1, first+1)
	check(first-5, first+4)
	check(last-4, last+5)
	for g := first; g <= last; g++ {
		if got, want := check(g, g).Segments(), tb.GroupSegments(g); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("Groups(%d, %d) differs from GroupSegments(%d)", g, g, g)
		}
	}

	// A scanner over a view reads the table's rows.
	mid := (first + last) / 2
	v := tb.Groups(mid, last)
	sc := v.NewScanner()
	var got []int64
	for _, m := range v.Segments() {
		if err := sc.Load(m); err != nil {
			t.Fatal(err)
		}
		got = append(got, sc.Ints(0)...)
	}
	var want []int64
	for _, r := range rows {
		if r.zoneid >= mid {
			want = append(want, r.objid)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scanning Groups(%d, %d) read %d rows, want %d", mid, last, len(got), len(want))
	}
}

// TestSegmentPacking checks that a group larger than one page splits into
// full segments plus a remainder, and that a group change seals a segment
// early (no page mixes groups).
func TestSegmentPacking(t *testing.T) {
	cap := SegmentCapacity(len(testSchema()))
	var rows []testRow
	for i := 0; i < 2*cap+1; i++ {
		rows = append(rows, testRow{objid: int64(i), zoneid: 5, ra: float64(i)})
	}
	rows = append(rows, testRow{objid: 9999, zoneid: 6, ra: 0})
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	tb := buildRows(t, pool, rows)
	segs := tb.Segments()
	wantRowCounts := []int{cap, cap, 1, 1}
	if len(segs) != len(wantRowCounts) {
		t.Fatalf("built %d segments, want %d", len(segs), len(wantRowCounts))
	}
	for i, m := range segs {
		if m.Rows != wantRowCounts[i] {
			t.Errorf("segment %d holds %d rows, want %d", i, m.Rows, wantRowCounts[i])
		}
	}
}

// TestBuilderRejectsBadInput pins the ordering and shape contracts: the
// builder refuses to silently resort.
func TestBuilderRejectsBadInput(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	newB := func() *Builder {
		b, err := NewBuilder(pool, testSchema(), tsGroupCol, tsSortCol)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	add := func(b *Builder, zone int64, ra float64) error {
		return b.Add([]int64{1, zone}, []float64{ra, 0})
	}

	b := newB()
	if err := add(b, 4, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := add(b, 3, 2.0); err == nil || !strings.Contains(err.Error(), "grouped") {
		t.Errorf("descending group accepted (err = %v)", err)
	}

	b = newB()
	if err := add(b, 4, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := add(b, 4, 1.0); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Errorf("descending sort key accepted (err = %v)", err)
	}

	b = newB()
	if err := b.Add([]int64{1}, []float64{1, 2}); err == nil {
		t.Error("short int slice accepted")
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := add(b, 1, 1); err == nil {
		t.Error("Add after Finish accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("double Finish accepted")
	}

	if _, err := NewBuilder(pool, testSchema(), tsSortCol, tsSortCol); err == nil {
		t.Error("float group column accepted")
	}
	if _, err := NewBuilder(pool, testSchema(), tsGroupCol, tsGroupCol); err == nil {
		t.Error("int sort column accepted")
	}
	if _, err := NewBuilder(pool, nil, 0, 0); err == nil {
		t.Error("empty schema accepted")
	}
	wide := make(Schema, 1021) // capacity (8192-32)/(8*1021) = 0
	for i := range wide {
		wide[i] = Column{Name: "f", Kind: Float64}
	}
	wide[0] = Column{Name: "g", Kind: Int64}
	if _, err := NewBuilder(pool, wide, 0, 1); err == nil {
		t.Error("schema too wide for one row per page accepted")
	}
}

// TestBuilderSortsInKeyOrder pins the sort check to the clustered key's
// float order (storage.Float64Key), not <: -0 precedes +0 and NaN sits
// above +Inf, so segments can never hold rows in an order a B+tree over
// the same keys would not.
func TestBuilderSortsInKeyOrder(t *testing.T) {
	pool := storage.NewPool(storage.NewMemStore(), storage.PoolOptions{Frames: 64})
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		sorts []float64
		ok    bool
	}{
		{"-0 then +0", []float64{-1, negZero, 0, 1}, true},
		{"+0 then -0", []float64{0, negZero}, false},
		{"NaN last", []float64{math.Inf(-1), math.Inf(1), math.NaN()}, true},
		{"NaN before +Inf", []float64{math.NaN(), math.Inf(1)}, false},
	} {
		b, err := NewBuilder(pool, testSchema(), tsGroupCol, tsSortCol)
		if err != nil {
			t.Fatal(err)
		}
		var addErr error
		for _, ra := range tc.sorts {
			if addErr = b.Add([]int64{1, 7}, []float64{ra, 0}); addErr != nil {
				break
			}
		}
		if (addErr == nil) != tc.ok {
			t.Errorf("%s: Add error %v, want accepted=%v", tc.name, addErr, tc.ok)
		}
	}
}

// liveStore counts the pages its Store holds allocated.
type liveStore struct {
	storage.Store
	live int
}

func (s *liveStore) Allocate() (storage.PageID, error) {
	id, err := s.Store.Allocate()
	if err == nil {
		s.live++
	}
	return id, err
}

func (s *liveStore) Free(id storage.PageID) error {
	err := s.Store.Free(id)
	if err == nil {
		s.live--
	}
	return err
}

// TestBuilderFreesSegmentsOnAllocFailure pins the failed build: when a
// segment page cannot be allocated, Add returns the error, the segments
// already written are freed, and the builder is spent.
func TestBuilderFreesSegmentsOnAllocFailure(t *testing.T) {
	st := &liveStore{Store: storage.NewMemStore()}
	pool := storage.NewPool(st, storage.PoolOptions{Frames: 64})
	allocs := 0
	pool.SetFaultHooks(&storage.FaultHooks{Alloc: func() error {
		if allocs++; allocs == 4 {
			return errors.New("injected")
		}
		return nil
	}})
	b, err := NewBuilder(pool, testSchema(), tsGroupCol, tsSortCol)
	if err != nil {
		t.Fatal(err)
	}
	start := st.live
	for zone := int64(0); err == nil; zone++ {
		err = b.Add([]int64{1, zone}, []float64{0, 0})
	}
	if allocs != 4 || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Add failed after %d allocations with %v, want the fourth's injected fault", allocs, err)
	}
	if st.live != start {
		t.Errorf("the failed build kept %d pages", st.live-start)
	}
	if _, err := b.Finish(); err == nil {
		t.Error("Finish after a failed build returned a table")
	}
}
