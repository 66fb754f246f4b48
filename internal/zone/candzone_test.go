package zone_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/astro"
	"repro/internal/colstore"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/storage"
	"repro/internal/zone"
)

// The tests here sweep a CandZone-shaped table: Zone's seven position
// columns followed by a payload that is not Zone's photometry. The
// kernel reads the positions only, so the in-memory CandidateSet (the
// Finder's fIsCluster index, which shares no zone code) is the oracle.

const candHeight = 0.25

// candZone loads cands into db as a column-primary CandZone-shaped table
// in clustered order: zone, then ra in the key encoding's order.
func candZone(t testing.TB, db *sqldb.DB, cands []maxbcg.Candidate) *sqldb.Table {
	t.Helper()
	cols := append(zone.ZoneTableColumns()[:7],
		sqldb.Column{Name: "z", Type: sqldb.TFloat},
		sqldb.Column{Name: "chi2", Type: sqldb.TFloat},
		sqldb.Column{Name: "ngal", Type: sqldb.TInt},
	)
	sch := append(zone.ColumnarZoneSchema()[:7],
		colstore.Column{Name: "z", Kind: colstore.Float64},
		colstore.Column{Name: "chi2", Kind: colstore.Float64},
		colstore.Column{Name: "ngal", Kind: colstore.Int64},
	)
	_ = db.DropTable("CandZone", true)
	tb, err := db.CreateTableClustered("CandZone", cols, []string{"zoneid", "ra"})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	zid := func(i int) int { return astro.ZoneID(cands[i].Dec, candHeight) }
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if zid(i) != zid(j) {
			return zid(i) < zid(j)
		}
		return storage.Float64Key(cands[i].Ra) < storage.Float64Key(cands[j].Ra)
	})
	cb, err := colstore.NewBuilder(db.Pool(), sch, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		c := &cands[i]
		v := astro.UnitVector(c.Ra, c.Dec)
		if err := cb.Add([]int64{int64(zid(i)), c.ObjID, int64(c.NGal)},
			[]float64{c.Ra, c.Dec, v.X, v.Y, v.Z, c.Z, c.Chi2}); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := cb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadColumnar(ct); err != nil {
		t.Fatal(err)
	}
	return tb
}

// edgeCandidates scatters candidates over the places the zone cover is
// hardest to get right: within a degree of either pole, hugging the RA
// 0/360 seam from both sides (±0 included), and a control patch.
func edgeCandidates(rng *rand.Rand, n int) []maxbcg.Candidate {
	seam := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Nextafter(360, 0)
		case 3:
			return rng.Float64() * 0.3
		}
		return 360 - rng.Float64()*0.3
	}
	cands := make([]maxbcg.Candidate, n)
	for i := range cands {
		c := &cands[i]
		c.ObjID = int64(i + 1)
		switch rng.Intn(4) {
		case 0: // north pole, any ra
			c.Ra, c.Dec = rng.Float64()*360, 90-rng.Float64()*rng.Float64()
		case 1: // south pole
			c.Ra, c.Dec = rng.Float64()*360, -90+rng.Float64()*rng.Float64()
		case 2: // the seam
			c.Ra, c.Dec = seam(), (rng.Float64()-0.5)*2
		default:
			c.Ra, c.Dec = 100+rng.Float64(), 30+rng.Float64()
		}
		switch rng.Intn(8) {
		case 0:
			c.Dec = 90
		case 1:
			c.Dec = -90
		}
		c.Z, c.Chi2, c.NGal = rng.Float64(), rng.Float64()*10, rng.Intn(50)
	}
	return cands
}

// TestCandZoneSweepMatchesCandidateSet pins that a nil-window Sweep over a
// CandZone-shaped table emits, per probe, exactly the candidates the
// in-memory CandidateSet finds within the radius: at the poles, across
// the RA seam, on ±0 ras, from probes centred on candidates and off them.
func TestCandZoneSweepMatchesCandidateSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := sqldb.Open(0)
	cands := edgeCandidates(rng, 600)
	tb := candZone(t, db, cands)
	set := maxbcg.NewCandidateSet(cands)
	var probes []zone.Probe
	for i := 0; i < 300; i++ {
		c := cands[rng.Intn(len(cands))]
		p := zone.Probe{Ra: c.Ra, Dec: c.Dec, R: []float64{0.05, 0.3, 1.2}[rng.Intn(3)]}
		if i%3 == 0 { // off-centre probes, pole and seam centres among them
			p.Ra = []float64{0, math.Nextafter(360, 0), rng.Float64() * 360}[rng.Intn(3)]
			p.Dec = []float64{90, -90, 89.7, -89.9, 0.2}[rng.Intn(5)]
		}
		probes = append(probes, p)
	}
	type hit struct {
		objID   int64
		ra, dec uint64
	}
	got := make([][]hit, len(probes))
	for _, src := range []zone.Source{zone.TableSource(tb, candHeight), zone.Columnar(tb.Columnar(), candHeight)} {
		for i := range got {
			got[i] = got[i][:0]
		}
		err := zone.Sweep(context.Background(), src, probes, zone.SweepOptions{Workers: 1}, func(pi int, zr zone.ZoneRow) {
			if zr.I != 0 || zr.Gr != 0 || zr.Ri != 0 {
				t.Fatalf("probe %d: hit %d carries photometry (%g, %g, %g) the table does not have", pi, zr.ObjID, zr.I, zr.Gr, zr.Ri)
			}
			got[pi] = append(got[pi], hit{zr.ObjID, math.Float64bits(zr.Ra), math.Float64bits(zr.Dec)})
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for pi, p := range probes {
			var want []hit
			if err := set.SearchCandidates(p.Ra, p.Dec, p.R, func(c maxbcg.Candidate) {
				want = append(want, hit{c.ObjID, math.Float64bits(c.Ra), math.Float64bits(c.Dec)})
			}); err != nil {
				t.Fatal(err)
			}
			byID := func(hs []hit) { sort.Slice(hs, func(a, b int) bool { return hs[a].objID < hs[b].objID }) }
			byID(got[pi])
			byID(want)
			if len(got[pi]) != len(want) || !reflect.DeepEqual(got[pi], want) && len(want) > 0 {
				t.Errorf("probe %+v: sweep found %d candidates, CandidateSet %d", p, len(got[pi]), len(want))
			}
			total += len(want)
		}
		if total < len(probes) {
			t.Fatalf("fixture too sparse: %d hits for %d probes", total, len(probes))
		}
	}
}

// TestSweepRefusesMissingColumns pins the kernel's guards: a sweep with
// Windows over a table without Zone's photometry fails instead of
// decoding the payload as i, gr, ri, and a TableSource sweep over a Zone
// whose segments a SQL write replaced with a row tree fails naming the
// table; each before it reads a page. The written Zone still answers
// per-row SearchTable.
func TestSweepRefusesMissingColumns(t *testing.T) {
	db := sqldb.Open(0)
	cands := edgeCandidates(rand.New(rand.NewSource(3)), 50)
	tb := candZone(t, db, cands)
	gals := []sky.Galaxy{{ObjID: 1, Ra: 100.2, Dec: 30.2}, {ObjID: 2, Ra: 100.21, Dec: 30.21}}
	zt, err := zone.InstallZoneTableColumnar(db, "Zone", gals, candHeight)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO Zone VALUES (0, 3, 10.5, 0.1, 1, 0, 0, 18, 1, 0.4)"); err != nil {
		t.Fatal(err)
	}
	if zt.Columnar() != nil {
		t.Fatal("a SQL write left the Zone's segments in place")
	}
	probes := []zone.Probe{{Ra: cands[0].Ra, Dec: cands[0].Dec, R: 1}}
	wins := []zone.Window{{IMin: math.Inf(-1), IMax: math.Inf(1), GrMin: math.Inf(-1), GrMax: math.Inf(1), RiMin: math.Inf(-1), RiMax: math.Inf(1)}}
	cases := []struct {
		name string
		src  zone.Source
		opts zone.SweepOptions
		want string
	}{
		{"windows over TableSource", zone.TableSource(tb, candHeight), zone.SweepOptions{Workers: 1, Windows: wins}, "photometry"},
		{"windows over Columnar", zone.Columnar(tb.Columnar(), candHeight), zone.SweepOptions{Workers: 2, Windows: wins}, "photometry"},
		{"TableSource after a SQL write", zone.TableSource(zt, candHeight), zone.SweepOptions{Workers: 1}, "sweep of Zone"},
	}
	for _, c := range cases {
		before := db.Stats()
		err := zone.Sweep(context.Background(), c.src, probes, c.opts, func(int, zone.ZoneRow) {
			t.Errorf("%s: the refused sweep emitted a row", c.name)
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if d := db.Stats().Sub(before); d != (storage.Stats{}) {
			t.Errorf("%s: the refused sweep read pages: %+v", c.name, d)
		}
	}
	var ids []int64
	if err := zone.SearchTable(zt, candHeight, gals[0].Ra, gals[0].Dec, 0.1, func(zr zone.ZoneRow) {
		ids = append(ids, zr.ObjID)
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int64{1, 2}) {
		t.Errorf("SearchTable over the written Zone found %v, want [1 2]", ids)
	}
}
