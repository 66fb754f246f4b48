package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/casjobs"
	"repro/internal/sqldb"
	"repro/internal/storage"
)

const casUser = "bench"

// casjobsMixed is the CasJobs service under its two kinds of user at
// once. The reader is the op: a quick-queue range aggregate over its
// MyDB table, every fifth one over DR1 instead, waiting for each reply
// (four in five on one table keeps the latency distribution one-humped,
// so its median does not hop between two kinds of read). The writer
// is released for one long-queue SELECT ... INTO per readsPerLoad
// completed reads, so the mix is fixed by construction; each load stages
// loadRows rows and renames them over the table the reader is reading.
type casjobsMixed struct {
	in   *inputs
	srv  *casjobs.Server
	dr1  *sqldb.DB
	mydb *sqldb.DB

	// reader
	got               *casjobs.Job
	reads             int
	lastGen           int64
	waitMs, execMs    []float64
	loadingMs, idleMs []float64
	rejected          int

	// writer; its fields are the writer's until writerDone is closed
	release      chan struct{}
	stopWriter   sync.Once
	writerDone   chan struct{}
	loadsStarted atomic.Int64
	loadsEnded   atomic.Int64
	loadsFailed  int
	loadBusy     time.Duration
	loadSpans    [][2]time.Time
}

func setupCasjobs(in *inputs) (instance, error) {
	first := in.cat.Galaxies[0].ObjID
	for k := range in.cat.Galaxies {
		if in.cat.Galaxies[k].ObjID != first+int64(k) {
			return nil, fmt.Errorf("catalog objids are not contiguous at row %d; the range oracles assume they are", k)
		}
	}
	w := &casjobsMixed{
		in:  in,
		dr1: sqldb.Open(0),
		// Every token the reader will ever send fits, so the reader never
		// waits for the writer.
		release:    make(chan struct{}, len(in.loadLo)),
		writerDone: make(chan struct{}),
	}
	if err := loadGalaxyTable(w.dr1, galaxyRows(in.cat.Galaxies)); err != nil {
		return nil, fmt.Errorf("load DR1: %w", err)
	}
	w.srv = casjobs.NewServerConfig(map[string]*sqldb.DB{"DR1": w.dr1},
		casjobs.Config{QuickWorkers: 2, LongWorkers: 1})
	if err := w.srv.CreateUser(casUser); err != nil {
		w.srv.Close()
		return nil, err
	}
	var err error
	if w.mydb, err = w.srv.MyDB(casUser); err != nil {
		w.srv.Close()
		return nil, err
	}
	// Generation 0 of the table the reader reads; the timed loads are
	// generations 1, 2, ...
	if err := w.load(len(in.loadLo)-1, 0); err != nil {
		w.srv.Close()
		return nil, fmt.Errorf("first load: %w", err)
	}
	go w.writer()
	return w, nil
}

// load materialises one generation of the reader's table through the
// long queue and waits for it.
func (w *casjobsMixed) load(slot int, gen int64) error {
	lo, n := w.in.loadLo[slot], int64(w.in.size.loadRows)
	q := fmt.Sprintf("SELECT objid - %d AS k, %d AS gen, i FROM galaxy WHERE objid BETWEEN %d AND %d",
		lo, gen, lo, lo+n-1)
	j, err := w.srv.Submit(casUser, "DR1", q, "hot", false)
	if err != nil {
		return err
	}
	st, err := w.srv.Wait(j.ID)
	if err != nil {
		return err
	}
	if st != casjobs.StatusFinished || j.RowCount() != n {
		return fmt.Errorf("load %d: %s, %d rows (%s)", gen, st, j.RowCount(), j.Err())
	}
	return nil
}

func (w *casjobsMixed) writer() {
	defer close(w.writerDone)
	gen := int64(0)
	for range w.release {
		gen++
		w.loadsStarted.Add(1)
		t0 := time.Now()
		err := w.load(int(gen-1), gen)
		t1 := time.Now()
		w.loadsEnded.Add(1)
		w.loadBusy += t1.Sub(t0)
		w.loadSpans = append(w.loadSpans, [2]time.Time{t0, t1})
		if err != nil {
			w.loadsFailed++
		}
	}
}

func (w *casjobsMixed) buildOracle() error { return nil }

// readsDR1 reports whether read i goes to the shared catalog. The period
// is odd so that traced (even) and untraced (odd) ops see the same mix.
func readsDR1(i int) bool { return i%5 == 4 }

func (w *casjobsMixed) op(i int, tr *opTrace) error {
	w.got = nil
	span := int64(w.in.size.readSpan)
	ctx, q := "MYDB", ""
	if readsDR1(i) {
		ctx = "DR1"
		lo := w.in.dr1Lo[i]
		q = fmt.Sprintf("SELECT COUNT(*), AVG(i) FROM galaxy WHERE objid BETWEEN %d AND %d", lo, lo+span-1)
	} else {
		lo := w.in.readLo[i]
		q = fmt.Sprintf("SELECT COUNT(*), MIN(gen), MAX(gen) FROM hot WHERE k BETWEEN %d AND %d", lo, lo+span-1)
	}
	started, ended := w.loadsStarted.Load(), w.loadsEnded.Load()
	t0 := time.Now()
	j, err := w.srv.Submit(casUser, ctx, q, "", true)
	total := time.Since(t0)
	if err != nil {
		w.rejected++
		return err
	}
	if j.Status() != casjobs.StatusFinished {
		return fmt.Errorf("read job %s: %s", j.Status(), j.Err())
	}
	w.got = j
	ms := total.Seconds() * 1e3
	w.execMs = append(w.execMs, j.Elapsed().Seconds()*1e3)
	w.waitMs = append(w.waitMs, (total-j.Elapsed()).Seconds()*1e3)
	if started > ended || w.loadsStarted.Load() > started {
		w.loadingMs = append(w.loadingMs, ms)
	} else {
		w.idleMs = append(w.idleMs, ms)
	}
	if w.reads++; w.reads%readsPerLoad == 0 {
		w.release <- struct{}{}
	}
	return nil
}

func (w *casjobsMixed) check(i int) error {
	rows := w.got.Rows()
	if rows == nil || !rows.Next() {
		return fmt.Errorf("read returned no row")
	}
	r, span := rows.Row(), int64(w.in.size.readSpan)
	if r[0].I != span {
		return fmt.Errorf("read counted %d rows, want %d", r[0].I, span)
	}
	if !readsDR1(i) {
		// A load swaps the whole table in one rename: a range must come
		// from one generation, and generations never go backwards.
		if r[1].I != r[2].I {
			return fmt.Errorf("torn read: generations %d to %d in one range", r[1].I, r[2].I)
		}
		if r[1].I < w.lastGen {
			return fmt.Errorf("generation went back from %d to %d", w.lastGen, r[1].I)
		}
		w.lastGen = r[1].I
		return nil
	}
	var tot float64
	first := w.in.cat.Galaxies[0].ObjID
	for id := w.in.dr1Lo[i]; id < w.in.dr1Lo[i]+span; id++ {
		tot += w.in.cat.Galaxies[id-first].I
	}
	if want := tot / float64(span); math.Abs(r[1].F-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("DR1 read: AVG %v, brute force %v", r[1].F, want)
	}
	return nil
}

func (w *casjobsMixed) io() storage.Stats {
	st := w.dr1.Pool().Stats()
	st.Add(w.mydb.Pool().Stats())
	return st
}

// drain lets the writer finish the loads it was released for and counts
// them as operations.
func (w *casjobsMixed) drain() (int, int) {
	w.stopWriter.Do(func() { close(w.release) })
	<-w.writerDone
	return int(w.loadsEnded.Load()), w.loadsFailed
}

func (w *casjobsMixed) close() {
	w.drain()
	w.srv.Close()
}

func (w *casjobsMixed) notes() []string {
	return []string{fmt.Sprintf("DR1 galaxy: %d rows; reads aggregate %d rows; %d loads of %d rows, one per %d reads; quick workers 2, long workers 1",
		w.in.cat.Len(), w.in.size.readSpan, w.loadsEnded.Load(), w.in.size.loadRows, readsPerLoad)}
}

func (w *casjobsMixed) layers(lr *layerReport) error {
	for k, iv := range w.loadSpans {
		lr.rec.add("casjobs.load", k, iv[0], iv[1])
	}
	lr.set("casjobs.queue_wait_ms_p50", median(w.waitMs))
	lr.set("casjobs.exec_ms_p50", median(w.execMs))
	lr.set("casjobs.read_ms_p99_during_load", percentile(w.loadingMs, 99))
	lr.set("casjobs.read_ms_p99_idle", percentile(w.idleMs, 99))
	lr.set("casjobs.rejected", float64(w.rejected))
	if w.loadBusy > 0 {
		done := w.loadsEnded.Load() - int64(w.loadsFailed)
		lr.set("casjobs.load_rows_per_s", float64(done*int64(w.in.size.loadRows))/w.loadBusy.Seconds())
	}
	rs := w.mydb.Reclaimer().Stats()
	lr.set("storage.reclaim_retired_pages", float64(rs.Retired))
	lr.set("storage.reclaim_leaked_pages", float64(rs.Leaked))
	lr.set("storage.reclaim_pending_end", float64(w.mydb.Reclaimer().Pending()))
	return nil
}
