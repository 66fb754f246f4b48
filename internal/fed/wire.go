package fed

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/sky"
	"repro/internal/zone"
)

// The wire protocol is newline-delimited JSON over HTTP. A /sweep
// request is one JSON object carrying the probe batch; the response is
// a stream of hit lines followed by exactly one trailer line with
// "done": true. /exchange responses stream galaxy-row lines the same
// way. Go's encoding/json renders float64 in shortest round-trip form,
// so coordinates, distances, and magnitudes survive the wire bit for
// bit — the federated result stays byte-identical to the centralised
// sweep without a binary encoding.
//
// The trailer carries the line count so the receiver can detect a
// truncated stream (a worker dying mid-response still yields a valid
// prefix of NDJSON lines). A missing or short trailer, like any
// transport error, classifies as transient and is retried; an error
// trailer carries the worker's own transient/permanent verdict.

// sweepRequest is the POST /sweep body. Probe indices are the
// coordinator's global batch positions: a worker only sees the probes
// whose zone windows intersect its stripe, and tags every hit with the
// global index so the coordinator's merge can hand hits to the
// caller's fn under the original numbering.
type sweepRequest struct {
	Probes []wireProbe `json:"probes"`
}

// wireProbe is one probe of a sweep batch. R < 0 never matches
// (zone.Probe's convention) and is pruned coordinator-side.
type wireProbe struct {
	I   int32   `json:"i"`
	Ra  float64 `json:"ra"`
	Dec float64 `json:"dec"`
	R   float64 `json:"r"`
}

// sweepMsg is one /sweep response line: a hit when Done is false, the
// stream trailer when Done is true. Sharing one struct keeps the
// decoder allocation-free of type switches; trailer-only fields are
// omitempty so hit lines stay compact.
type sweepMsg struct {
	Done      bool   `json:"done,omitempty"`
	Hits      int64  `json:"hits,omitempty"`
	Err       string `json:"err,omitempty"`
	Transient bool   `json:"transient,omitempty"`

	P     int32   `json:"p"`
	ObjID int64   `json:"objid"`
	Ra    float64 `json:"ra"`
	Dec   float64 `json:"dec"`
	Dist  float64 `json:"dist"`
	MagI  float64 `json:"mi"`
	Gr    float64 `json:"gr"`
	Ri    float64 `json:"ri"`
}

func (m *sweepMsg) row() zone.ZoneRow {
	return zone.ZoneRow{ObjID: m.ObjID, Ra: m.Ra, Dec: m.Dec,
		Distance: m.Dist, I: m.MagI, Gr: m.Gr, Ri: m.Ri}
}

// exchangeMsg is one /exchange response line: a raw catalog row when
// Done is false, the trailer when Done is true.
type exchangeMsg struct {
	Done      bool   `json:"done,omitempty"`
	Rows      int64  `json:"rows,omitempty"`
	Err       string `json:"err,omitempty"`
	Transient bool   `json:"transient,omitempty"`

	ObjID int64   `json:"objid"`
	Ra    float64 `json:"ra"`
	Dec   float64 `json:"dec"`
	MagI  float64 `json:"mi"`
	Gr    float64 `json:"gr"`
	Ri    float64 `json:"ri"`
	SGr   float64 `json:"sgr"`
	SRi   float64 `json:"sri"`
}

func (m *exchangeMsg) galaxy() sky.Galaxy {
	return sky.Galaxy{ObjID: m.ObjID, Ra: m.Ra, Dec: m.Dec,
		I: m.MagI, Gr: m.Gr, Ri: m.Ri, SigmaGr: m.SGr, SigmaRi: m.SRi}
}

func galaxyMsg(g sky.Galaxy) exchangeMsg {
	return exchangeMsg{ObjID: g.ObjID, Ra: g.Ra, Dec: g.Dec,
		MagI: g.I, Gr: g.Gr, Ri: g.Ri, SGr: g.SigmaGr, SRi: g.SigmaRi}
}

// transientError marks a transport-level failure as retryable; the
// coordinator's retry loop classifies with faultinject.IsTransient, so
// injected faults, net errors, and truncated streams all take the same
// path.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

func transientf(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// asTransient wraps err as transient unless it already classifies.
func asTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// countingWriter feeds an atomic byte counter — the exact measured
// bytes TransferStats reports.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// countingReader is countingWriter's receive side.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// decodeSweepStream consumes a /sweep response body, calling hit for
// every hit line, and returns an error unless a trailer arrived whose
// count matches the lines seen. Truncation (EOF before the trailer, or
// a short count) is transient: the worker died mid-stream and a retry
// against a replica can still produce the full answer.
func decodeSweepStream(r io.Reader, hit func(*sweepMsg)) error {
	dec := json.NewDecoder(r)
	var n int64
	for {
		var m sweepMsg
		if err := dec.Decode(&m); err != nil {
			if err == io.EOF {
				return transientf("fed: sweep stream truncated after %d hits (no trailer)", n)
			}
			return asTransient(fmt.Errorf("fed: sweep stream corrupt after %d hits: %w", n, err))
		}
		if m.Done {
			if m.Err != "" {
				err := fmt.Errorf("fed: worker sweep failed: %s", m.Err)
				if m.Transient {
					return asTransient(err)
				}
				return err
			}
			if m.Hits != n {
				return transientf("fed: sweep stream short: trailer says %d hits, got %d", m.Hits, n)
			}
			return nil
		}
		n++
		hit(&m)
	}
}

// decodeExchangeStream is decodeSweepStream's /exchange twin.
func decodeExchangeStream(r io.Reader, row func(*exchangeMsg)) error {
	dec := json.NewDecoder(r)
	var n int64
	for {
		var m exchangeMsg
		if err := dec.Decode(&m); err != nil {
			if err == io.EOF {
				return transientf("fed: exchange stream truncated after %d rows (no trailer)", n)
			}
			return asTransient(fmt.Errorf("fed: exchange stream corrupt after %d rows: %w", n, err))
		}
		if m.Done {
			if m.Err != "" {
				err := fmt.Errorf("fed: worker exchange failed: %s", m.Err)
				if m.Transient {
					return asTransient(err)
				}
				return err
			}
			if m.Rows != n {
				return transientf("fed: exchange stream short: trailer says %d rows, got %d", m.Rows, n)
			}
			return nil
		}
		n++
		row(&m)
	}
}
