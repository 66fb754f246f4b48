package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// validateSlotted bounds-checks every slot of p: each record lies past the
// slot directory and inside the page, and the free-space pointer sits at
// or below the lowest record.
func validateSlotted(p SlottedPage) error {
	n := p.slotCount()
	lowest := len(p.buf)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off < p.base()+4+n*slotEntrySize || off+length > len(p.buf) {
			return fmt.Errorf("storage: slot %d record [%d,%d) out of bounds", i, off, off+length)
		}
		if off < lowest {
			lowest = off
		}
	}
	if p.freeEnd() > lowest {
		return fmt.Errorf("storage: freeEnd %d above lowest record %d", p.freeEnd(), lowest)
	}
	return nil
}

func TestSlottedInsertAndRead(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf, 5)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for i, r := range recs {
		slot, ok := p.Insert(r)
		if !ok || slot != i {
			t.Fatalf("insert %d: slot %d ok %v", i, slot, ok)
		}
	}
	for i, r := range recs {
		if got := p.Record(i); !bytes.Equal(got, r) {
			t.Errorf("record %d = %q, want %q", i, got, r)
		}
	}
	if err := validateSlotted(p); err != nil {
		t.Error(err)
	}
}

func TestSlottedFull(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf, 5)
	rec := make([]byte, 100)
	n := 0
	for {
		if _, ok := p.Insert(rec); !ok {
			break
		}
		n++
	}
	// 8192-ish bytes / (100 + 4 slot bytes) ~ 78 records.
	if n < 70 || n > 85 {
		t.Errorf("page held %d 100-byte records", n)
	}
	if p.FreeSpace() >= 104 {
		t.Errorf("page claims %d free after fill", p.FreeSpace())
	}
	if err := validateSlotted(p); err != nil {
		t.Error(err)
	}
}
