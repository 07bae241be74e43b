package store

import (
	"fmt"
	"os"
	"path/filepath"

	"titanre/internal/durable"
)

// The SEALED floor file.
//
// Compaction writes a small marker next to the segment files recording
// how far the sealed history durably extends: a global sequence number
// (events ever sealed by this daemon lineage, counting events later
// lost to quarantine) and the event count the store held when the
// floor was written. A warm restart combines the floor with the count
// it actually loaded:
//
//	skip = floorSeq + max(0, loaded − floorCount)   // journal replay start
//	lost = max(0, floorCount − loaded)              // events in quarantined segments
//
// The delta term covers a crash after a seal but before the floor
// update (loaded > floorCount: the extra segments are already applied
// history, so replay skips past them); the lost term is the exact
// accounting a degraded start reports. Without quarantine the two
// counts coincide and skip reduces to max(loaded, floorSeq).

// FloorFile is the marker's file name inside a segment directory.
// Open ignores it (only *.seg files are segments).
const FloorFile = "SEALED"

// WriteSealedFloor durably records the sealed floor in the store's
// directory.
func (st *Store) WriteSealedFloor(seq, count uint64) error {
	if err := durable.WriteBytes(st.fs, st.dir, FloorFile, fmt.Appendf(nil, "%d %d\n", seq, count)); err != nil {
		return fmt.Errorf("store: sealed floor: %w", err)
	}
	return nil
}

// ReadSealedFloor reads the floor marker; ok=false when the directory
// has none (a store that never compacted, or a pre-floor layout).
func (st *Store) ReadSealedFloor() (seq, count uint64, ok bool, err error) {
	data, err := st.fs.ReadFile(filepath.Join(st.dir, FloorFile))
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: sealed floor: %w", err)
	}
	if _, err := fmt.Sscanf(string(data), "%d %d", &seq, &count); err != nil {
		return 0, 0, false, fmt.Errorf("store: sealed floor: unparseable %q", data)
	}
	return seq, count, true, nil
}
