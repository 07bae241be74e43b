package store

import (
	"fmt"
	"os"
	"path/filepath"

	"titanre/internal/failpoint"
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

// WriteSealedFloor durably records the sealed floor in dir.
func WriteSealedFloor(dir string, seq, count uint64) error {
	if err := WriteFileDurable(dir, FloorFile, fmt.Appendf(nil, "%d %d\n", seq, count), nil); err != nil {
		return fmt.Errorf("store: sealed floor: %w", err)
	}
	return nil
}

// WriteFileDurable replaces dir/name with data so that a crash at any
// point leaves the old file or the new one, never a torn one: the bytes
// go to a temp file in dir (".name-*"), which is fsynced, renamed over
// name, and then the directory entry is fsynced. site, when non-nil, is
// evaluated between the temp file's fsync and the rename; its error
// aborts the write with the old file in place. A crash before the rename
// leaves only the temp file, which no reader opens.
func WriteFileDurable(dir, name string, data []byte, site *failpoint.Site) error {
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if site != nil {
		if err := site.Eval(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadSealedFloor reads the floor marker; ok=false when dir has none
// (a store that never compacted, or a pre-floor layout).
func ReadSealedFloor(dir string) (seq, count uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, FloorFile))
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
