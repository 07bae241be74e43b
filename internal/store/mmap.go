package store

import (
	"fmt"
	"unsafe"

	"titanre/internal/durable"
)

// The mmap read path. A sealed segment file is mapped read-only, its
// digest is verified over the mapped bytes, and — because format v2
// pads every fixed-width column to its natural alignment and a mapping
// starts page-aligned — the in-memory column slices alias the mapping
// directly via unsafe.Slice. The only heap the segment costs is the
// serial dictionary and the rebuilt bitmaps; times/codes/nodes/cards/
// offs/arena live in the page cache and are paged in on demand, so a
// multi-year store scans at disk bandwidth with near-zero resident
// heap.
//
// Aliasing requires the host to be little-endian (the on-disk byte
// order) and mmap to exist (durable.OS maps on unix). Anywhere that doesn't
// hold, MapSegmentFile quietly decodes to heap instead — same Segment,
// same answers, more resident bytes.

// hostLittleEndian reports whether multi-byte loads read the on-disk
// (little-endian) byte order, the precondition for column aliasing.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func aliasInt64(b []byte, n int) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func aliasUint32(b []byte, n int) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func aliasUint16(b []byte, n int) []uint16 {
	return unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// MapSegmentFile opens one segment file with its columns aliasing a
// read-only mapping (fsys.Map) when the platform allows, falling back to
// an ordinary heap read when it doesn't (no mmap, or a big-endian host).
// Validation is identical either way — digest first, structure second —
// so a corrupt file fails with ErrCorrupt on both paths. The returned
// segment holds the mapping until Close.
func MapSegmentFile(fsys durable.FS, path string) (*Segment, error) {
	if !hostLittleEndian() {
		return ReadSegmentFile(fsys, path)
	}
	data, unmap, err := fsys.Map(path)
	if err != nil {
		// A file too large, an empty one or a filesystem that refuses
		// mappings should degrade, not fail: the heap path answers
		// identically (and names an empty file corrupt).
		return ReadSegmentFile(fsys, path)
	}
	seg, err := parseSegment(data, true)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seg.unmap = unmap
	seg.mappedBytes = int64(len(data))
	return seg, nil
}
