//go:build unix

package durable

import (
	"os"
	"syscall"
)

// mmap maps size bytes of f read-only and shared — the kernel page
// cache backs the pages, so mapping the same file twice costs no extra
// memory and evicted pages re-fault from disk.
func mmap(f *os.File, size int) ([]byte, func(), error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() { _ = syscall.Munmap(data) }, nil
}
