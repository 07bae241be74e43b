//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines this process — every thread it has now, so every
// thread and child it creates later — to the lowest CPU it may run on,
// and returns that CPU.
//
// The sandbox this benchmark was built on offers two vCPUs but, most of
// the time, one core's worth of cycles between them: two busy threads
// each run at half speed for minutes, then at full speed for a while.
// A closed-loop replay that saturates "both cores" therefore reads
// anywhere between 1x and 2x from run to run. On one CPU the capacity is
// the same in either regime, so every figure is a one-core figure and
// says so; multi-core scaling is not something this box can measure.
func pinToOneCPU() (int, error) {
	var mask [1024 / 64]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	cpu := -1
	for i := 0; i < len(mask)*64 && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	mask = [len(mask)]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread started while we walk the list inherits its creator's
	// mask, which may be the old one; a second pass catches it.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since the listing.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
