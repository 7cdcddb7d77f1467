//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only when nothing
// else on its CPU wants to.
const schedIdle = 5

// yieldToEveryone pins the calling thread to cpu and drops it to SCHED_IDLE.
// Where the kernel refuses either, the keeper still runs, at nice 19.
func yieldToEveryone(cpu int) {
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var prio int32 // struct sched_param{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort: an unniced keeper still only costs a time slice
	}
}
