package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The reference box is a guest on a shared host. Whenever a virtual CPU goes
// idle the host gives its core to a neighbour, and the next wake-up waits for
// the host's scheduler: a daemon and a generator that hand work back and
// forth over loopback idle and wake thousands of times a second, and on this
// box lost 39 % of their CPU time to that wait ("steal"), in phases that
// moved every timing by up to 2x between runs. A keeper per CPU, spinning at
// the lowest priority the kernel has, stops the virtual CPUs from ever going
// idle (what idle=poll does on a bare machine): steal drops to 6 % and stays
// there, and daemon and generator still get the CPU the moment they want it.

// keepAwakeFlag is the hidden argument that turns this program into a keeper.
const keepAwakeFlag = "-keep-awake-cpu"

// keeper is one running keeper and the pipe whose closing stops it.
type keeper struct {
	cmd  *exec.Cmd
	stop io.Closer
}

// keepers are the running keepers. A signal can stop them while they are
// still being started.
var keepers struct {
	sync.Mutex
	all []keeper
}

// keepAwake starts one keeper per CPU. They are children of this process and
// exit when it does: each spins until its standard input closes.
func keepAwake() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	keepers.Lock()
	defer keepers.Unlock()
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, keepAwakeFlag, strconv.Itoa(cpu))
		stop, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		keepers.all = append(keepers.all, keeper{cmd, stop})
	}
	return nil
}

// stopKeepers closes every keeper's standard input and waits for it to exit.
func stopKeepers() {
	keepers.Lock()
	defer keepers.Unlock()
	for _, k := range keepers.all {
		_ = k.stop.Close()
		_ = k.cmd.Wait() // a keeper has no result
	}
	keepers.all = nil
}

// runKeeper is the keeper process: spin on cpu at idle priority until the
// parent closes the pipe or dies.
func runKeeper(cpu int) {
	var stop atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is gone
		stop.Store(true)
	}()
	runtime.LockOSThread()
	yieldToEveryone(cpu)
	var x uint64 = 1
	for !stop.Load() {
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	if x == 0 { // keeps the loop from being optimised away
		os.Exit(3)
	}
}
