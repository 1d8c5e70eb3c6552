package main

import (
	"math"
	"os"
	"syscall"
	"time"
)

// Machine-speed calibration.
//
// The shared box this benchmark is judged on switches, a few times an hour
// and for a minute to most of an hour at a time, into a state in which
// everything that enters the kernel, faults pages or wakes threads costs 30
// to 45 % more (a register-only spin loop is unaffected and the hypervisor
// reports no stolen time, so it is invisible from the usual counters).
// Every workload slows by 1.4 to 1.6 in that state, CPU time per unit
// included, and the state outlasts any run: no median inside a run removes
// it, and two sets of runs of the same code differ by more than any bound.
//
// So every run measures the machine beside the program. Before and after
// every round a calibrator times two small kernel-bound probes that need
// nothing from this repository: a byte ping-pong over a pair of pipes
// between two goroutines (system calls, poller and thread wake-ups) and
// first touches of freshly mapped pages (page faults). Each is the minimum
// of three short repetitions, which drops preemptions, and repeats within
// 3 % in either state. The slowdown is the geometric mean of the two times
// over their reference values. The untraced run divides a round's
// time-based samples by it, so throughput, latency, CPU time and set-up
// are reported as they would be at the reference speed (timedRound and
// meter say which samples). The probes slow by 1.42 and 1.45 in the slow
// state, the workloads by 1.42 to 1.57, so what is left of the state after
// normalising is under a tenth.
//
// The reference values are this box in its fast state. On another machine
// the slowdown is a constant other than 1, which scales every run alike.
const (
	calPipeTrips  = 500
	calPages      = 256
	calRepeats    = 3
	refPipeTripNS = 3430.0 // one pipe round trip, fast state
	refFaultNS    = 1250.0 // one first touch of a mapped page, fast state
)

// calibrator owns the probes' long-lived parts: the pipes and the echoing
// goroutine.
type calibrator struct {
	toEcho, fromEcho *os.File // this side's ends
	echoIn, echoOut  *os.File // the echo goroutine's ends
	done             chan struct{}
}

func newCalibrator() (*calibrator, error) {
	echoIn, toEcho, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	fromEcho, echoOut, err := os.Pipe()
	if err != nil {
		echoIn.Close()
		toEcho.Close()
		return nil, err
	}
	c := &calibrator{toEcho: toEcho, fromEcho: fromEcho, echoIn: echoIn, echoOut: echoOut, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		buf := make([]byte, 1)
		for {
			if _, err := c.echoIn.Read(buf); err != nil {
				return // close() closed the write end
			}
			if _, err := c.echoOut.Write(buf); err != nil {
				return
			}
		}
	}()
	return c, nil
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	c.toEcho.Close()
	<-c.done
	c.echoIn.Close()
	c.echoOut.Close()
	c.fromEcho.Close()
}

// slowdown times the probes and returns how much slower than the
// reference the machine is right now (1 = reference speed).
func (c *calibrator) slowdown() (float64, error) {
	pipe, fault := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	buf := make([]byte, 1)
	for i := 0; i < calRepeats; i++ {
		t0 := time.Now()
		for j := 0; j < calPipeTrips; j++ {
			if _, err := c.toEcho.Write(buf); err != nil {
				return 0, err
			}
			if _, err := c.fromEcho.Read(buf); err != nil {
				return 0, err
			}
		}
		pipe = min(pipe, time.Since(t0))

		t0 = time.Now()
		mem, err := syscall.Mmap(-1, 0, calPages*os.Getpagesize(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0, err
		}
		for off := 0; off < len(mem); off += os.Getpagesize() {
			mem[off] = 1
		}
		if err := syscall.Munmap(mem); err != nil {
			return 0, err
		}
		fault = min(fault, time.Since(t0))
	}
	pipeRatio := float64(pipe.Nanoseconds()) / calPipeTrips / refPipeTripNS
	faultRatio := float64(fault.Nanoseconds()) / calPages / refFaultNS
	return math.Sqrt(pipeRatio * faultRatio), nil
}
