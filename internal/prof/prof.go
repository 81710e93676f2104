// Package prof wires the standard runtime/pprof CPU and heap profiles into
// the command binaries' -cpuprofile / -memprofile flags, so kernel-level
// changes (distance kernels, pool scaling) are measurable with
// `go tool pprof` on real workloads rather than only in microbenchmarks.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session is one run's profiling state: an in-progress CPU profile and a
// pending heap snapshot path. The zero Session (from Start("", "")) is
// inert and Stop on it is a no-op, so callers can wire it unconditionally.
type Session struct {
	cpu     *os.File
	memPath string
}

// Start begins a CPU profile to cpuPath (when non-empty) and remembers
// memPath for the heap snapshot Stop writes. On error nothing is left
// running.
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		s.cpu = f
	}
	return s, nil
}

// Stop ends the CPU profile and writes the heap profile (after a GC, so the
// snapshot reflects live heap rather than garbage). Safe to call on a nil
// or zero Session and idempotent.
func (s *Session) Stop() error {
	if s == nil {
		return nil
	}
	var first error
	if s.cpu != nil {
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			first = err
		}
		s.cpu = nil
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
			s.memPath = ""
			return first
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = fmt.Errorf("writing heap profile: %w", err)
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		s.memPath = ""
	}
	return first
}
