// Package profile writes the CPU and heap profiles that the
// command-line tools' -cpuprofile and -memprofile flags ask for, in
// runtime/pprof format (inspect them with `go tool pprof`).
package profile

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath, if set. The returned stop
// ends it and writes a heap profile into memPath, if set; call it once,
// when the work to profile is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, fmt.Errorf("profile: %w", errors.Join(err, cpu.Close()))
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		runtime.GC() // the heap profile reports live objects as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("profile: %w", errors.Join(err, f.Close()))
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		return nil
	}, nil
}
