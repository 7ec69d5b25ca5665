package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv carries the command line for a re-executed test binary
// that runs main instead of the tests, one argument per line.
const mainArgsEnv = "CACHEPART_MAIN_ARGS"

// TestProfileFlags runs the command on a tiny Figure 4 with
// -cpuprofile and -memprofile and checks that both profiles are
// written.
func TestProfileFlags(t *testing.T) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"cachepart"}, strings.Split(args, "\n")...)
		main()
		return
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-cpuprofile", cpu, "-memprofile", mem,
		"-scale", "64", "-cores", "4", "-duration", "0.0005",
		"-scanrows", "65536", "-rows", "65536", "-ways", "2,20", "fig4"}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProfileFlags$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cachepart %v: %v\n%s", args, err, out)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (%v)", filepath.Base(f), err)
		}
	}
}
