package serve

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the suite's goroutine-leak tripwire: the daemon's whole
// design is that every goroutine it spawns has a join path (workers via
// the WaitGroups, drain helpers via their done channels — the leakcheck
// analyzer pins the shapes), so after every test's Cleanup has run, the
// process must be back to the goroutine count it started with. The count
// is polled briefly rather than read once, because closed httptest
// servers and finished workers take a moment to unwind; a count still
// elevated after the grace period fails the suite with full stacks, which
// names the spawn site of whatever leaked.
func TestMain(m *testing.M) {
	before, _ := suiteGoroutines()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for {
			after, stacks := suiteGoroutines()
			if after <= before {
				break
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr,
					"serve: goroutine leak: %d goroutines before the suite, %d after; stacks:\n%s\n",
					before, after, stacks)
				code = 1
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	os.Exit(code)
}

// suiteGoroutines counts the live goroutines and returns their stacks,
// leaving out the os/signal receive loop: `go test -fuzz` starts it for
// its own interrupt handling, and it lives as long as the process. No
// code in this package installs a signal handler.
func suiteGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if !strings.Contains(g, "os/signal.signal_recv") {
			n++
		}
	}
	return n, stacks
}
