// Package reexec runs the current test binary again as a child process
// (the chaos tests' victim daemons) that cannot outlive the test process
// that started it.
//
// The child's stdin is a pipe whose only write end belongs to the parent.
// However the parent ends — a finished test, a panic from go test
// -timeout, SIGKILL — the kernel closes that end, the child reads EOF,
// and ExitWithParent exits it. t.Cleanup alone cannot promise this: it
// never runs when the test binary is killed or times out.
package reexec

import (
	"io"
	"os"
	"os/exec"
)

// Command returns a command that runs only the named test of the current
// test binary, verbosely, with env appended to this process's environment.
func Command(test string, env ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.v")
	cmd.Env = append(os.Environ(), env...)
	return cmd
}

// Start starts cmd with its stdin on a pipe held open by this process
// until cmd is waited for.
func Start(cmd *exec.Cmd) error {
	if _, err := cmd.StdinPipe(); err != nil {
		return err
	}
	return cmd.Start()
}

// ExitWithParent makes a child started by Start exit as soon as its
// parent is gone. Call it first in the child.
func ExitWithParent() {
	go func() {
		// Nothing is ever written: Copy returns at EOF, when the parent's
		// end closes, or on a read error, which means the same.
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(2)
	}()
}
