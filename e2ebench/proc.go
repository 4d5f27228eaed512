package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: every child is tied to the coordinator's stdin pipe. Our own
// worker processes exit on EOF; smbserver and shmserve do not read stdin,
// so each runs under a guard (this binary, -role guard) that forwards the
// EOF as SIGTERM. A coordinator that dies, however it dies, closes every pipe.

// child is one spawned process with its merged stdout+stderr queued as
// lines. Every line except RESULT payloads is echoed to our stderr.
type child struct {
	role  string
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu     sync.Mutex
	lines  []string // guarded by mu
	eof    bool     // guarded by mu
	notify chan struct{}

	readDone chan struct{}
	waitDone chan struct{}
	stopOnce sync.Once
}

// live tracks every started child so the watchdog can kill them all.
var live struct {
	sync.Mutex
	m map[*child]bool
}

func spawn(role string, argv ...string) (*child, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = wr, wr
	if err := cmd.Start(); err != nil {
		rd.Close()
		wr.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	wr.Close()
	fmt.Fprintf(os.Stderr, "e2ebench: spawned pid=%d role=%s\n", cmd.Process.Pid, role)
	c := &child{role: role, cmd: cmd, stdin: stdin, notify: make(chan struct{}, 1),
		readDone: make(chan struct{}), waitDone: make(chan struct{})}
	live.Lock()
	if live.m == nil {
		live.m = map[*child]bool{}
	}
	live.m[c] = true
	live.Unlock()
	go c.read(rd)
	go func() { _ = cmd.Wait(); close(c.waitDone) }() //lint:ignore goleak exits when the child is reaped — stdin EOF or the Kill in stop guarantees that
	return c, nil
}

func (c *child) read(r io.ReadCloser) {
	defer close(c.readDone)
	defer r.Close()
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			line = strings.TrimRight(line, "\n")
			if !strings.HasPrefix(line, "RESULT ") {
				fmt.Fprintf(os.Stderr, "[%s] %s\n", c.role, line)
			}
			c.mu.Lock()
			c.lines = append(c.lines, line)
			c.mu.Unlock()
			c.wake()
		}
		if err != nil {
			c.mu.Lock()
			c.eof = true
			c.mu.Unlock()
			c.wake()
			return
		}
	}
}

func (c *child) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// expect consumes queued lines until one contains substr and returns it.
func (c *child) expect(substr string, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		for len(c.lines) > 0 {
			line := c.lines[0]
			c.lines = c.lines[1:]
			if strings.Contains(line, substr) {
				c.mu.Unlock()
				return line, nil
			}
		}
		eof := c.eof
		c.mu.Unlock()
		if eof {
			return "", fmt.Errorf("%s exited before printing %q", c.role, substr)
		}
		select {
		case <-c.notify:
		case <-deadline.C:
			return "", fmt.Errorf("%s printed no %q within %s", c.role, substr, timeout)
		}
	}
}

func (c *child) send(line string) error {
	_, err := io.WriteString(c.stdin, line+"\n")
	return err
}

// stop hangs up the child's stdin and reaps it, killing it after a grace
// period.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		c.stdin.Close()
		select {
		case <-c.waitDone:
		case <-time.After(5 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.waitDone
		}
		select {
		case <-c.readDone:
		case <-time.After(5 * time.Second):
		}
		live.Lock()
		delete(live.m, c)
		live.Unlock()
	})
}

// killAll is the watchdog's last resort.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for c := range live.m {
		_ = c.cmd.Process.Kill()
	}
}

// runGuard runs argv as a child that dies with our stdin: EOF forwards
// SIGTERM (the binaries' clean-shutdown signal), and the kernel sends
// SIGTERM too if this guard itself is killed. Returns the exit code.
func runGuard(argv []string) int {
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "guard: no command")
		return 2
	}
	// Pdeathsig follows the thread that forked, so pin it.
	runtime.LockOSThread()
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "guard:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "e2ebench: spawned pid=%d role=%s\n", cmd.Process.Pid, argv[0])
	go func() { //lint:ignore goleak ends with the process
		_, _ = io.Copy(io.Discard, os.Stdin)
		_ = cmd.Process.Signal(syscall.SIGTERM)
		time.Sleep(3 * time.Second)
		_ = cmd.Process.Kill()
	}()
	if err := cmd.Wait(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		return 1
	}
	return 0
}
