//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Child processes. The end-to-end numbers come from the binaries users
// run, built from ./cmd into bench/out/bin and driven over loopback.
// Every child gets its own process group and is tracked by the env that
// started it, so a failed run can always reap what it launched.

var binaries = []string{"titand", "titanrouter", "titanreport"}

// env is one run's working state: where the repository and the built
// binaries are, a private scratch directory, and the live children.
type env struct {
	root string // repository root (holds go.mod)
	bin  string // bench/out/bin
	work string // bench/out/work-<pid>, removed on close

	mu       sync.Mutex
	children map[*child]struct{}
	closed   bool // set by close: a child started after it is killed at once
	seq      int
}

// findRoot walks up from the working directory to the titanre module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module titanre\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no titanre go.mod above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	e := &env{
		root:     root,
		bin:      filepath.Join(out, "bin"),
		work:     filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid())),
		children: make(map[*child]struct{}),
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills anything still running and removes the scratch directory.
func (e *env) close() {
	e.mu.Lock()
	e.closed = true
	live := make([]*child, 0, len(e.children))
	for c := range e.children {
		live = append(live, c)
	}
	e.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	os.RemoveAll(e.work)
}

// dir returns a fresh scratch directory path (not created).
func (e *env) dir(name string) string {
	e.mu.Lock()
	e.seq++
	n := e.seq
	e.mu.Unlock()
	return filepath.Join(e.work, fmt.Sprintf("%s-%d", name, n))
}

// build compiles the cmd binaries; an up-to-date binary costs ~0.1 s.
func (e *env) build() error {
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build: %v\n%s", err, out)
	}
	return nil
}

// child is one launched program.
type child struct {
	name    string
	cmd     *exec.Cmd
	url     string // base URL for daemons, "" otherwise
	started time.Time
	stderr  bytes.Buffer
	stdout  bytes.Buffer
	done    chan struct{} // closed when Wait has returned
	waitErr error
	peakKB  atomic.Int64 // highest VmHWM seen, see watchRSS
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches a binary in its own process group.
func (e *env) start(name string, args ...string) (*child, error) {
	c := &child{name: name, done: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(e.bin, name), args...)
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	e.mu.Lock()
	e.children[c] = struct{}{}
	closed := e.closed
	e.mu.Unlock()
	go c.watchRSS()
	go func() {
		c.waitErr = c.cmd.Wait()
		e.mu.Lock()
		delete(e.children, c)
		e.mu.Unlock()
		close(c.done)
	}()
	if closed {
		// A signal closed the env while this launch was under way.
		c.kill()
		return nil, fmt.Errorf("bench: %s started while shutting down", name)
	}
	return c, nil
}

// startDaemon launches a listening daemon on a free loopback port and
// waits until /healthz answers ok. Another process can take the port
// between its release here and the child's bind; the child then exits at
// once, and the launch is retried on a fresh port.
func (e *env) startDaemon(name string, args ...string) (*child, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var addr string
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
		var c *child
		if c, err = e.start(name, append([]string{"-addr", addr}, args...)...); err != nil {
			return nil, err
		}
		c.url = "http://" + addr
		if err = c.waitHealthy(30 * time.Second); err == nil {
			return c, nil
		}
		lostPort := c.exited()
		c.kill()
		if !lostPort {
			break
		}
	}
	return nil, err
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

var pollClient = &http.Client{Timeout: 5 * time.Second}

func (c *child) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.exited() {
			return fmt.Errorf("bench: %s exited before becoming healthy: %v\n%s", c.name, c.waitErr, c.stderr.String())
		}
		// titand answers {"status":"ok",...} ("draining" on the way
		// down); titanrouter answers a bare "ok".
		status, _, body, err := get(pollClient, c.url+"/healthz")
		if err == nil && status == http.StatusOK && !bytes.Contains(body, []byte("draining")) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: %s not healthy after %v\n%s", c.name, timeout, c.stderr.String())
}

// stop sends SIGTERM and waits for a clean exit, returning how long the
// drain took; a child that ignores it for 60 s is killed.
func (c *child) stop() (time.Duration, error) {
	t0 := time.Now()
	if !c.exited() {
		c.sampleRSS()
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !c.exited() {
			return 0, fmt.Errorf("bench: signalling %s: %w", c.name, err)
		}
	}
	select {
	case <-c.done:
	case <-time.After(60 * time.Second):
		c.kill()
		return 0, fmt.Errorf("bench: %s did not drain within 60s", c.name)
	}
	if c.waitErr != nil {
		return 0, fmt.Errorf("bench: %s: %v\n%s", c.name, c.waitErr, c.stderr.String())
	}
	return time.Since(t0), nil
}

// kill takes down the child's whole process group and reaps it.
func (c *child) kill() {
	if !c.exited() {
		c.sampleRSS()
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // already-gone is fine
	}
	<-c.done
}

// cpuNow is the child's user+system CPU so far, read from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s): the
// only way to split a live child's CPU at a phase boundary.
func (c *child) cpuNow() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat for %s", c.name)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparseable /proc stat for %s", c.name)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// watchRSS samples the child's resident-set high-water mark until it
// exits. rusage's ru_maxrss cannot be used for this: exec carries the
// forking process's own high-water mark into the child's accounting, so
// it reads at least the benchmark's peak, whatever the child does.
// VmHWM belongs to the child's own address space. stop and kill take a
// last sample, so only a child that exits by itself can outgrow its last
// 20 ms unseen.
func (c *child) watchRSS() {
	for !c.exited() {
		c.sampleRSS()
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *child) sampleRSS() {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return // already reaped
	}
	if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
		var kb int64
		if _, err := fmt.Sscanf(string(data[i+len("VmHWM:"):]), "%d", &kb); err == nil {
			for old := c.peakKB.Load(); kb > old && !c.peakKB.CompareAndSwap(old, kb); old = c.peakKB.Load() {
			}
		}
	}
}

// usage is the exited child's total CPU, from the rusage the kernel
// hands back at wait, and its peak resident set.
func (c *child) usage() (cpu time.Duration, rssMB float64) {
	<-c.done
	rssMB = float64(c.peakKB.Load()) / 1024
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return cpu, rssMB
}

// selfCPU is the load generator's own CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// get fetches a URL and returns status, headers and body.
func get(client *http.Client, url string) (int, http.Header, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func getJSON(client *http.Client, url string, v any) error {
	status, _, body, err := get(client, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(body, v)
}
