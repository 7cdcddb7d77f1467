package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const modulePath = "github.com/datacron-project/datacron"

// repoRoot walks up from the working directory to the module that owns
// cmd/datacron-serve, so the benchmark runs from the checkout root
// (bench/run.sh) and from bench/ (go run -C bench .) alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(mod)), "module "+modulePath+"\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s checkout above the working directory: the benchmark builds cmd/datacron-serve from source", modulePath)
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/datacron-serve into the checkout's build
// directory and returns the binary's path.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "datacron-serve")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/datacron-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build datacron-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live daemon and temp dir so an exit or a signal
// leaves nothing behind.
var children struct {
	sync.Mutex
	daemons map[*daemon]bool
	dirs    map[string]bool
	log     bytes.Buffer // stderr of the daemons killed so far
}

func cleanupAll() {
	children.Lock()
	ds := make([]*daemon, 0, len(children.daemons))
	for d := range children.daemons {
		ds = append(ds, d)
	}
	dirs := make([]string, 0, len(children.dirs))
	for dir := range children.dirs {
		dirs = append(dirs, dir)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		removeTempDir(dir)
	}
}

// tempDir makes a scratch directory under outDir (inside the checkout).
func tempDir(outDir, prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, prefix)
	if err != nil {
		return "", err
	}
	children.Lock()
	if children.dirs == nil {
		children.dirs = map[string]bool{}
	}
	children.dirs[dir] = true
	children.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	_ = os.RemoveAll(dir) // scratch data; a leftover is ignored by git and harmless
	children.Lock()
	delete(children.dirs, dir)
	children.Unlock()
}

// daemon is one child datacron-serve.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been reaped
	// startup is exec → first /readyz 200.
	startup time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with default flags plus extra, and returns once
// /readyz answers 200.
func startDaemon(bin string, w world, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{
		"-addr", addr,
		"-seed", strconv.FormatInt(w.seed, 10),
		"-vessels", strconv.Itoa(w.kind.vessels),
	}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, done: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	begin := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	children.Lock()
	if children.daemons == nil {
		children.daemons = map[*daemon]bool{}
	}
	children.daemons[d] = true
	children.Unlock()
	go func() {
		_ = d.cmd.Wait() // exit status of a killed child carries no information
		close(d.done)
	}()

	probe := &http.Client{Timeout: time.Second}
	for deadline := begin.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited during start-up:\n%s", d.stderr.String())
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startup = time.Since(begin)
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("daemon not ready after 60s:\n%s", d.stderr.String())
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-d.done
	children.Lock()
	delete(children.daemons, d)
	children.log.Write(d.stderr.Bytes())
	children.Unlock()
}

// peakRSSMiB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// takeDaemonLog returns and clears what the daemons killed since the last
// call wrote to stderr. The caller saves it only when a run failed.
func takeDaemonLog() []byte {
	children.Lock()
	defer children.Unlock()
	out := append([]byte(nil), children.log.Bytes()...)
	children.log.Reset()
	return out
}
