package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout and the benchmark's scratch space inside it.
// Everything the benchmark writes lands under buildDir or outDir.
type env struct {
	root     string // checkout root (holds go.mod, cmd/, results/)
	buildDir string // root/.bench_build: binaries, go cache, run dirs
	outDir   string // root/bench/out: trace files
	served   string // built rdtserved
	exper    string // built rdtexperiments
	runDir   string // this process's scratch, removed on exit
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rdtserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout of the rdt module (cmd/rdtserved not found)")
		}
		dir = parent
	}
}

// newEnv builds the two binaries under test (a no-op when the go cache
// is warm) and makes this run's scratch directory.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		outDir:   filepath.Join(root, "bench", "out"),
	}
	bin := filepath.Join(e.buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	e.served = filepath.Join(bin, "rdtserved")
	e.exper = filepath.Join(bin, "rdtexperiments")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/rdtserved", "./cmd/rdtexperiments")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	if e.runDir, err = os.MkdirTemp(e.buildDir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { _ = os.RemoveAll(e.runDir) }

// child is one process under test. Its combined output is kept for
// address discovery and diagnostics.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait has returned
	err  error         // Wait's error; read after done

	mu  sync.Mutex
	log bytes.Buffer
}

// startChild execs bin. The child dies with this process even when the
// benchmark is killed outright.
func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	if err := c.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			c.mu.Lock()
			c.log.Write(sc.Bytes())
			c.log.WriteByte('\n')
			c.mu.Unlock()
		}
		pr.Close()
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.String()
}

// usage is what the operating system charged a child.
type usage struct {
	cpu    time.Duration // user + system
	peakMB float64       // VmHWM
}

// peakRSS reads the child's resident high-water mark. It is read from
// /proc while the child lives: the rusage figure would include this
// process's own footprint at fork time.
func (c *child) peakRSS() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// kill stops the child at once and reports its usage. Safe to call on
// a child that already exited.
func (c *child) kill() usage {
	u := usage{peakMB: c.peakRSS()}
	_ = c.cmd.Process.Kill()
	<-c.done
	if st := c.cmd.ProcessState; st != nil {
		u.cpu = st.UserTime() + st.SystemTime()
	}
	return u
}

// daemon is a running rdtserved.
type daemon struct {
	*child
	http   string // base URL
	stream string // RDTSTRM1 address
}

var (
	reListen = regexp.MustCompile(`listening on (\S+)`)
	reStream = regexp.MustCompile(`stream ingest on (\S+)`)
)

// startDaemon execs rdtserved on ports of the kernel's choosing, reads
// the bound addresses back from its log and waits for /healthz. With a
// data directory that holds sessions, ready means recovered.
func (e *env) startDaemon(ctx context.Context, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	c, err := startChild(e.served, args...)
	if err != nil {
		return nil, err
	}
	d := &daemon{child: c}
	for {
		out := c.output()
		lm, sm := reListen.FindStringSubmatch(out), reStream.FindStringSubmatch(out)
		if lm != nil && sm != nil {
			d.http, d.stream = "http://"+lm[1], sm[1]
			break
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("rdtserved exited before listening: %v\n%s", c.err, c.output())
		case <-ctx.Done():
			c.kill()
			return nil, fmt.Errorf("rdtserved did not listen: %w\n%s", ctx.Err(), c.output())
		case <-time.After(time.Millisecond):
		}
	}
	resp, err := httpDo(ctx, http.MethodGet, d.http+"/healthz", nil)
	if err != nil || resp.status != http.StatusOK {
		c.kill()
		return nil, fmt.Errorf("rdtserved /healthz: status %d, %v", resp.status, err)
	}
	return d, nil
}

// httpClient keeps one idle connection per driver alive, so a closed
// loop of requests reuses its connection.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

type httpResp struct {
	status int
	body   []byte
}

func httpDo(ctx context.Context, method, url string, body []byte) (httpResp, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return httpResp{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return httpResp{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return httpResp{status: resp.StatusCode, body: data}, err
}

// scrape reads the daemon's Prometheus text into name{labels} -> value.
func (d *daemon) scrape(ctx context.Context) map[string]float64 {
	out := make(map[string]float64)
	resp, err := httpDo(ctx, http.MethodGet, d.http+"/metrics", nil)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(resp.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
