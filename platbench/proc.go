package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything a run creates outside its own memory: one temporary
// directory and every child process.  cleanup kills and reaps the
// children and removes the directory; it runs on every exit path.
type env struct {
	root string // repository root (module repro)
	tmp  string // this run's temporary directory

	mu     sync.Mutex
	procs  map[*exec.Cmd]bool
	wbserv string // built wbserve binary, once built
}

func newEnv(root, base string) (*env, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "platbench-*")
	if err != nil {
		return nil, err
	}
	return &env{root: root, tmp: tmp, procs: map[*exec.Cmd]bool{}}, nil
}

func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*exec.Cmd, 0, len(e.procs))
	for c := range e.procs {
		procs = append(procs, c)
	}
	e.procs = map[*exec.Cmd]bool{}
	e.mu.Unlock()
	for _, c := range procs {
		_ = c.Process.Kill()
		_ = c.Wait()
	}
	_ = os.RemoveAll(e.tmp)
}

// buildWbserve compiles cmd/wbserve from the repository's sources into the
// run's temporary directory.
func (e *env) buildWbserve(ctx context.Context) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wbserv != "" {
		return e.wbserv, nil
	}
	bin := filepath.Join(e.tmp, "wbserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/wbserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building wbserve: %v\n%s", err, out)
	}
	e.wbserv = bin
	return bin, nil
}

// server is one wbserve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	logs *bytes.Buffer
}

// startWbserve launches wbserve on a free loopback port and waits until
// /healthz answers 200, returning the time from launch to that answer.
func (e *env) startWbserve(ctx context.Context, args ...string) (*server, time.Duration, error) {
	bin, err := e.buildWbserve(ctx)
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	logs := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = logs, logs
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	e.procs[cmd] = true
	e.mu.Unlock()
	s := &server{cmd: cmd, url: "http://" + addr, logs: logs}
	if err := waitHealthy(ctx, s.url, 30*time.Second); err != nil {
		e.stop(s)
		return nil, 0, fmt.Errorf("wbserve %v: %v; log:\n%s", args, err, logs.String())
	}
	return s, time.Since(start), nil
}

// stop ends a wbserve child gracefully (SIGTERM, which closes its journal)
// and reaps it; a child that has not exited after ten seconds is killed.
func (e *env) stop(s *server) {
	e.mu.Lock()
	owned := e.procs[s.cmd]
	delete(e.procs, s.cmd)
	e.mu.Unlock()
	if !owned {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// freePort asks the kernel for a free loopback port, avoiding 8047 and
// 8200-8299, which the repository's smoke scripts use.
func freePort() (int, error) {
	for i := 0; i < 20; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		if port != 8047 && (port < 8200 || port > 8299) {
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port")
}

var probeClient = &http.Client{Timeout: time.Second}

// waitHealthy polls url/healthz every millisecond until it answers 200.
func waitHealthy(ctx context.Context, url string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := probeClient.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("/healthz not 200 within %v", limit)
}

// scrape reads a wbserve /metrics page into series name → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile estimates the p-quantile of the difference between two
// scrapes of a power-of-two histogram (series name_bucket{le="B"}),
// interpolating linearly inside the bucket [B/2, B).  It returns the
// estimate and the number of observations.
func histQuantile(before, after map[string]float64, name string, p float64) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		if d := v - before[k]; d > 0 {
			bs = append(bs, bucket{le, d})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := 0.0
	for _, b := range bs {
		total += b.n
	}
	want, seen := p*total, 0.0
	for _, b := range bs {
		if seen+b.n >= want {
			lo := b.le / 2
			return lo + (b.le-lo)*(want-seen)/b.n, int(total)
		}
		seen += b.n
	}
	return 0, int(total)
}

// delta is a counter's growth between two scrapes.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// hostRecord is the host and code identity every result carries.
func hostRecord(root string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     commit,
		"source":     sourceDigest(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, so a result
// names the code that produced it even in a checkout without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuStat is the aggregate line of /proc/stat: total and steal ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already in user
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st
}

// stealShare is the share of CPU time the hypervisor took from this
// machine since prev: host noise the run's figures absorbed.
func (s cpuStat) stealShare(prev cpuStat) float64 {
	return ratio(s.steal-prev.steal, s.total-prev.total)
}

// quietHalf returns the indexes, in increasing order, of the half (at
// least one) of the parts of a window with the smallest steal shares.
func quietHalf(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}
