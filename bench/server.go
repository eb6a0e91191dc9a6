package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/smore-serve from the checkout at root into dir.
func buildServer(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "smore-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/smore-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building smore-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is a running smore-serve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
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

// startServer execs bin with args plus a fresh loopback -addr and returns
// once /healthz first answers 200, with the time from exec to that answer.
func startServer(bin string, args ...string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	c := &child{base: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	c.cmd.Stderr = &c.stderr
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("smore-serve exited during start-up: %v\n%s", c.err, c.stderr.String())
		default:
		}
		resp, err := probe.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.kill()
	return nil, 0, fmt.Errorf("smore-serve not healthy within 30s\n%s", c.stderr.String())
}

// stop sends SIGTERM and waits for a clean exit (the server drains its
// stream queue and, with a state dir, writes a final checkpoint first).
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-c.exited:
	case <-time.After(60 * time.Second):
		c.kill()
		return fmt.Errorf("smore-serve did not exit within 60s of SIGTERM")
	}
	if c.err != nil {
		return fmt.Errorf("smore-serve exit: %v\n%s", c.err, c.stderr.String())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// procCPU returns the process's user+system CPU time from /proc/<pid>/stat
// (summed over all its threads).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procHWM returns the process's peak resident set size (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSample maps a Prometheus series (name plus its label set, exactly as
// rendered) to its value.
type promSample map[string]float64

// scrape reads base's /metrics.
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serverDelta is what the server did between two scrapes on a workload's
// windows routes: requests, time and errors summed over those endpoints,
// and each pipeline stage's op count and time. Stage timers are shared by
// every route that runs the stage (predict and stream adapt both decode),
// so per-request shares are taken over the routes together.
type serverDelta struct {
	requests, micros             float64
	stageOps, stageMicros        map[string]float64
	errors, writeErrors, rejects float64
}

func deltaOf(before, after promSample, endpoints ...string) serverDelta {
	d := func(k string) float64 { return after[k] - before[k] }
	out := serverDelta{
		rejects:     d("smore_overload_rejects_total"),
		stageOps:    map[string]float64{},
		stageMicros: map[string]float64{},
	}
	for _, e := range endpoints {
		ep := fmt.Sprintf("{endpoint=%q}", e)
		out.requests += d("smore_requests_total" + ep)
		out.micros += d("smore_request_latency_seconds_total"+ep) * 1e6
		out.errors += d("smore_request_errors_total" + ep)
		out.writeErrors += d("smore_response_write_errors_total" + ep)
	}
	for _, s := range []string{"decode", "encode", "infer", "stream_encode", "fold", "checkpoint"} {
		st := fmt.Sprintf("{stage=%q}", s)
		out.stageOps[s] = d("smore_stage_ops_total" + st)
		out.stageMicros[s] = d("smore_stage_latency_seconds_total"+st) * 1e6
	}
	return out
}

// endpointUS is the mean request time over the routes.
func (d serverDelta) endpointUS() float64 { return d.micros / max(d.requests, 1) }

// stageUS is a stage's mean time per op.
func (d serverDelta) stageUS(s string) float64 { return d.stageMicros[s] / max(d.stageOps[s], 1) }

// otherUS is the mean request time no timed stage covers: routing,
// admission, validation, enqueue and the response write.
func (d serverDelta) otherUS() float64 {
	return (d.micros - d.stageMicros["decode"] - d.stageMicros["encode"] - d.stageMicros["infer"]) / max(d.requests, 1)
}

// streamStats mirrors the /v1/stream/stats counters the benchmark reads.
type streamStats struct {
	QueueDepth    int   `json:"queue_depth"`
	InFlight      int   `json:"in_flight"`
	Enqueued      int64 `json:"enqueued_total"`
	Dropped       int64 `json:"dropped_total"`
	BatchesFolded int64 `json:"batches_folded_total"`
	WindowsFolded int64 `json:"windows_folded_total"`
	WindowsLost   int64 `json:"windows_lost_total"`
	Adapt         struct {
		PseudoLabels int64 `json:"pseudo_labels"`
		Skipped      int64 `json:"skipped"`
	} `json:"adapt_stats"`
}

func (s streamStats) backlog() int { return s.QueueDepth + s.InFlight }

// reconciles checks the queue identity every accepted window satisfies.
func (s streamStats) reconciles() bool {
	return s.Enqueued == s.WindowsFolded+s.WindowsLost+int64(s.QueueDepth+s.InFlight)
}

func getStreamStats(client *http.Client, base string) (streamStats, error) {
	var st streamStats
	resp, err := client.Get(base + "/v1/stream/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stream/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// getBytes fetches url and fails on a non-200 status.
func getBytes(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, err
}

// postJSON posts body to url and decodes a 200 response into v.
func postJSON(client *http.Client, url string, body []byte, v any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
