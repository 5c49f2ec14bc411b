package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api/client"
)

// server is one spinnerd process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error // Wait's result, valid once done is closed
	log  *os.File
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches spinnerd with args plus a fresh -addr and waits
// until /v1/healthz answers ok. It returns the server and the time from
// process start to healthy, which is what a user waits for.
func startServer(bin, logPath string, args ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// If the benchmark dies without cleaning up, the kernel kills
	// spinnerd too, so no server outlives the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, done: make(chan struct{}), log: lf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start spinnerd: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	d, err := s.waitHealthy(start, 120*time.Second)
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, d, nil
}

func (s *server) base() string { return "http://" + s.addr }

// waitHealthy polls /v1/healthz every 2ms until it answers 200.
func (s *server) waitHealthy(start time.Time, timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return 0, fmt.Errorf("spinnerd exited before becoming healthy: %v (log %s)", s.err, s.log.Name())
		default:
		}
		resp, err := hc.Get(s.base() + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("spinnerd not healthy after %s (log %s)", timeout, s.log.Name())
}

// stop asks spinnerd to shut down gracefully and waits for it; after 20s
// it is killed.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// kill sends SIGKILL (a crash) and waits until the process is gone.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// procStatus reads one "Key:   value kB" field of /proc/<pid>/status.
func procStatus(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, pid)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatus(pid, "VmHWM")
	return kb / 1024, err
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat line")
	}
	return (u + st) / 100, nil
}

// cpuSteal returns the host's stolen and total CPU time in clock ticks
// from the first line of /proc/stat; zeros when it cannot be read.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// stealMeter measures the host's stolen share of CPU time from when it
// was made. The benchmark reports set-up times, closed-loop rates and
// calm-half medians in unstolen time: on the shared host the benchmark
// was tuned on, the hypervisor took up to a third of the CPU for minutes
// at a time, and work that needs the CPU then stretches by about
// 1 / (1 − stolen share).
type stealMeter struct{ steal, total float64 }

func newStealMeter() stealMeter {
	s, t := cpuSteal()
	return stealMeter{s, t}
}

// unstolen is the share of host CPU time the hypervisor left the VM
// since m was made, at least 0.1.
func (m stealMeter) unstolen() float64 {
	s, t := cpuSteal()
	return 1 - min(0.9, (s-m.steal)/max(1, t-m.total))
}

// stealWindows is how many equal windows watchSteal splits a phase into.
const stealWindows = 8

// watchSteal samples the host's stolen share of CPU time over each of
// stealWindows equal windows of the next dur, in the background. The
// returned function waits for the last window and returns the shares.
func watchSteal(dur time.Duration) func() []float64 {
	done := make(chan []float64, 1)
	go func() {
		start := time.Now()
		steal, total := cpuSteal()
		var shares []float64
		for k := 1; k <= stealWindows; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / stealWindows)))
			steal1, total1 := cpuSteal()
			shares = append(shares, (steal1-steal)/max(1, total1-total))
			steal, total = steal1, total1
		}
		done <- shares
	}()
	return func() []float64 { return <-done }
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// newClient returns an API client that holds at most one connection to
// base, so the benchmark's connection count is explicit. A non-nil
// tracer stamps each request with its client span.
func newClient(base string, t *tracer) *client.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if t != nil {
		rt = tracingTransport{base: rt}
	}
	c := client.New(base)
	c.HTTPClient = &http.Client{Transport: rt}
	return c
}

// scrape is one parsed /v1/metrics exposition.
type scrape map[string]*client.Family

func scrapeMetrics(ctx context.Context, c *client.Client) (scrape, error) {
	txt, err := c.MetricsText(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	fams, err := client.ParseProm(txt)
	if err != nil {
		return nil, err
	}
	out := make(scrape, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out, nil
}

// value sums the samples of a counter or gauge family whose labels
// include match; 0 when absent.
func (s scrape) value(name string, match map[string]string) float64 {
	f := s[name]
	if f == nil {
		return 0
	}
	total := 0.0
	for _, smp := range f.Samples {
		if smp.Name == name && hasLabels(smp.Labels, match) {
			total += smp.Value
		}
	}
	return total
}

func hasLabels(got, want map[string]string) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// delta is after minus before for one counter.
func delta(before, after scrape, name string) float64 {
	return after.value(name, nil) - before.value(name, nil)
}

// histDelta returns the q-quantile of the observations a histogram
// series gained between two scrapes, in the series' unit; ok is false
// when it gained none.
func histDelta(before, after scrape, name string, match map[string]string, q float64) (float64, bool) {
	fa := after[name]
	if fa == nil {
		return 0, false
	}
	key := func(s client.Sample) string {
		return s.Name + "|" + s.Labels["le"] + "|" + fmt.Sprint(s.Labels)
	}
	prev := map[string]float64{}
	if fb := before[name]; fb != nil {
		for _, s := range fb.Samples {
			prev[key(s)] = s.Value
		}
	}
	d := &client.Family{Name: name, Type: fa.Type}
	for _, s := range fa.Samples {
		s.Value -= prev[key(s)]
		d.Samples = append(d.Samples, s)
	}
	return client.HistQuantile(d, match, q)
}
