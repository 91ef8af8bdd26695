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

	"edbp/internal/span"
)

// node is one edbpd process the benchmark started: on a free loopback
// port, with a fresh -store directory, in its own process group.
type node struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	log  string // combined stdout+stderr
	done chan struct{}
	err  error // cmd.Wait's result, once done is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode launches bin with -addr and -store set plus extra flags. dir is
// the run's scratch directory; the node's store and log go under it.
func startNode(bin, dir, name string, extra ...string) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: free port: %w", name, err)
	}
	store, err := os.MkdirTemp(dir, name+"-store-")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	n := &node{
		name: name,
		url:  "http://" + addr,
		args: append([]string{"-addr", addr, "-store", store}, extra...),
		log:  filepath.Join(dir, filepath.Base(store)+".log"),
		done: make(chan struct{}),
	}
	logf, err := os.Create(n.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	n.cmd = exec.Command(bin, n.args...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	// Its own process group, so stop can prove nothing is left behind; and
	// killed with the benchmark if the benchmark dies first.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	go func() { n.err = n.cmd.Wait(); close(n.done) }()
	return n, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func (n *node) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during start-up: %v; log: %s", n.name, n.err, n.logTail())
		default:
		}
		resp, err := c.Get(n.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", n.name, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func (n *node) peakRSSMB() (float64, error) { return vmHWM(n.cmd.Process.Pid) }

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// terminate sends SIGTERM.
func (n *node) terminate() error {
	select {
	case <-n.done:
		return fmt.Errorf("%s exited before SIGTERM: %v; log: %s", n.name, n.err, n.logTail())
	default:
	}
	if err := syscall.Kill(n.cmd.Process.Pid, syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", n.name, err)
	}
	return nil
}

// drained waits for a terminated node and checks it drained: exit status
// 0, "drained cleanly" in its log, and no process left in its group. A
// node that does not exit in time is killed and reported.
func (n *node) drained() error {
	pgid := n.cmd.Process.Pid
	select {
	case <-n.done:
	case <-time.After(30 * time.Second):
		n.kill()
		return fmt.Errorf("%s did not exit within 30s of SIGTERM; log: %s", n.name, n.logTail())
	}
	if n.err != nil {
		return fmt.Errorf("%s: exit after SIGTERM: %v; log: %s", n.name, n.err, n.logTail())
	}
	if err := syscall.Kill(-pgid, 0); !errors.Is(err, syscall.ESRCH) {
		syscall.Kill(-pgid, syscall.SIGKILL)
		return fmt.Errorf("%s left processes behind in group %d", n.name, pgid)
	}
	logData, err := os.ReadFile(n.log)
	if err != nil {
		return err
	}
	if !bytes.Contains(logData, []byte("drained cleanly")) {
		return fmt.Errorf("%s exited 0 without \"drained cleanly\"; log: %s", n.name, n.logTail())
	}
	return nil
}

// logTail returns the end of the node's log for error messages: the log
// itself is deleted with the run's directory.
func (n *node) logTail() string {
	data, err := os.ReadFile(n.log)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return fmt.Sprintf("%q", data)
}

// kill is the error-path cleanup: SIGKILL the group and wait for the node.
func (n *node) kill() {
	syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL)
	<-n.done
}

// fleet is every node one set-up started.
type fleet []*node

// stop sends SIGTERM to every node at once and checks each drained. It
// first closes c's idle connections: http.Server.Shutdown waits up to five
// seconds for a connection that never carried a request, and a client
// transport can hold one. A coordinator's connections to its workers close
// when it exits, so terminating the fleet together spares the workers that
// wait too.
func (f fleet) stop(c *http.Client) error {
	c.CloseIdleConnections()
	var errs []error
	for _, n := range f {
		errs = append(errs, n.terminate())
	}
	for _, n := range f {
		errs = append(errs, n.drained())
	}
	if err := errors.Join(errs...); err != nil {
		f.kill()
		return err
	}
	return nil
}

func (f fleet) kill() {
	for _, n := range f {
		select {
		case <-n.done:
		default:
			n.kill()
		}
	}
}

func (f fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, n := range f {
		mb, err := n.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func flagsOf(f fleet) []string {
	var out []string
	for _, n := range f {
		out = append(out, n.name+": "+strings.Join(n.args, " "))
	}
	return out
}

// newClient returns an HTTP client whose keep-alive pool holds conns
// connections per host, so each load-generating goroutine reuses its own.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// postJSON sends body as JSON and returns the status and response body.
// tp, when valid, is sent as the traceparent header.
func postJSON(c *http.Client, url string, body any, tp span.Context) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp.Valid() {
		req.Header.Set(span.Header, tp.Traceparent())
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// spansOf fetches and parses a node's JSONL span export (GET /trace or
// GET /trace/{grid-id}).
func spansOf(c *http.Client, url string) ([]span.Record, error) {
	raw, err := getBody(c, url)
	if err != nil {
		return nil, err
	}
	return span.ReadJSONL(bytes.NewReader(raw))
}

// metricValue reads one unlabelled counter or gauge from a node's
// GET /metrics?format=json snapshot.
func metricValue(c *http.Client, n *node, name string) (float64, error) {
	raw, err := getBody(c, n.url+"/metrics?format=json")
	if err != nil {
		return 0, err
	}
	var series []struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(raw, &series); err != nil {
		return 0, fmt.Errorf("%s metrics: %w", n.name, err)
	}
	for _, s := range series {
		if s.Name == name && s.Value != nil {
			return *s.Value, nil
		}
	}
	return 0, fmt.Errorf("%s exports no %s", n.name, name)
}
