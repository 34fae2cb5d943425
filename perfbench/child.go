package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running svgicd.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done
}

// runtimeVars are environment variables that would move the child's Go
// runtime off its production defaults; they are stripped before launch.
var runtimeVars = []string{"GOGC=", "GOMEMLIMIT=", "GODEBUG=", "GOMAXPROCS=", "GORACE=", "GOTRACEBACK="}

// launch starts svgicd on a free loopback port with GOMAXPROCS=2 and the
// given flags, and waits until /healthz answers.
func launch(bin string, flags []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	env := []string{"GOMAXPROCS=2"}
	for _, kv := range os.Environ() {
		keep := true
		for _, p := range runtimeVars {
			if strings.HasPrefix(kv, p) {
				keep = false
			}
		}
		if keep {
			env = append(env, kv)
		}
	}
	cmd.Env = env
	// The child dies with the runner, so no run leaves an svgicd behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting svgicd: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { c.err = cmd.Wait(); close(c.done) }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("svgicd exited during startup: %v", c.err)
		default:
		}
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("svgicd did not become healthy within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains svgicd with SIGTERM (its graceful path flushes the store) and
// waits for it to exit, killing it after 30s.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		return errors.New("svgicd did not drain within 30s")
	}
	return c.err
}

// cpuTicks reads the child's user+sys CPU time in clock ticks from
// /proc/<pid>/stat (fields 14 and 15; the command name may hold spaces, so
// fields are counted after its closing parenthesis).
func (c *child) cpuTicks() (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// hostCPU is the busy and stolen CPU ticks of the machine the benchmark
// runs on, summed over its CPUs, from the first line of /proc/stat. Stolen
// time is time the hypervisor ran something else while one of those CPUs
// had work.
type hostCPU struct {
	busy, steal uint64
}

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return hostCPU{}, err
		}
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the CPU time the machine wanted between h
// and a later reading that the hypervisor stole.
func (h hostCPU) stealShare(later hostCPU) float64 {
	steal := later.steal - h.steal
	return float64(steal) / float64(max(later.busy-h.busy+steal, 1))
}

// ticksPerSecond is USER_HZ, 100 on every Linux ABI Go supports.
const ticksPerSecond = 100

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns an HTTP client whose transport keeps one idle
// connection per closed-loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// do sends one request, tagged with a request id when id is non-zero, and
// returns the status and the whole body.
func do(hc *http.Client, method, url string, body []byte, id uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
