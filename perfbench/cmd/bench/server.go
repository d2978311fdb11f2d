package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clockTicks = 100

// server is the system under test: `patchitpy serve -http` with default
// flags on a loopback port, run as its own process.
type server struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	drained  chan struct{}
	stopOnce sync.Once
}

// startServer execs bin and returns once /v1/ping answers OK, with the
// time from exec to that answer.
func startServer(bin string, client *http.Client) (*server, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "serve", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, client: client, drained: make(chan struct{})}
	// The server announces its port on stderr, then logs requests there;
	// keep draining it so the server never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		const marker = "serving HTTP on "
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				select {
				case addr <- strings.TrimSpace(sc.Text()[i+len(marker):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("server did not announce its address")
	}
	for {
		if s.ping() {
			return s, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, errors.New("server did not answer /v1/ping")
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) ping() bool {
	resp, err := s.client.Get(s.base + "/v1/ping")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var r struct {
		OK bool `json:"ok"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&r) == nil && r.OK
}

// stop terminates the server and waits for it to exit; later calls
// return at once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
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
		<-s.drained
	})
}

// pid returns the server's process ID.
func (s *server) pid() int { return s.cmd.Process.Pid }

// get fetches a JSON verb and decodes it into v.
func (s *server) get(verb string, v any) error {
	resp, err := s.client.Get(s.base + "/v1/" + verb)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/%s: status %d", verb, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends body to path and returns the status and response body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// cpuTime returns a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// the 12th and 13th of them.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns a process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the CPU time the hypervisor took from this machine's
// CPUs, summed, from the steal column of /proc/stat; 0 where the kernel
// does not report it. A run records how much was stolen while it
// measured, since stolen time shows up as latency and lateness.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}
