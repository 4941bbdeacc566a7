package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a running edserved process.
type child struct {
	cmd          *exec.Cmd
	addr         string
	ready        time.Duration // exec until the listening line
	users, files int           // what edserved reports serving
	drained      chan struct{} // closed once its stdout hits EOF
}

// startServer execs edserved on an ephemeral loopback port and waits
// for it to report that it is listening.
func startServer(path string) (*child, error) {
	cmd := exec.Command(path,
		"-addr", "127.0.0.1:0",
		"-peers", strconv.Itoa(servePeers),
		"-seed", strconv.Itoa(serveWorldSeed),
		"-day", strconv.Itoa(serveDay),
		"-stats", "0")
	cmd.Stderr = os.Stderr
	// If the benchmark dies, edserved dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if _, err := fmt.Sscanf(line, "edserved: serving day %d: %d users, %d published files",
			new(int), &c.users, &c.files); err == nil {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "edserved: listening on "); ok {
			c.ready = time.Since(t0)
			c.addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	go func() {
		io.Copy(io.Discard, out)
		close(c.drained)
	}()
	if c.addr == "" {
		c.stop()
		return nil, fmt.Errorf("edserved exited before listening")
	}
	return c, nil
}

// stop drains edserved with SIGTERM, killing it if it does not exit in
// time, and waits for the process to end.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.drained:
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill()
		<-c.drained
	}
	if err := c.cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) && !exit.Exited() {
			return nil // killed after the drain deadline
		}
		return fmt.Errorf("edserved: %w", err)
	}
	return nil
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	at                  time.Time
	cpu                 time.Duration // utime + stime
	syscr, syscw, wchar uint64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	s := procSample{at: time.Now()}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	s.cpu = time.Duration(ut+st) * clockTick
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			s.syscr = n
		case "syscw":
			s.syscw = n
		case "wchar":
			s.wchar = n
		}
	}
	return s, nil
}

// vmHWM returns a process's peak resident set in MB; pid "self" is
// this process.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
